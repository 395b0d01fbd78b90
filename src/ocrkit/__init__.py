"""ocrkit: scoring and synthetic data engines for multi-format OCR benchmarks.

The public names below are loaded on first access (PEP 562), so importing
the package, or running one CLI subcommand, loads only the submodules that
are actually used.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    "ApReport": "charts",
    "ChartGenConfig": "charts",
    "ChartParseError": "charts",
    "ChartStruct": "charts",
    "Series": "charts",
    "ap_report": "charts",
    "chart_ap": "charts",
    "gen_chart_struct": "charts",
    "parse_chart_output": "charts",
    "serialize_chart_struct": "charts",
    "Corpus": "corpus",
    "CorpusFormatError": "corpus",
    "Sample": "corpus",
    "TaskKind": "corpus",
    "dedup_filter": "corpus",
    "load_records": "corpus",
    "mix_stages": "corpus",
    "save_records": "corpus",
    "BBox": "finegrained",
    "ColorPrompt": "finegrained",
    "CropSpec": "finegrained",
    "NormBox": "finegrained",
    "crop_regions": "finegrained",
    "denormalize_box": "finegrained",
    "normalize_box": "finegrained",
    "GeomScene": "geometry",
    "SceneConfig": "geometry",
    "emit_tikz": "geometry",
    "gen_scene": "geometry",
    "MetricReport": "metrics",
    "TokenSeq": "metrics",
    "bleu": "metrics",
    "edit_distance_norm": "metrics",
    "meteor": "metrics",
    "prf": "metrics",
    "score_corpus": "metrics",
    "score_texts": "metrics",
    "tokenize": "metrics",
    "MultiPageSample": "pagecompose",
    "PageSpec": "pagecompose",
    "PasteLayout": "pagecompose",
    "compose_multipage": "pagecompose",
    "token_count": "pagecompose",
    "ImageDims": "tiling",
    "StitchSpec": "tiling",
    "TilePlan": "tiling",
    "plan_tiles": "tiling",
    "TikzParseError": "tikz",
    "parse_tikz_subset": "tikz",
    "ValidationReport": "validators",
    "validate_kern": "validators",
    "validate_mathpix_markdown": "validators",
    "validate_smiles": "validators",
    "validate_tikz": "validators",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
