"""Batch command-line front end.

Subcommands cover scoring (score, chart-score, dedup), planning (tile-plan,
stitch), and the synthetic data engines (make-finegrained, compose-pages,
paste-layout, gen-geometry, gen-chart, mix), plus validate-format. Every
randomized subcommand takes an explicit --seed (default 0) and is
deterministic; output files are written atomically (temp file + rename) so
interruptions never leave partial artifacts.

This module holds the parser, with every subcommand's flags, and the
handlers of score, dedup and mix. Every other handler, and the file and
report helpers that all handlers share, live in ``ocrkit.commands``; a
handler module is named after the engine it drives
(``ocrkit.commands.charts`` runs chart-score and gen-chart) and is imported
only when its subcommand runs. No ocrkit module imports this one. The
parser registers every subcommand's name and help, but builds a
subcommand's own parser, flags included, only when that subcommand parses
its arguments, so a process builds the parser of the one subcommand it runs.

Importing this module loads no other ocrkit module: the handlers here import
the record model and the shared helpers in their bodies, and score and dedup
the metrics too, so ``--help`` and a usage error load ``ocrkit`` and
``ocrkit.cli`` only.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .tiling import ImageDims

# The keys of validators.VALIDATORS, sorted; spelled out so building the
# parser does not import the validators.
VALIDATE_KINDS = ("kern", "markdown", "smiles", "tikz")


def _dims(text: str) -> ImageDims:
    from .tiling import ImageDims

    try:
        w, h = (int(side) for side in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}") from exc
    try:
        return ImageDims(w, h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _dims_list(text: str) -> list[ImageDims]:
    return [_dims(part) for part in text.split(",") if part]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# --- subcommand implementations ----------------------------------------------


def score_corpus(*args, **kwargs):
    """``metrics.score_corpus``, imported when first called.

    ``cmd_score`` looks this name up in this module, where
    ``perfbench/spans.py`` replaces it to pass a traced tokenizer through.
    ROADMAP item 1's ``benchmark`` change deletes it with the ``tokenizer``
    parameter.
    """
    from .metrics import score_corpus

    return score_corpus(*args, **kwargs)


def cmd_score(args) -> int:
    from .commands import emit_report, load

    report = score_corpus(load(args.gt), load(args.pred), args.granularity)
    emit_report(report, args)
    return 0


def cmd_dedup(args) -> int:
    from . import corpus
    from .commands import load, save_corpus_atomic

    test = load(args.test)
    train = load(args.train)
    kept = corpus.dedup_filter(test, train, args.threshold)
    save_corpus_atomic(kept, args.out)
    print(f"kept {len(kept)} of {len(test)} samples (threshold {args.threshold})")
    return 0


def cmd_mix(args) -> int:
    from . import corpus
    from .commands import load, save_corpus_atomic

    previous = load(args.previous)
    new = load(args.new)
    mixed = corpus.mix_stages(previous, new, args.ratio, args.seed)
    save_corpus_atomic(mixed, args.out)
    print(f"mixed {len(new)} new + {len(mixed) - len(new)} previous -> {args.out}")
    return 0


# --- parser -------------------------------------------------------------------

# Subcommand -> (help, the ocrkit.commands module holding its handler; "" when
# the handler is in this module). The handler of ``foo-bar`` is ``cmd_foo_bar``.
COMMANDS = {
    "score": ("score predictions with the six text metrics", ""),
    "chart-score": ("score chart structured outputs with AP@tolerance", "charts"),
    "tile-plan": ("plan dynamic-resolution tiling for an image size", "tiling"),
    "stitch": ("compute a multi-page stitch layout", "tiling"),
    "make-finegrained": ("build box/color guided OCR records", "finegrained"),
    "compose-pages": ("compose multi-page OCR samples", "pagecompose"),
    "paste-layout": ("lay out handwriting slices on a blank page", "pagecompose"),
    "gen-geometry": ("generate TikZ geometry records", "geometry"),
    "gen-chart": ("generate chart ground-truth records", "charts"),
    "validate-format": ("validate a structured output file", "validators"),
    "dedup": ("filter test samples too similar to training text", ""),
    "mix": ("mix a sampled share of the previous stage into the new stage", ""),
}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Declare the flags of ``command`` on its parser ``p``."""
    add = p.add_argument
    match command:
        case "score":
            add("--gt", required=True, help="ground-truth record file")
            add("--pred", required=True, help="prediction record file (text in ground_truth)")
            add("--granularity", choices=("word", "char"), default="word", help="token unit")
            add("--style", choices=("text", "markdown"), default="text", help="report format")
            add("--json", default=None, help="also write a machine-readable report here")
        case "chart-score":
            add("--gt", required=True)
            add("--pred", required=True)
            add("--style", choices=("text", "markdown"), default="text", help="report format")
            add("--json", default=None)
        case "tile-plan":
            add("--width", type=int, required=True)
            add("--height", type=int, required=True)
            add("--max-tiles", type=_positive_int, default=12, help="most tiles in the grid")
            add("--no-thumbnail", action="store_true")
            add("--json", default=None)
        case "stitch":
            add("--pages", type=_dims_list, required=True, help="WxH,WxH,... page sizes")
            add("--orientation", choices=("horizontal", "vertical"), required=True)
            add("--json", default=None)
        case "make-finegrained":
            add("--input", required=True, help="JSONL annotations (see README schema)")
            add("--out", required=True)
            add("--mode", choices=("box", "color"), default="box",
                help="how the prompt names the region")
            add("--seed", type=int, default=0, help="random seed")
            add("--thickness", type=_positive_int, default=3, help="frame thickness for color mode")
        case "compose-pages":
            add("--pool", required=True, help="JSONL page pool (page_id, text, image_ref)")
            add("--n", type=int, required=True, help="pages per sample, 2-8")
            add("--count", type=_positive_int, default=1, help="samples to generate")
            add("--seed", type=int, default=0, help="seed of sample 0; sample i gets seed+i")
            add("--out", required=True)
        case "paste-layout":
            add("--slices", type=_dims_list, required=True, help="WxH,WxH,... slice sizes")
            add("--canvas", type=_dims, required=True, help="canvas WxH")
            add("--seed", type=int, default=0, help="random seed")
            add("--out", default=None, help="write JSON here instead of stdout")
        case "gen-geometry":
            add("--seed", type=int, default=0, help="seed of scene 0; scene i gets seed+i")
            add("--n", type=_positive_int, default=10, help="scenes to generate")
            add("--out", required=True)
            add("--min-elements", type=int, default=1, help="fewest elements per scene")
            add("--max-elements", type=int, default=6, help="most elements per scene")
            add("--bound-lo", type=int, default=-10, help="lowest coordinate")
            add("--bound-hi", type=int, default=10, help="highest coordinate")
            add("--kinds", default=None, help="comma list; default all element kinds")
        case "gen-chart":
            add("--seed", type=int, default=0, help="seed of chart 0; chart i gets seed+i")
            add("--n", type=_positive_int, default=10, help="charts to generate")
            add("--out", required=True)
            add("--form", choices=("dict", "table"), default="dict", help="ground-truth text form")
            add("--value-lo", type=float, default=0.0, help="lowest data value")
            add("--value-hi", type=float, default=1000.0, help="highest data value")
            add("--decimals", type=int, default=2, help="decimals data values are rounded to")
            add("--pool-file", default=None, help="text pool, one entry per line")
            add("--specs-dir", default=None, help="write render specs under this directory")
        case "validate-format":
            add("--kind", choices=VALIDATE_KINDS, required=True)
            add("file", nargs="?", default="-", help="input path, or - for stdin")
        case "dedup":
            add("--test", required=True)
            add("--train", required=True)
            add("--threshold", type=float, default=0.9, help="similarity cut, in [0,1]")
            add("--out", required=True)
        case "mix":
            add("--previous", required=True)
            add("--new", required=True)
            add("--ratio", type=float, default=0.8, help="share of previous to carry over")
            add("--seed", type=int, default=0, help="random seed")
            add("--out", required=True)


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, built with its flags only when it first parses.

    ``add_parser`` registers the subcommand's name and help with the root
    parser, which reads nothing else of this object until it hands it the
    subcommand's arguments through ``parse_known_args``. So a process builds
    the parser of the one subcommand named in argv and no other.
    """

    def __init__(self, *, command: str, **kwargs) -> None:
        self._pending = (command, kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            command, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            _add_flags(self, command)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocrkit",
        description="Score OCR benchmark predictions and generate synthetic task data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
            command=name,
        )
    return parser


def _handler(command: str):
    """The function that runs ``command``, importing its module if it has one."""
    module = COMMANDS[command][1]
    namespace = vars(importlib.import_module(f"ocrkit.commands.{module}")) if module else globals()
    return namespace["cmd_" + command.replace("-", "_")]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _handler(args.command)(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
