"""Batch command-line front end.

Subcommands cover scoring (score, chart-score, dedup), planning (tile-plan,
stitch), and the synthetic data engines (make-finegrained, compose-pages,
paste-layout, gen-geometry, gen-chart, mix), plus validate-format. Every
randomized subcommand takes an explicit --seed (default 0) and is
deterministic; output files are written atomically (temp file + rename) so
interruptions never leave partial artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable

# Engine modules are imported by the subcommands that run them, so each
# invocation loads only what it uses.
from . import corpus
from .corpus import Corpus, Sample, TaskKind
from .metrics import score_corpus

if TYPE_CHECKING:
    from .charts import ApReport
    from .metrics import MetricReport
    from .tiling import ImageDims

# Report field -> column name. A report's fields are in column order, so its
# as_dict() picks and orders the columns; n_samples is shown apart.
COLUMN_NAMES = {
    "edit_distance": "Edit Distance",
    "f1": "F1-score",
    "precision": "Precision",
    "recall": "Recall",
    "bleu": "BLEU",
    "meteor": "METEOR",
    "ap_strict": "AP@strict",
    "ap_slight": "AP@slight",
    "ap_high": "AP@high",
}
# The keys of validators.VALIDATORS, sorted; spelled out so building the
# parser does not import the validators.
VALIDATE_KINDS = ("kern", "markdown", "smiles", "tikz")

GEOMETRY_PROMPT = "Transcribe the figure as TikZ:"
CHART_PROMPT_DICT = "Convert the chart to a Python dict:"
CHART_PROMPT_TABLE = "Convert the chart to a markdown table:"
MULTIPAGE_PROMPT = "OCR the pages in order:"


def _write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    # mkstemp creates the file 0600; give it the mode open(path, "w") would leave:
    # an existing file's own mode, else 0666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(fd, mode)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # name the file asked for, not the random temp file beside it
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _load(path: str) -> Corpus:
    """corpus.load_records, with the file named in its errors."""
    try:
        return corpus.load_records(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _save_corpus_atomic(c: Corpus, path: str | Path) -> None:
    _write_text_atomic(path, corpus.dump_records(c))


def render_report(report: MetricReport | ApReport, style: str = "text") -> str:
    """Report text with the benchmark column names, 3-decimal values."""
    columns = [
        (COLUMN_NAMES[key], value) for key, value in report.as_dict().items() if key != "n_samples"
    ]
    if style == "markdown":
        head = "| " + " | ".join(name for name, _ in columns) + " |"
        sep = "|" + "|".join(" --- " for _ in columns) + "|"
        row = "| " + " | ".join(f"{value:.3f}" for _, value in columns) + " |"
        return "\n".join((head, sep, row)) + "\n"
    if style == "text":
        width = max(len(name) for name, _ in columns)
        lines = [f"{name:<{width}}  {value:.3f}" for name, value in columns]
        lines.append(f"{'samples':<{width}}  {report.n_samples}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown style {style!r}")


def _emit_report(report: MetricReport | ApReport, args) -> None:
    sys.stdout.write(render_report(report, args.style))
    if args.json:
        _write_text_atomic(args.json, json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")


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


def _decode(data: bytes, source: str) -> str:
    """data as strict UTF-8; a bad byte reads ``<source>: ...``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# --- subcommand implementations ----------------------------------------------


def cmd_score(args) -> int:
    refs = _load(args.gt)
    hyps = _load(args.pred)
    report = score_corpus(refs, hyps, args.granularity)
    _emit_report(report, args)
    return 0


def cmd_chart_score(args) -> int:
    from . import charts

    pairs = corpus.pair_by_id(_load(args.gt), _load(args.pred))
    gt_structs, pred_structs = [], []
    for ref, hyp in pairs:
        try:
            gt_structs.append(charts.parse_chart_output(ref.ground_truth))
            pred_structs.append(charts.parse_chart_output(hyp.ground_truth))
        except charts.ChartParseError as exc:
            raise ValueError(f"sample {ref.id!r}: {exc}") from exc
    report = charts.ap_report(pred_structs, gt_structs)
    _emit_report(report, args)
    return 0


def cmd_tile_plan(args) -> int:
    from . import tiling

    plan = tiling.plan_tiles(
        tiling.ImageDims(args.width, args.height), args.max_tiles, thumbnail=not args.no_thumbnail
    )
    suffix = " (+thumbnail)" if plan.include_thumbnail else ""
    print(f"{plan.grid_cols}x{plan.grid_rows}{suffix}")
    if args.json:
        obj = {
            "grid_cols": plan.grid_cols,
            "grid_rows": plan.grid_rows,
            "tile_px": plan.tile_px,
            "include_thumbnail": plan.include_thumbnail,
            "tile_rects": [[r.x, r.y, r.w, r.h] for r in plan.tile_rects],
        }
        _write_text_atomic(args.json, json.dumps(obj, indent=2) + "\n")
    return 0


def cmd_stitch(args) -> int:
    from . import tiling

    spec = tiling.stitch_pages(args.pages, args.orientation)
    print(f"{spec.canvas.width}x{spec.canvas.height}")
    for p in spec.placements:
        print(f"{p.page_index}: x={p.x} y={p.y} {p.dims.width}x{p.dims.height}")
    if args.json:
        obj = {
            "orientation": spec.orientation,
            "canvas": [spec.canvas.width, spec.canvas.height],
            "placements": [
                [p.page_index, p.x, p.y, p.dims.width, p.dims.height] for p in spec.placements
            ],
        }
        _write_text_atomic(args.json, json.dumps(obj, indent=2) + "\n")
    return 0


# Field kinds (see corpus.check_fields) shared by the auxiliary JSONL inputs.
_TEXT_KINDS = {"text": (str,), "image_ref": (str, type(None))}


def _read_aux(path: str, kinds: dict, required: tuple, build: Callable) -> list:
    """build(obj) per line of an auxiliary JSONL file; required[0] is a unique id.
    An error from any line, build's included, reads ``<path>: line N: ...``."""
    rows, seen = [], set()
    try:
        for line, obj in corpus.read_jsonl(path):
            try:
                corpus.check_fields(obj, kinds, required)
                if obj[required[0]] in seen:
                    raise ValueError(f"duplicate {required[0]} {obj[required[0]]!r}")
                seen.add(obj[required[0]])
                rows.append(build(obj))
            except (ValueError, OverflowError) as exc:
                raise corpus.CorpusFormatError(line, str(exc)) from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return rows


def cmd_make_finegrained(args) -> int:
    import random

    from . import finegrained
    from .tiling import ImageDims

    rng = random.Random(args.seed)

    def build(row: dict) -> Sample:
        xy = row["box"]
        if type(xy) is not list or len(xy) != 4 or any(type(v) not in (int, float) for v in xy):
            raise ValueError("field 'box' must be four numbers [x1, y1, x2, y2]")
        dims = ImageDims(row["width"], row["height"])
        box = finegrained.BBox(*(float(v) for v in xy))
        finegrained.check_box(box, dims)
        meta = {
            "source_box": ",".join(str(v) for v in xy),
            "image_width": str(dims.width),
            "image_height": str(dims.height),
        }
        if args.mode == "box":
            nbox = finegrained.normalize_box(box, dims)
            crop = finegrained.crop_regions(dims, [box])[0]
            prompt = finegrained.box_guided_prompt(nbox)
            meta["norm_box"] = nbox.prompt_text()
            meta["crop_rect"] = f"{crop.x1},{crop.y1},{crop.x2},{crop.y2}"
            kind = TaskKind.FINE_GRAINED_BOX
        else:
            color = rng.choice(sorted(finegrained.COLOR_RGB))
            frame = finegrained.color_frame_spec(
                box, finegrained.ColorPrompt(color, args.thickness)
            )
            prompt = finegrained.color_guided_prompt(color)
            meta["frame_color"] = color
            meta["frame_rgb"] = ",".join(str(v) for v in frame.rgb)
            meta["frame_thickness"] = str(frame.thickness)
            kind = TaskKind.FINE_GRAINED_COLOR
        return Sample(
            id=row["id"],
            task_kind=kind,
            ground_truth=row["text"],
            prompt=prompt,
            lang=row.get("lang", "en"),
            image_ref=row.get("image_ref"),
            meta=meta,
        )

    kinds = {"id": (str,), "width": (int,), "height": (int,), "lang": (str,), **_TEXT_KINDS}
    samples = _read_aux(args.input, kinds, ("id", "width", "height", "box", "text"), build)
    _save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} {args.mode}-guided records to {args.out}")
    return 0


def cmd_compose_pages(args) -> int:
    from . import pagecompose

    def page(row: dict) -> pagecompose.PageSpec:
        return pagecompose.PageSpec.from_text(row["page_id"], row["text"], row.get("image_ref", ""))

    pool = _read_aux(args.pool, {"page_id": (str,), **_TEXT_KINDS}, ("page_id", "text"), page)
    samples = []
    for i in range(args.count):
        seed = args.seed + i
        sample = pagecompose.compose_multipage(pool, args.n, seed)
        meta = {
            "page_ids": ",".join(p.page_id for p in sample.pages),
            "page_separator": pagecompose.PAGE_SEPARATOR,
            "total_tokens": str(sample.total_tokens),
        }
        refs = [p.image_ref for p in sample.pages if p.image_ref]
        if refs:
            meta["page_image_refs"] = ",".join(refs)
        samples.append(
            Sample(
                id=f"multipage-{seed:08d}",
                task_kind=TaskKind.MULTI_PAGE,
                ground_truth=sample.joined_text,
                prompt=MULTIPAGE_PROMPT,
                meta=meta,
            )
        )
    _save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} multi-page records to {args.out}")
    return 0


def cmd_paste_layout(args) -> int:
    from . import pagecompose

    layout = pagecompose.paste_handwriting_lines(args.slices, args.canvas, args.seed)
    obj = {
        "canvas": [layout.canvas.width, layout.canvas.height],
        "placements": [list(p) for p in layout.placements],
    }
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        _write_text_atomic(args.out, text)
        print(f"wrote layout of {len(layout.placements)} slices to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen_geometry(args) -> int:
    from . import geometry

    config = geometry.SceneConfig(
        n_elements=(args.min_elements, args.max_elements),
        bounds=(args.bound_lo, args.bound_hi),
        kinds=tuple(args.kinds.split(",")) if args.kinds else geometry.ALL_KINDS,
    )
    samples = []
    for i in range(args.n):
        scene = geometry.gen_scene(args.seed + i, config)
        doc = geometry.emit_tikz(scene)
        samples.append(
            Sample(
                id=f"geom-{args.seed + i:08d}",
                task_kind=TaskKind.GEOMETRY,
                ground_truth=doc.source,
                prompt=GEOMETRY_PROMPT,
                meta={"n_elements": str(len(scene.elements))},
            )
        )
    _save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} geometry records to {args.out}")
    return 0


def cmd_gen_chart(args) -> int:
    from . import charts

    pool = charts.ChartGenConfig().text_pool
    if args.pool_file:
        text = _decode(Path(args.pool_file).read_bytes(), args.pool_file)
        words = [w.strip() for w in text.splitlines()]
        pool = tuple(w for w in words if w)
    config = charts.ChartGenConfig(
        value_range=(args.value_lo, args.value_hi), decimals=args.decimals, text_pool=pool
    )
    prompt = CHART_PROMPT_DICT if args.form == "dict" else CHART_PROMPT_TABLE
    samples = []
    specs: list[tuple[str, str]] = []
    for i in range(args.n):
        struct, render_spec = charts.gen_chart_struct(args.seed + i, config)
        sample_id = f"chart-{args.seed + i:08d}"
        samples.append(
            Sample(
                id=sample_id,
                task_kind=TaskKind.CHART,
                ground_truth=charts.serialize_chart_struct(struct, args.form),
                prompt=prompt,
                meta={"chart_form": args.form},
            )
        )
        specs.append((sample_id, render_spec))
    if args.specs_dir:  # spec files first and --out last, so a failed spec leaves no --out
        specs_dir = Path(args.specs_dir)
        specs_dir.mkdir(parents=True, exist_ok=True)
        for sample_id, render_spec in specs:
            _write_text_atomic(specs_dir / f"{sample_id}.spec.txt", render_spec)
    _save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} chart records to {args.out}")
    return 0


def cmd_validate_format(args) -> int:
    from . import validators

    if args.file == "-":
        text = _decode(sys.stdin.buffer.read(), "<stdin>")
    else:
        text = _decode(Path(args.file).read_bytes(), args.file)
    report = validators.VALIDATORS[args.kind](text)
    for issue in report.issues:
        print(f"{issue.line}:{issue.column} {issue.code} {issue.message}")
    return 0 if report.ok else 1


def cmd_dedup(args) -> int:
    test = _load(args.test)
    train = _load(args.train)
    kept = corpus.dedup_filter(test, train, args.threshold)
    _save_corpus_atomic(kept, args.out)
    print(f"kept {len(kept)} of {len(test)} samples (threshold {args.threshold})")
    return 0


def cmd_mix(args) -> int:
    previous = _load(args.previous)
    new = _load(args.new)
    mixed = corpus.mix_stages(previous, new, args.ratio, args.seed)
    _save_corpus_atomic(mixed, args.out)
    print(f"mixed {len(new)} new + {len(mixed) - len(new)} previous -> {args.out}")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocrkit",
        description="Score OCR benchmark predictions and generate synthetic task data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=fmt)
        p.set_defaults(func=func)
        return p

    p = add("score", cmd_score, "score predictions with the six text metrics")
    p.add_argument("--gt", required=True, help="ground-truth record file")
    p.add_argument("--pred", required=True, help="prediction record file (text in ground_truth)")
    p.add_argument("--granularity", choices=("word", "char"), default="word")
    p.add_argument("--style", choices=("text", "markdown"), default="text")
    p.add_argument("--json", default=None, help="also write a machine-readable report here")

    p = add("chart-score", cmd_chart_score, "score chart structured outputs with AP@tolerance")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--style", choices=("text", "markdown"), default="text")
    p.add_argument("--json", default=None)

    p = add("tile-plan", cmd_tile_plan, "plan dynamic-resolution tiling for an image size")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--max-tiles", type=int, default=12)
    p.add_argument("--no-thumbnail", action="store_true")
    p.add_argument("--json", default=None)

    p = add("stitch", cmd_stitch, "compute a multi-page stitch layout")
    p.add_argument("--pages", type=_dims_list, required=True, help="WxH,WxH,... page sizes")
    p.add_argument("--orientation", choices=("horizontal", "vertical"), required=True)
    p.add_argument("--json", default=None)

    p = add("make-finegrained", cmd_make_finegrained, "build box/color guided OCR records")
    p.add_argument("--input", required=True, help="JSONL annotations (see README schema)")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("box", "color"), default="box")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--thickness", type=_positive_int, default=3, help="frame thickness for color mode"
    )

    p = add("compose-pages", cmd_compose_pages, "compose multi-page OCR samples")
    p.add_argument("--pool", required=True, help="JSONL page pool (page_id, text, image_ref)")
    p.add_argument("--n", type=int, required=True, help="pages per sample, 2-8")
    p.add_argument("--count", type=_positive_int, default=1, help="samples to generate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("paste-layout", cmd_paste_layout, "lay out handwriting slices on a blank page")
    p.add_argument("--slices", type=_dims_list, required=True, help="WxH,WxH,... slice sizes")
    p.add_argument("--canvas", type=_dims, required=True, help="canvas WxH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = add("gen-geometry", cmd_gen_geometry, "generate TikZ geometry records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--min-elements", type=int, default=1)
    p.add_argument("--max-elements", type=int, default=6)
    p.add_argument("--bound-lo", type=int, default=-10)
    p.add_argument("--bound-hi", type=int, default=10)
    p.add_argument("--kinds", default=None, help="comma list; default all element kinds")

    p = add("gen-chart", cmd_gen_chart, "generate chart ground-truth records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--form", choices=("dict", "table"), default="dict")
    p.add_argument("--value-lo", type=float, default=0.0)
    p.add_argument("--value-hi", type=float, default=1000.0)
    p.add_argument("--decimals", type=int, default=2)
    p.add_argument("--pool-file", default=None, help="text pool, one entry per line")
    p.add_argument("--specs-dir", default=None, help="write render specs under this directory")

    p = add("validate-format", cmd_validate_format, "validate a structured output file")
    p.add_argument("--kind", choices=VALIDATE_KINDS, required=True)
    p.add_argument("file", nargs="?", default="-", help="input path, or - for stdin")

    p = add("dedup", cmd_dedup, "filter test samples too similar to training text")
    p.add_argument("--test", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--threshold", type=float, default=0.9, help="similarity cut, in [0,1]")
    p.add_argument("--out", required=True)

    p = add("mix", cmd_mix, "mix a sampled share of the previous stage into the new stage")
    p.add_argument("--previous", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--ratio", type=float, default=0.8, help="share of previous to carry over")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
