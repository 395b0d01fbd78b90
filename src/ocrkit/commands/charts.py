"""chart-score and gen-chart."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from .. import charts, corpus
from ..corpus import Corpus, Sample, TaskKind
from . import decode, emit_report, load, save_corpus_atomic, write_text_atomic

CHART_PROMPT_DICT = "Convert the chart to a Python dict:"
CHART_PROMPT_TABLE = "Convert the chart to a markdown table:"


def _parsed(samples: Iterable[Sample]) -> Iterator[charts.ChartStruct]:
    for sample in samples:
        try:
            yield charts.parse_chart_output(sample.ground_truth)
        except charts.ChartParseError as exc:
            raise ValueError(f"sample {sample.id!r}: {exc}") from exc


def cmd_chart_score(args) -> int:
    pairs = corpus.pair_by_id(load(args.gt), load(args.pred))
    # parsed as ap_report reads them, ground truth before prediction, one pair at a time
    preds = _parsed(hyp for _, hyp in pairs)
    gts = _parsed(ref for ref, _ in pairs)
    emit_report(charts.ap_report(preds, gts), args)
    return 0


def cmd_gen_chart(args) -> int:
    pool = charts.DEFAULT_TEXT_POOL
    if args.pool_file:
        text = decode(Path(args.pool_file).read_bytes(), args.pool_file)
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
            write_text_atomic(specs_dir / f"{sample_id}.spec.txt", (render_spec,))
    save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} chart records to {args.out}")
    return 0
