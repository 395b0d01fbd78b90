"""In-memory spans around ocrkit's layer boundaries, and what they add up to.

A span records a name, start, end, the enclosing span and the pass (run id)
it belongs to. Spans are taken only in the benchmark process, by wrapping
public ocrkit functions at the names their callers look them up by; nothing
inside the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

# Layer boundaries in report order. "cli.import" is timed once per process,
# "cli.main" once per in-process CLI invocation; the rest are wrapped below.
LAYERS = (
    "cli.import",
    "cli.main",
    "corpus.load_records",
    "corpus.dump_records",
    "metrics.tokenize",
    "metrics.edit_distance_norm",
    "metrics.prf",
    "metrics.bleu",
    "metrics.meteor",
    "metrics.score_texts",
    "metrics.score_corpus",
    "corpus.dedup_filter",
    "corpus.mix_stages",
    "charts.gen_chart_struct",
    "charts.serialize_chart_struct",
    "charts.parse_chart_output",
    "charts.ap_report",
    "geometry.gen_scene",
    "geometry.emit_tikz",
    "pagecompose.compose_multipage",
)

# Boundary-specific work counts, computed from arguments or results outside
# the wrapped call: bytes read or written, DP cells, candidate pairs.
Work = Callable[..., float]


def _file_bytes(result, path, *args, **kwargs) -> float:
    return float(os.path.getsize(path))


def _text_bytes(result, *args, **kwargs) -> float:
    return float(len(result.encode("utf-8")))


def _dp_cells(result, ref, hyp, *args, **kwargs) -> float:
    return float(len(ref) * len(hyp))


def _pairs(result, test, train, *args, **kwargs) -> float:
    return float(len(test) * len(train))


# (module, attribute, layer, work): each function is wrapped at the name its
# caller resolves at call time. corpus and metrics each hold their own
# reference to tokenize and edit_distance_norm, so both are wrapped.
BOUNDARIES: tuple[tuple[str, str, str, Work | None], ...] = (
    ("ocrkit.corpus", "load_records", "corpus.load_records", _file_bytes),
    ("ocrkit.corpus", "dump_records", "corpus.dump_records", _text_bytes),
    ("ocrkit.corpus", "tokenize", "metrics.tokenize", None),
    ("ocrkit.corpus", "edit_distance_norm", "metrics.edit_distance_norm", _dp_cells),
    ("ocrkit.corpus", "dedup_filter", "corpus.dedup_filter", _pairs),
    ("ocrkit.corpus", "mix_stages", "corpus.mix_stages", None),
    ("ocrkit.metrics", "edit_distance_norm", "metrics.edit_distance_norm", _dp_cells),
    ("ocrkit.metrics", "prf", "metrics.prf", None),
    ("ocrkit.metrics", "bleu", "metrics.bleu", None),
    ("ocrkit.metrics", "meteor", "metrics.meteor", None),
    ("ocrkit.metrics", "score_texts", "metrics.score_texts", None),
    ("ocrkit.charts", "gen_chart_struct", "charts.gen_chart_struct", None),
    ("ocrkit.charts", "serialize_chart_struct", "charts.serialize_chart_struct", None),
    ("ocrkit.charts", "parse_chart_output", "charts.parse_chart_output", None),
    ("ocrkit.charts", "ap_report", "charts.ap_report", None),
    ("ocrkit.geometry", "gen_scene", "geometry.gen_scene", None),
    ("ocrkit.geometry", "emit_tikz", "geometry.emit_tikz", None),
    ("ocrkit.pagecompose", "compose_multipage", "pagecompose.compose_multipage", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span among its run's spans, -1 at the top
    run: int     # the pass this span belongs to
    work: float = 0.0


class Tracer:
    """Collects the spans of one run (one pass) in memory."""

    def __init__(self, run: int) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record = Span(name, 0.0, 0.0, parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, work: Work | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record.work = work(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Wrap every boundary for the duration of the block, then restore.

        ``score_texts`` and ``score_corpus`` bind ``tokenize`` as a default
        argument when they are defined, so patching ``metrics.tokenize`` would
        miss the scoring path. The ``cli.score_corpus`` wrapper therefore
        passes the traced tokenizer explicitly.
        """
        cli = importlib.import_module("ocrkit.cli")
        metrics = importlib.import_module("ocrkit.metrics")
        saved = []
        for module_name, attr, layer, work in BOUNDARIES:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(layer, getattr(module, attr), work))
        traced_tokenize = self.wrap("metrics.tokenize", metrics.tokenize)
        score_corpus = cli.score_corpus

        def score_corpus_traced(*args, **kwargs):
            kwargs.setdefault("tokenizer", traced_tokenize)
            return score_corpus(*args, **kwargs)

        saved.append((cli, "score_corpus", score_corpus))
        cli.score_corpus = self.wrap("metrics.score_corpus", score_corpus_traced)
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def dump(tracers: list[Tracer], path: str | os.PathLike) -> None:
    """Write every span as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for record in tracer.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for record in spans:
        if record.parent >= 0:
            children.setdefault(record.parent, []).append(record)
    result = []
    for index, record in enumerate(spans):
        covered, reach = 0.0, record.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(record.end - record.start - covered)
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy_s (inclusive), self_s and summed work."""
    totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0} for name in LAYERS}
    for record, own in zip(spans, self_times(spans)):
        entry = totals[record.name]
        entry["calls"] += 1
        entry["busy_s"] += record.end - record.start
        entry["self_s"] += own
        entry["work"] += record.work
    return totals


def calls_under(spans: list[Span], name: str, parent_name: str) -> int:
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(1 for s in spans
               if s.name == name and s.parent >= 0 and spans[s.parent].name == parent_name)
