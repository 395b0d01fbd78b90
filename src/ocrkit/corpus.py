"""Benchmark/training record model.

Records live in line-delimited UTF-8 JSON files (one object per line, LF
terminated) with the fields id, task_kind, image_ref, prompt, ground_truth,
lang and a flat string-to-string meta map. Every line is one record, so an
empty corpus is an empty file.
"""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_left
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterator

from ._record import Record


class TaskKind(str, Enum):
    PLAIN_DOC = "PlainDoc"
    SCENE_TEXT = "SceneText"
    FORMATTED_DOC = "FormattedDoc"
    FINE_GRAINED_BOX = "FineGrainedBox"
    FINE_GRAINED_COLOR = "FineGrainedColor"
    MULTI_CROP = "MultiCrop"
    MULTI_PAGE = "MultiPage"
    SHEET_MUSIC = "SheetMusic"
    GEOMETRY = "Geometry"
    CHART = "Chart"


_TASK_KINDS = {kind.value: kind for kind in TaskKind}  # value -> member, without Enum's call

LANGS = ("en", "zh", "other")


class _Meta(dict):
    """A sample's meta map: a dict whose methods that would change it raise TypeError."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a sample's meta is read-only; build a new Sample to change it")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # copy and pickle would otherwise refill the new map item by item
        return _Meta, (dict(self),)


# A field kind is the tuple of JSON value types the field may hold; the test is
# type(value) in kind, so a bool is never an int. A Sample also takes the stored
# meta map of another Sample, so that copies and Sample(**s.as_dict()) work.
_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object", type(None): "null"}
_FIELDS = {  # every record field and its kind, in check order
    "id": (str,), "task_kind": (str,), "ground_truth": (str,), "prompt": (str,), "lang": (str,),
    "image_ref": (str, type(None)), "meta": (dict, _Meta),
}
_REQUIRED = ("id", "task_kind", "ground_truth")


class CorpusFormatError(ValueError):
    """A malformed record file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_NO_META: dict[str, str] = {}  # Sample's meta default; Sample stores a read-only copy
# A code point UTF-8 cannot hold; a pattern string, so re compiles it (once, into its
# cache) only when a process first checks a non-ASCII string.
_SURROGATE = "[\ud800-\udfff]"
# the encoder of record lines, built once: json.dumps with keywords builds one per call
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class Sample(Record):
    """One record; construction applies every check the record loader applies.

    ``meta`` is stored as a read-only copy of the map given: a change to it
    raises TypeError.
    """

    __slots__ = ("id", "task_kind", "ground_truth", "prompt", "lang", "image_ref", "meta")

    def __init__(
        self,
        id: str,
        task_kind: TaskKind | str,
        ground_truth: str,
        prompt: str = "",
        lang: str = "en",
        image_ref: str | None = None,
        meta: dict[str, str] = _NO_META,
    ):
        kind = task_kind.value if type(task_kind) is TaskKind else task_kind
        fields = (id, kind, ground_truth, prompt, lang, image_ref, meta)
        for value, kinds in zip(fields, _FIELDS.values()):
            if type(value) not in kinds:  # check_fields names the first field that is wrong
                check_fields(dict(zip(_FIELDS, fields)), _FIELDS, ())
        if not id:
            raise ValueError("sample id must be non-empty")
        task_kind = _TASK_KINDS.get(kind)
        if task_kind is None:
            task_kind = TaskKind(kind)  # raises, naming the value
        if not ground_truth:
            raise ValueError(f"sample {id!r}: ground_truth must be non-empty")
        if lang not in LANGS:
            raise ValueError(f"sample {id!r}: lang must be one of {LANGS}")
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError(f"sample {id!r}: meta must map strings to strings")
        for text in (id, ground_truth, prompt, image_ref or "", *meta, *meta.values()):
            if not text.isascii() and (found := re.search(_SURROGATE, text)):
                code = ord(found.group())
                raise ValueError(f"sample {id!r}: lone surrogate U+{code:04X} in a string")
        super().__init__(id, task_kind, ground_truth, prompt, lang, image_ref, _Meta(meta))


class Corpus(Record):
    __slots__ = ("samples",)

    def __init__(self, samples: tuple[Sample, ...] = ()):
        samples = tuple(samples)
        seen = set()
        for s in samples:
            if s.id in seen:
                raise ValueError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
        super().__init__(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def by_id(self) -> dict[str, Sample]:
        return {s.id: s for s in self.samples}


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per line, split on LF only (so U+2028 stays
    in its string); a byte that is not UTF-8, a blank line, bad JSON, a
    non-object or a lone surrogate is a CorpusFormatError.

    The file is read one line at a time, so only the line being read is held.
    """
    # binary, not text mode: universal newlines would turn a bare CR into a line break
    with open(path, "rb") as handle:
        for lineno, data in enumerate(handle, start=1):
            try:  # with its LF, as a decode of the whole file sees the line
                raw = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})"
                raise CorpusFormatError(lineno, message) from exc
            if raw[-1] == "\n":
                raw = raw[:-1]
            if not raw.strip():
                raise CorpusFormatError(lineno, "blank line")
            try:  # ValueError also covers an int past the digit limit
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                message = f"invalid JSON ({getattr(exc, 'msg', exc)})"
                raise CorpusFormatError(lineno, message) from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(lineno, "record is not an object")
            # only an escape decodes to a lone surrogate, which UTF-8 cannot hold
            if "\\u" in raw and (found := re.search(_SURROGATE, _ENCODER.encode(obj))):
                code = ord(found.group())
                raise CorpusFormatError(lineno, f"lone surrogate U+{code:04X} in a string")
            yield lineno, obj


def check_fields(obj: dict, kinds: dict[str, tuple[type, ...]], required: tuple[str, ...]) -> None:
    """Raise ValueError unless the required fields are present and every field
    of ``kinds`` that is present holds a value of its kind."""
    for name in required:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    for name, kind in kinds.items():
        if name in obj and type(obj[name]) not in kind:
            names = (_TYPE_NAMES[t] for t in kind if t in _TYPE_NAMES)
            raise ValueError(f"field {name!r} must be {' or '.join(names)}")


def load_records(path: str | Path) -> Corpus:
    """Read a record file, preserving file order; raises CorpusFormatError.

    Equal prompts, langs, meta keys and meta values share one string object.
    """
    samples: list[Sample] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}  # each such string read so far -> its first copy
    for lineno, obj in read_jsonl(path):
        try:
            if not obj.keys() <= _FIELDS.keys():
                unknown = obj.keys() - _FIELDS.keys()
                raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
            check_fields(obj, {}, _REQUIRED)
            _share(obj, shared)
            sample = Sample(**obj)  # record fields are Sample's fields; it checks their kinds
            if sample.id in seen:
                raise ValueError(f"duplicate sample id {sample.id!r}")
        except ValueError as exc:
            raise CorpusFormatError(lineno, str(exc)) from exc
        seen.add(sample.id)
        samples.append(sample)
    return Corpus(tuple(samples))


def _share(obj: dict, shared: dict[str, str]) -> None:
    """Put the first copy of each prompt, lang, meta key and meta string value in obj."""
    for name in ("prompt", "lang"):
        if type(value := obj.get(name)) is str:
            obj[name] = shared.setdefault(value, value)
    if type(meta := obj.get("meta")) is dict and meta:
        obj["meta"] = {
            shared.setdefault(k, k): shared.setdefault(v, v) if type(v) is str else v
            for k, v in meta.items()
        }


def record_line(sample: Sample) -> str:
    """Canonical single-line JSON for one sample (meta keys sorted)."""
    obj: dict[str, object] = {"id": sample.id, "task_kind": sample.task_kind.value}
    if sample.image_ref is not None:
        obj["image_ref"] = sample.image_ref
    obj["prompt"] = sample.prompt
    obj["ground_truth"] = sample.ground_truth
    obj["lang"] = sample.lang
    obj["meta"] = dict(sorted(sample.meta.items()))
    return _ENCODER.encode(obj)


def corpus_lines(corpus: Corpus) -> Iterator[str]:
    """The record file text, one LF-terminated line at a time (byte-stable)."""
    for s in corpus.samples:
        yield record_line(s) + "\n"


def dump_records(corpus: Corpus) -> str:
    """Serialize a corpus to the record file text (byte-stable)."""
    return "".join(corpus_lines(corpus))


def save_records(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(corpus_lines(corpus))


def pair_by_id(refs: Corpus, hyps: Corpus) -> list[tuple[Sample, Sample]]:
    """(reference, prediction) pairs matched by id, in sorted-id order.

    ``hyps`` must carry exactly one record per reference id; a reference
    without a prediction, or a prediction without a reference, is an error.
    """
    ref_by_id = refs.by_id()
    hyp_by_id = hyps.by_id()
    for sid in ref_by_id:
        if sid not in hyp_by_id:
            raise ValueError(f"missing prediction for id {sid!r}")
    for sid in hyp_by_id:
        if sid not in ref_by_id:
            raise ValueError(f"unexpected prediction id {sid!r}")
    return [(ref_by_id[sid], hyp_by_id[sid]) for sid in sorted(ref_by_id)]


def dedup_filter(test: Corpus, train: Corpus, threshold: float) -> Corpus:
    """Drop test samples too similar to any training ground truth.

    Similarity is 1 - normalized character-level edit distance; a test sample
    survives only if its maximum similarity over the training corpus is below
    the threshold. Each pair's distance is computed only up to the largest
    distance that still drops the sample, so the kernel can stop early, and
    a pair whose length gap already exceeds that distance is decided before
    any token is compared; the decision is the one the exact distance gives.
    """
    from .metrics import edit_distance_norm, tokenize  # only dedup needs the metrics

    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be within [0, 1]")

    @cache
    def limit(n: int) -> int:
        # The largest d in [0, n] with 1.0 - d / n < threshold false, found by
        # evaluating that predicate (monotone in d), so its rounding decides.
        return bisect_left(range(1, n + 1), True, key=lambda d: 1.0 - d / n < threshold)

    train_toks = [tokenize(s.ground_truth, "char") for s in train.samples]
    kept = []
    for sample in test.samples:
        toks = tokenize(sample.ground_truth, "char")
        m = len(toks.tokens)
        if all(1.0 - edit_distance_norm(t, toks, limit(max(len(t.tokens), m))) < threshold
               for t in train_toks):
            kept.append(sample)
    return Corpus(tuple(kept))


def mix_stages(previous: Corpus, new: Corpus, ratio: float, seed: int) -> Corpus:
    """Combine a new stage with a seeded sample of the previous stage.

    Output order is all of ``new`` followed by floor(ratio * len(previous))
    samples of ``previous``, drawn without replacement by taking the first k
    indices of a seeded Fisher-Yates shuffle.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be within [0, 1]")
    # epsilon guards against one-ulp-under products of decimal ratios (0.3 * 10)
    k = int(ratio * len(previous.samples) + 1e-9)
    indices = list(range(len(previous.samples)))
    random.Random(seed).shuffle(indices)
    carried = tuple(previous.samples[i] for i in indices[:k])
    return Corpus(new.samples + carried)


def __getattr__(name: str):
    # Delete with cli.score_corpus in the benchmark change (ROADMAP item 1):
    # perfbench/spans.py BOUNDARIES still reads corpus.tokenize and
    # corpus.edit_distance_norm, which this module no longer imports at load time.
    if name in ("tokenize", "edit_distance_norm"):
        from . import metrics

        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
