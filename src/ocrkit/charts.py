"""Chart-OCR structured outputs: parsing, AP scoring and synthesis.

A chart is a title/source/axis-title header plus named series of labeled
numeric points. Two interchangeable text forms are supported: a Python-dict
literal subset (single or double quotes, trailing commas allowed, nothing
else) and a markdown pipe table whose first column holds labels, optionally
preceded by ``key: value`` metadata lines. Scoring matches (series, label,
value) triples at relative-error tolerances 0 / 0.05 / 0.10 for
AP@strict/slight/high.
"""

from __future__ import annotations

import math
import random
import re
from typing import Callable, Iterable

from ._record import Record
from ._scan import Scanner, TextParseError, split_row

AP_TOLERANCES = {"strict": 0.0, "slight": 0.05, "high": 0.10}
AP_VALUE_FLOOR = 1e-9

_META_KEYS = ("title", "source", "x_title", "y_title")


class ChartParseError(TextParseError):
    """Chart text rejected; carries 1-based line and column."""


def _not_finite(name: str, label: str) -> str:
    return f"series {name!r}: value for {label!r} not finite"


class Series(Record):
    __slots__ = ("name", "points")

    def __init__(self, name: str, points: tuple[tuple[str, float], ...]):
        # both readers strip names and labels, so edge whitespace could not round-trip
        if name != name.strip():
            raise ValueError(f"series {name!r}: name has edge whitespace")
        seen = set()
        for label, value in points:
            if label != label.strip():
                raise ValueError(f"series {name!r}: label {label!r} has edge whitespace")
            if label in seen:
                raise ValueError(f"series {name!r}: duplicate label {label!r}")
            seen.add(label)
            if not math.isfinite(value):
                raise ValueError(_not_finite(name, label))
        super().__init__(name, points)


class ChartStruct(Record):
    __slots__ = ("series", "title", "source", "x_title", "y_title")

    def __init__(
        self,
        series: tuple[Series, ...] = (),
        title: str | None = None,
        source: str | None = None,
        x_title: str | None = None,
        y_title: str | None = None,
    ):
        seen = set()
        for s in series:
            if s.name in seen:
                raise ValueError(f"duplicate series name {s.name!r}")
            seen.add(s.name)
        super().__init__(series, title, source, x_title, y_title)

    def items(self) -> list[tuple[str, str, float]]:
        """All (series, label, value) triples."""
        return [(s.name, label, value) for s in self.series for label, value in s.points]


class ApReport(Record):
    __slots__ = ("ap_strict", "ap_slight", "ap_high", "n_samples")

    def __init__(self, ap_strict: float, ap_slight: float, ap_high: float, n_samples: int):
        if not ap_strict <= ap_slight <= ap_high:
            raise ValueError("AP values must be non-decreasing with tolerance")
        super().__init__(ap_strict, ap_slight, ap_high, n_samples)


# ASCII digits only: Python's literals read no other digits (re's \d matches every Nd)
_NUMBER_RE = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_CLASS = "[" + re.escape("".join(_ESCAPES)) + "]"
# a string body: any character but its quote, a backslash, a line break or a NUL
# (which Python's literals refuse too) or a lone surrogate (which UTF-8 cannot
# encode), or a supported escape
_NOT_RAW = r"\\\r\n\0\ud800-\udfff"
_STRING_BODY_RE = {
    quote: re.compile(rf"[^{quote}{_NOT_RAW}]*(?:\\{_ESCAPE_CLASS}[^{quote}{_NOT_RAW}]*)*")
    for quote in "'\""
}
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_ESCAPE_RE = re.compile(rf"\\({_ESCAPE_CLASS})")


class _DictScanner(Scanner):
    """Tokenizer/parser for the dict-literal subset with position tracking."""

    whitespace = " \t\r\n"
    error_class = ChartParseError

    def string(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):  # a tuple: "" at the end of the text is no quote
            raise self.error("expected a quoted string")
        end = _STRING_BODY_RE[quote].match(self.text, self.pos + 1).end()
        stop = self.text[end : end + 2]
        if stop[:1] == quote:
            body = self.text[self.pos + 1 : end]
            self.pos = end + 1
            return _ESCAPE_RE.sub(lambda m: _ESCAPES[m[1]], body) if "\\" in body else body
        if stop[:1] in ("\r", "\n"):
            raise self.error("line break in a string", end)
        if stop[:1] == "\0":
            raise self.error("NUL in a string", end)
        if _SURROGATE_RE.match(stop):
            raise self.error(f"lone surrogate U+{ord(stop[0]):04X} in a string", end)
        if len(stop) == 2:  # a backslash whose escape the body did not take
            raise self.error(f"unsupported escape \\{stop[1]}", end)
        raise self.error("unterminated string", len(self.text))

    def number(self, name: str, label: str) -> float:
        text, start = self.token(_NUMBER_RE, "a number")
        # as in Python, an integer other than zero may not start with 0 (01.5 may)
        if (text[0] == "0" or text[:2] == "-0") and text.lstrip("-0").isdigit():
            raise self.error(f"leading zero in the integer {text}", start)
        if not math.isfinite(value := float(text)):
            raise self.error(_not_finite(name, label), start)
        return value

    def read_map(
        self, what: str, value: Callable[[str, int], object], strip: bool = True
    ) -> dict[str, object]:
        """Read ``{ "key": value, ... }`` (trailing comma allowed) into an ordered dict.

        ``value(key, key_pos)`` reads each value after its ``:``; a repeated
        key is reported at its position before the ``:`` is looked for.
        """
        out: dict[str, object] = {}
        self.expect("{")
        while self.peek() != "}":
            key_pos = self.pos
            key = self.string()
            if strip:
                key = key.strip()
            if key in out:
                raise self.error(f"duplicate {what} {key!r}", key_pos)
            self.expect(":")
            out[key] = value(key, key_pos)
            if self.peek() == ",":
                self.pos += 1
            elif self.peek() != "}":
                raise self.error("expected ',' or '}'")
        self.pos += 1
        return out


def _parse_dict_form(text: str) -> ChartStruct:
    scanner = _DictScanner(text)

    def points(name: str, pos: int) -> Series:
        values = scanner.read_map("label", lambda label, pos: scanner.number(name, label))
        return Series(name, tuple(values.items()))

    def field(key: str, pos: int) -> str | tuple[Series, ...]:
        if key == "values":
            return tuple(scanner.read_map("series name", points).values())
        if key in _META_KEYS:
            return scanner.string()
        raise scanner.error(f"unknown key {key!r}", pos)

    meta = scanner.read_map("key", field, strip=False)
    if scanner.peek():
        raise scanner.error("unexpected text after the closing '}'")
    if "values" not in meta:
        raise scanner.error("missing 'values' map", 0)
    return ChartStruct(series=meta.pop("values"), **meta)


_SEPARATOR_CELL_RE = re.compile(r"^:?-+:?$")


def _has_surrogate(text: str) -> bool:
    return not text.isascii() and _SURROGATE_RE.search(text) is not None


def _refuse_surrogate(line: str, idx: int) -> None:
    # as in the dict form: UTF-8 cannot encode a lone surrogate, so no record file holds one
    if not line.isascii() and (m := _SURROGATE_RE.search(line)):
        raise ChartParseError(idx + 1, 1, f"lone surrogate U+{ord(m[0]):04X}")


def _parse_table_form(text: str) -> ChartStruct:
    meta: dict[str, str] = {}
    lines = text.split("\n")
    table_start = None
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        _refuse_surrogate(stripped, idx)
        if stripped.startswith("|"):
            table_start = idx
            break
        key, sep, value = stripped.partition(":")
        norm = key.strip().lower().replace("-", "_")
        if not sep or norm not in _META_KEYS:
            raise ChartParseError(idx + 1, 1, f"expected metadata or a table row, got {stripped!r}")
        if norm in meta:
            raise ChartParseError(idx + 1, 1, f"duplicate metadata key {norm!r}")
        meta[norm] = value.strip()
    if table_start is None:
        raise ChartParseError(len(lines), 1, "no table found")
    header = split_row(lines[table_start].strip())
    if len(header) < 2:
        raise ChartParseError(table_start + 1, 1, "table header needs a label column and series")
    names = header[1:]
    if len(set(names)) != len(names):
        raise ChartParseError(table_start + 1, 1, "duplicate series name in header")
    columns: list[list[tuple[str, float]]] = [[] for _ in names]
    labels: set[str] = set()
    for idx in range(table_start + 1, len(lines)):
        stripped = lines[idx].strip()
        if not stripped:
            continue
        _refuse_surrogate(stripped, idx)
        if not stripped.startswith("|"):
            raise ChartParseError(idx + 1, 1, f"unexpected text after the table: {stripped!r}")
        cells = split_row(stripped)
        if all(_SEPARATOR_CELL_RE.match(c) for c in cells):
            continue
        if len(cells) != len(header):
            raise ChartParseError(
                idx + 1, 1, f"row has {len(cells)} cells, header has {len(header)}"
            )
        label = cells[0]
        if label in labels:
            raise ChartParseError(idx + 1, 1, f"duplicate label {label!r}")
        labels.add(label)
        for col, cell in enumerate(cells[1:]):
            if not _NUMBER_RE.fullmatch(cell):
                raise ChartParseError(idx + 1, 1, f"non-numeric value cell {cell!r}")
            if not math.isfinite(value := float(cell)):
                raise ChartParseError(idx + 1, 1, _not_finite(names[col], label))
            columns[col].append((label, value))
    return ChartStruct(
        series=tuple(Series(name, tuple(col)) for name, col in zip(names, columns)), **meta
    )


def parse_chart_output(text: str) -> ChartStruct:
    """Parse either documented chart form into a canonical ChartStruct."""
    parse = _parse_dict_form if text.lstrip().startswith("{") else _parse_table_form
    return parse(text)


def format_number(value: float) -> str:
    """Shortest decimal text that parses back to the same float."""
    return repr(value)


def serialize_chart_struct(struct: ChartStruct, form: str = "dict") -> str:
    """Canonical text for a ChartStruct; parse_chart_output inverts it."""
    if form == "dict":
        parts = []
        for key in _META_KEYS:
            value = getattr(struct, key)
            if value is not None:
                parts.append(f'"{key}": "{_escape(value)}"')
        values = ", ".join(
            f'"{_escape(s.name)}": {{'
            + ", ".join(f'"{_escape(label)}": {format_number(v)}' for label, v in s.points)
            + "}"
            for s in struct.series
        )
        parts.append(f'"values": {{{values}}}')
        return "{" + ", ".join(parts) + "}"
    if form == "table":
        label_lists = [tuple(label for label, _ in s.points) for s in struct.series]
        if not label_lists:
            raise ValueError("table form needs at least one series")
        if any(ll != label_lists[0] for ll in label_lists):
            raise ValueError("table form requires identical labels across series")
        for name in [s.name for s in struct.series] + list(label_lists[0]):
            if "|" in name or "\n" in name or _has_surrogate(name):
                raise ValueError(f"table form cannot hold {name!r}")
        lines = []
        for key in _META_KEYS:
            value = getattr(struct, key)
            if value is not None:
                # the parser strips metadata values, so edge whitespace cannot survive
                if (
                    "\n" in value
                    or value.startswith("|")
                    or value != value.strip()
                    or _has_surrogate(value)
                ):
                    raise ValueError(f"table form cannot hold {key}={value!r}")
                lines.append(f"{key}: {value}")
        header = ["label"] + [s.name for s in struct.series]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row_idx, label in enumerate(label_lists[0]):
            cells = [label] + [format_number(s.points[row_idx][1]) for s in struct.series]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown form {form!r}")


def _escape(text: str) -> str:
    # the subset, like Python's literals, has no way to write a NUL or a lone surrogate
    if "\0" in text or _has_surrogate(text):
        raise ValueError(f"dict form cannot hold {text!r}")
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return text.replace("\r", "\\r").replace("\n", "\\n")  # the reader refuses raw line breaks


def _pair_scores(gt: ChartStruct, pred: ChartStruct, tolerances: tuple[float, ...]) -> list[float]:
    """The pair's score at each tolerance, by chart_ap's rule."""
    gt_items = {(name, label): value for name, label, value in gt.items()}
    pred_items = pred.items()
    if not gt_items and not pred_items:
        return [1.0] * len(tolerances)
    matches = [0] * len(tolerances)
    for name, label, value in pred_items:
        key = (name, label)
        if key in gt_items:
            gt_value = gt_items[key]
            error, scale = abs(value - gt_value), max(abs(gt_value), AP_VALUE_FLOOR)
            for i, tolerance in enumerate(tolerances):
                if error <= tolerance * scale:
                    matches[i] += 1
    size = max(len(pred_items), len(gt_items))
    return [count / size for count in matches]


def _mean_ap(
    pairs: Iterable[tuple[ChartStruct, ChartStruct]], tolerances: tuple[float, ...]
) -> tuple[list[float], int]:
    """Each tolerance's mean pair score, summed in pair order, and the pair count.

    One pass: no pair is kept once it is scored.
    """
    totals = [0.0] * len(tolerances)
    n_pairs = 0
    for gt, pred in pairs:
        n_pairs += 1
        for i, score in enumerate(_pair_scores(gt, pred, tolerances)):
            totals[i] += score
    return [total / n_pairs if n_pairs else 0.0 for total in totals], n_pairs


def chart_ap(pairs: Iterable[tuple[ChartStruct, ChartStruct]], tolerance: float) -> float:
    """Mean per-sample match rate of (series, label, value) triples over
    (ground truth, prediction) pairs.

    A prediction matches the ground-truth item with the same series and label
    when |v_p - v_g| <= tolerance * max(|v_g|, 1e-9); (series, label) keys are
    unique within a chart, so each item matches at most once. Each sample
    scores matches / max(#pred, #gt), and 1.0 when both sides are empty; an
    empty iterable of pairs scores 0.0.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    return _mean_ap(pairs, (tolerance,))[0][0]


def ap_report(pairs: Iterable[tuple[ChartStruct, ChartStruct]]) -> ApReport:
    """chart_ap of (ground truth, prediction) pairs at each of AP_TOLERANCES, in one
    pass that holds one pair at a time."""
    aps, n_samples = _mean_ap(pairs, tuple(AP_TOLERANCES.values()))
    return ApReport(**{f"ap_{name}": ap for name, ap in zip(AP_TOLERANCES, aps)},
                    n_samples=n_samples)


DEFAULT_TEXT_POOL = (
    "revenue", "growth", "index", "volume", "share", "output", "exports",
    "imports", "traffic", "energy", "rainfall", "humidity", "pressure",
    "north", "south", "east", "west", "quarter", "region", "sector",
    "alpha", "beta", "gamma", "delta", "survey", "census", "forecast",
    "baseline", "observed", "expected", "annual", "monthly", "weekly",
)


N_SERIES = (1, 3)
N_POINTS = (2, 6)
CHART_KINDS = ("bar", "line")


class ChartGenConfig(Record):
    __slots__ = ("value_range", "decimals", "text_pool")

    def __init__(
        self,
        value_range: tuple[float, float] = (0.0, 1000.0),
        decimals: int = 2,
        text_pool: tuple[str, ...] = DEFAULT_TEXT_POOL,
    ):
        if not text_pool:
            raise ValueError("text_pool must be non-empty")
        if not all(math.isfinite(bound) for bound in value_range):
            raise ValueError(f"value_range bounds must be finite, got {value_range}")
        if value_range[0] > value_range[1]:
            raise ValueError(f"bad value_range {value_range}")
        if not math.isfinite(value_range[1] - value_range[0]):
            raise ValueError(f"value_range width must be finite, got {value_range}")
        if decimals < 0:
            raise ValueError("decimals must be >= 0")
        for word in text_pool:
            if "|" in word or "\n" in word or not word or word != word.strip():
                raise ValueError(f"pool text {word!r} not usable in every chart form")
        super().__init__(value_range, decimals, text_pool)


RENDER_SPEC_VERSION = "chartspec v1"


def _distinct_names(rng: random.Random, pool: tuple[str, ...], count: int) -> list[str]:
    names: list[str] = []
    seen = set()
    for _ in range(count):
        base = rng.choice(pool)
        name = base
        suffix = 2
        while name in seen:
            name = f"{base} {suffix}"
            suffix += 1
        seen.add(name)
        names.append(name)
    return names


def gen_chart_struct(
    seed: int, config: ChartGenConfig = ChartGenConfig()
) -> tuple[ChartStruct, str]:
    """Deterministic chart ground truth plus its plotting instruction text.

    Labels are shared across series (one x axis), values drawn uniformly in
    the configured range and rounded to the configured decimals. The render
    spec is the documented line-based ``chartspec v1`` format for external
    plotting tools.
    """
    rng = random.Random(seed)
    kind = rng.choice(CHART_KINDS)
    title, source, x_title, y_title = (rng.choice(config.text_pool) for _ in range(4))
    n_series = rng.randint(*N_SERIES)
    n_points = rng.randint(*N_POINTS)
    names = _distinct_names(rng, config.text_pool, n_series)
    labels = _distinct_names(rng, config.text_pool, n_points)
    lo, hi = config.value_range
    series = tuple(
        Series(
            name,
            tuple((label, round(rng.uniform(lo, hi), config.decimals)) for label in labels),
        )
        for name in names
    )
    struct = ChartStruct(
        series=series, title=title, source=source, x_title=x_title, y_title=y_title
    )
    spec_lines = [
        RENDER_SPEC_VERSION,
        f"kind: {kind}",
        f"title: {title}",
        f"source: {source}",
        f"x_title: {x_title}",
        f"y_title: {y_title}",
        "labels: " + " | ".join(labels),
    ]
    for s in series:
        spec_lines.append(
            f"series: {s.name} | " + " | ".join(format_number(v) for _, v in s.points)
        )
    return struct, "\n".join(spec_lines) + "\n"
