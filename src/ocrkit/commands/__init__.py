"""Handlers of the engine subcommands of ``ocrkit.cli``, one module per engine.

``ocrkit.commands.<engine>`` holds ``cmd_<subcommand>`` for each subcommand
that drives ``ocrkit.<engine>``; ``ocrkit.cli`` imports it only when one of
those subcommands runs. A handler calls its engine's functions through the
module (``charts.parse_chart_output``), so they are looked up at call time.
This package holds what more than one of them reads their input with.
"""

from __future__ import annotations

from typing import Callable

from .. import corpus

# Field kinds (see corpus.check_fields) shared by the auxiliary JSONL inputs.
TEXT_KINDS = {"text": (str,), "image_ref": (str, type(None))}


def read_aux(path: str, kinds: dict, required: tuple, build: Callable) -> list:
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


def decode(data: bytes, source: str) -> str:
    """data as strict UTF-8; a bad byte reads ``<source>: ...``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from exc
