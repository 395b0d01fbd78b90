"""Handlers of the engine subcommands of ``ocrkit.cli``, one module per engine.

``ocrkit.commands.<engine>`` holds ``cmd_<subcommand>`` for each subcommand
that drives ``ocrkit.<engine>``; ``ocrkit.cli`` imports it only when one of
those subcommands runs. A handler calls its engine's functions through the
module (``charts.parse_chart_output``), so they are looked up at call time.
This package holds what every handler, ``ocrkit.cli``'s included, reads and
writes files with; no module imports ``ocrkit.cli``, so imports run one way.
Its helpers import ``ocrkit.corpus`` only when they read or write records,
so a handler that writes plain files, as tile-plan and stitch do, or that
only reads text, as validate-format does, does not load the record model.
"""

from __future__ import annotations

import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .. import corpus
    from ..charts import ApReport
    from ..metrics import MetricReport

# Field kinds (see corpus.check_fields) shared by the auxiliary JSONL inputs.
TEXT_KINDS = {"text": (str,), "image_ref": (str, type(None))}

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


def read_aux(path: str, kinds: dict, required: tuple, build: Callable) -> list:
    """build(obj) per line of an auxiliary JSONL file; required[0] is a unique id.
    An error from any line, build's included, reads ``<path>: line N: ...``."""
    from .. import corpus

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


def load(path: str) -> corpus.Corpus:
    """corpus.load_records, with the file named in its errors."""
    from .. import corpus

    try:
        return corpus.load_records(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_text_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenated text chunks to path as UTF-8, all or nothing.

    The chunks are written as they come, so the whole text is never built.
    If writing or making a chunk raises, path is left as it was.
    """
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
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(fd, mode)
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # name the file asked for, not the random temp file beside it
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def save_corpus_atomic(c: corpus.Corpus, path: str | Path) -> None:
    from .. import corpus

    write_text_atomic(path, corpus.corpus_lines(c))


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


def emit_report(report: MetricReport | ApReport, args) -> None:
    sys.stdout.write(render_report(report, args.style))
    if args.json:
        write_text_atomic(args.json, (json.dumps(report.as_dict(), indent=2, sort_keys=True), "\n"))
