"""validate-format."""

from __future__ import annotations

import sys
from pathlib import Path

from .. import validators
from . import decode


def cmd_validate_format(args) -> int:
    if args.file == "-":
        text = decode(sys.stdin.buffer.read(), "<stdin>")
    else:
        text = decode(Path(args.file).read_bytes(), args.file)
    report = validators.VALIDATORS[args.kind](text)
    for issue in report.issues:
        print(f"{issue.line}:{issue.column} {issue.code} {issue.message}")
    return 0 if report.ok else 1
