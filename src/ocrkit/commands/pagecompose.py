"""compose-pages and paste-layout."""

from __future__ import annotations

import json
import sys

from .. import pagecompose
from ..corpus import Corpus, Sample, TaskKind
from . import TEXT_KINDS, read_aux, save_corpus_atomic, write_text_atomic

MULTIPAGE_PROMPT = "OCR the pages in order:"


def cmd_compose_pages(args) -> int:
    def page(row: dict) -> pagecompose.PageSpec:
        image_ref = row.get("image_ref") or ""
        # the page_ids and page_image_refs metas join with commas, so one in a value is ambiguous
        for field, value in (("page_id", row["page_id"]), ("image_ref", image_ref)):
            if "," in value:
                raise ValueError(f"{field} {value!r} must not hold a comma")
        return pagecompose.PageSpec.from_text(row["page_id"], row["text"], image_ref)

    pool = read_aux(args.pool, {"page_id": (str,), **TEXT_KINDS}, ("page_id", "text"), page)
    samples = []
    for i in range(args.count):
        seed = args.seed + i
        sample = pagecompose.compose_multipage(pool, args.n, seed)
        meta = {
            "page_ids": ",".join(p.page_id for p in sample.pages),
            "page_separator": pagecompose.PAGE_SEPARATOR,
            "total_tokens": str(sample.total_tokens),
        }
        if any(p.image_ref for p in sample.pages):
            meta["page_image_refs"] = ",".join(p.image_ref for p in sample.pages)
        samples.append(
            Sample(
                id=f"multipage-{seed:08d}",
                task_kind=TaskKind.MULTI_PAGE,
                ground_truth=sample.joined_text,
                prompt=MULTIPAGE_PROMPT,
                meta=meta,
            )
        )
    save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} multi-page records to {args.out}")
    return 0


def cmd_paste_layout(args) -> int:
    layout = pagecompose.PasteLayout(args.canvas, tuple(args.slices), args.seed)
    obj = {
        "canvas": [layout.canvas.width, layout.canvas.height],
        "placements": [list(p) for p in layout.placements],
    }
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        write_text_atomic(args.out, (text,))
        print(f"wrote layout of {len(layout.slices)} slices to {args.out}")
    else:
        sys.stdout.write(text)
    return 0
