"""make-finegrained."""

from __future__ import annotations

import random

from .. import finegrained
from ..corpus import Corpus, Sample, TaskKind
from ..tiling import ImageDims
from . import TEXT_KINDS, read_aux, save_corpus_atomic


def cmd_make_finegrained(args) -> int:
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
            prompt = finegrained.BOX_PROMPT_TEMPLATE.format(box=nbox.prompt_text())
            meta["norm_box"] = nbox.prompt_text()
            meta["crop_rect"] = f"{crop.x1},{crop.y1},{crop.x2},{crop.y2}"
            kind = TaskKind.FINE_GRAINED_BOX
        else:
            color = rng.choice(sorted(finegrained.COLOR_RGB))
            frame = finegrained.ColorPrompt(color, args.thickness)
            prompt = finegrained.COLOR_PROMPT_TEMPLATE.format(color=frame.color)
            meta["frame_color"] = color
            meta["frame_rgb"] = ",".join(str(v) for v in frame.rgb)
            meta["frame_thickness"] = str(frame.frame_thickness)
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

    kinds = {"id": (str,), "width": (int,), "height": (int,), "lang": (str,), **TEXT_KINDS}
    samples = read_aux(args.input, kinds, ("id", "width", "height", "box", "text"), build)
    save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} {args.mode}-guided records to {args.out}")
    return 0
