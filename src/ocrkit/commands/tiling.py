"""tile-plan and stitch."""

from __future__ import annotations

import json

from .. import tiling
from . import write_text_atomic


def cmd_tile_plan(args) -> int:
    plan = tiling.plan_tiles(
        tiling.ImageDims(args.width, args.height), args.max_tiles, thumbnail=not args.no_thumbnail
    )
    suffix = " (+thumbnail)" if plan.include_thumbnail else ""
    print(f"{plan.grid_cols}x{plan.grid_rows}{suffix}")
    if args.json:
        obj = {
            "grid_cols": plan.grid_cols,
            "grid_rows": plan.grid_rows,
            "tile_px": tiling.TILE_PX,
            "include_thumbnail": plan.include_thumbnail,
            "tile_rects": [list(row) for row in plan.tile_rects],
        }
        write_text_atomic(args.json, (json.dumps(obj, indent=2), "\n"))
    return 0


def cmd_stitch(args) -> int:
    spec = tiling.StitchSpec(args.orientation, tuple(args.pages))
    print(f"{spec.canvas.width}x{spec.canvas.height}")
    for i, x, y, w, h in spec.placements:
        print(f"{i}: x={x} y={y} {w}x{h}")
    if args.json:
        obj = {
            "orientation": spec.orientation,
            "canvas": [spec.canvas.width, spec.canvas.height],
            "placements": [list(row) for row in spec.placements],
        }
        write_text_atomic(args.json, (json.dumps(obj, indent=2), "\n"))
    return 0
