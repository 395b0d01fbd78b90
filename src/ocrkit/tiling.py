"""Dynamic-resolution tile planning and page-stitch layout.

Oversized images are split into at most ``max_tiles`` window-sized tiles by
picking the grid whose column/row ratio best matches the image aspect ratio;
multi-page inputs are stitched edge to edge into one large canvas. Both plans
are pure geometry.
"""

from __future__ import annotations

from typing import Literal

from ._record import Record

TILE_PX = 1024

Orientation = Literal["horizontal", "vertical"]


class ImageDims(Record):
    __slots__ = ("width", "height")

    def __init__(self, width: int, height: int):
        if type(width) is not int or type(height) is not int:
            raise ValueError(f"image dims must be integers, got {width!r}x{height!r}")
        if width < 1 or height < 1:
            raise ValueError(f"image dims must be positive, got {width}x{height}")
        super().__init__(width, height)


class Rect(Record):
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: int, y: int, w: int, h: int):
        super().__init__(x, y, w, h)


class TilePlan(Record):
    __slots__ = ("grid_cols", "grid_rows", "include_thumbnail", "tile_rects")

    def __init__(
        self, grid_cols: int, grid_rows: int, include_thumbnail: bool, tile_rects: tuple[Rect, ...]
    ):
        super().__init__(grid_cols, grid_rows, include_thumbnail, tile_rects)


class Placement(Record):
    __slots__ = ("page_index", "x", "y", "dims")

    def __init__(self, page_index: int, x: int, y: int, dims: ImageDims):
        super().__init__(page_index, x, y, dims)


class StitchSpec(Record):
    __slots__ = ("orientation", "canvas", "placements")

    def __init__(
        self, orientation: Orientation, canvas: ImageDims, placements: tuple[Placement, ...]
    ):
        if orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {orientation!r}")
        super().__init__(orientation, canvas, placements)


def _cuts(total: int, parts: int) -> list[int]:
    # round-half-up of the ideal fractional cut i*total/parts, exactly in integers
    return [(2 * i * total + parts) // (2 * parts) for i in range(parts + 1)]


def plan_tiles(dims: ImageDims, max_tiles: int = 12, thumbnail: bool = True) -> TilePlan:
    """Pick the grid (cols, rows) with cols*rows <= max_tiles closest in ratio
    to the image; ties prefer fewer tiles, then fewer columns.

    Comparisons of |w/h - c/r| use exact integer cross-multiplication. Tile
    rectangles are the equal grid cells with round-half-up integer boundaries,
    so they partition the image exactly. A thumbnail accompanies every
    multi-tile plan unless disabled.
    """
    if max_tiles < 1:
        raise ValueError("max_tiles must be >= 1")
    w, h = dims.width, dims.height
    best: tuple[int, int] | None = None
    best_num = best_den = 0
    for cols in range(1, max_tiles + 1):
        for rows in range(1, max_tiles // cols + 1):
            num = abs(w * rows - cols * h)  # |w/h - c/r| == num / (h * rows)
            den = h * rows
            if best is None:
                better = True
            else:
                lhs = num * best_den
                rhs = best_num * den
                better = lhs < rhs or (
                    lhs == rhs and (cols * rows, cols) < (best[0] * best[1], best[0])
                )
            if better:
                best = (cols, rows)
                best_num, best_den = num, den
    cols, rows = best
    xs = _cuts(w, cols)
    ys = _cuts(h, rows)
    rects = tuple(
        Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
        for j in range(rows)
        for i in range(cols)
    )
    return TilePlan(cols, rows, thumbnail and cols * rows > 1, rects)


def stitch_pages(pages: list[ImageDims], orientation: Orientation) -> StitchSpec:
    """Lay pages out edge to edge; horizontal is left-to-right top-aligned,
    vertical is top-to-bottom left-aligned."""
    if len(pages) < 2:
        raise ValueError("stitching needs at least 2 pages")
    placements = []
    offset = 0
    if orientation == "horizontal":
        for i, page in enumerate(pages):
            placements.append(Placement(i, offset, 0, page))
            offset += page.width
        canvas = ImageDims(offset, max(p.height for p in pages))
    else:
        for i, page in enumerate(pages):
            placements.append(Placement(i, 0, offset, page))
            offset += page.height
        canvas = ImageDims(max(p.width for p in pages), offset)
    return StitchSpec(orientation, canvas, tuple(placements))
