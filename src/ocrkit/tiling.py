"""Dynamic-resolution tile planning and page-stitch layout.

Oversized images are split into at most ``max_tiles`` window-sized tiles by
picking the grid whose column/row ratio best matches the image aspect ratio;
multi-page inputs are stitched edge to edge into one large canvas. Both plans
are pure geometry, given as plain int rows: a tile cell is ``(x, y, w, h)`` and
a stitch placement ``(index, x, y, w, h)``, the shape of a paste-up placement.
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


class TilePlan(Record):
    """The chosen grid; ``tile_rects`` are its cells as ``(x, y, w, h)`` rows."""

    __slots__ = ("grid_cols", "grid_rows", "include_thumbnail", "tile_rects")

    def __init__(
        self, grid_cols: int, grid_rows: int, include_thumbnail: bool, tile_rects: tuple[tuple, ...]
    ):
        super().__init__(grid_cols, grid_rows, include_thumbnail, tile_rects)


class StitchSpec(Record):
    """Two or more pages laid edge to edge, in order: horizontal runs left to
    right, top-aligned, and vertical runs top to bottom, left-aligned. The
    ``(index, x, y, w, h)`` placements and the canvas that just holds them are
    read from the pages."""

    __slots__ = ("orientation", "pages")

    def __init__(self, orientation: Orientation, pages: tuple[ImageDims, ...]):
        if len(pages) < 2:
            raise ValueError("stitching needs at least 2 pages")
        if orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {orientation!r}")
        super().__init__(orientation, pages)

    @property
    def placements(self) -> tuple[tuple[int, int, int, int, int], ...]:
        placements, offset = [], 0
        for i, page in enumerate(self.pages):
            if self.orientation == "horizontal":
                placements.append((i, offset, 0, page.width, page.height))
                offset += page.width
            else:
                placements.append((i, 0, offset, page.width, page.height))
                offset += page.height
        return tuple(placements)

    @property
    def canvas(self) -> ImageDims:
        widths = [p.width for p in self.pages]
        heights = [p.height for p in self.pages]
        if self.orientation == "horizontal":
            return ImageDims(sum(widths), max(heights))
        return ImageDims(max(widths), sum(heights))


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
        (xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
        for j in range(rows)
        for i in range(cols)
    )
    return TilePlan(cols, rows, thumbnail and cols * rows > 1, rects)

