"""Tile planning against a brute-force oracle, plus stitch layout rules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.tiling import ImageDims, Rect, StitchSpec, plan_tiles, stitch_pages


def oracle_grid(w, h, max_tiles=12):
    """Exhaustive argmin over all grids using exact Fraction arithmetic."""
    target = Fraction(w, h)
    best = None
    for cols in range(1, max_tiles + 1):
        for rows in range(1, max_tiles + 1):
            if cols * rows > max_tiles:
                continue
            key = (abs(target - Fraction(cols, rows)), cols * rows, cols)
            if best is None or key < best[0]:
                best = (key, (cols, rows))
    return best[1]


def _check_partition(plan, dims):
    assert len(plan.tile_rects) == plan.grid_cols * plan.grid_rows
    assert sum(r.w * r.h for r in plan.tile_rects) == dims.width * dims.height
    xs = sorted({r.x for r in plan.tile_rects} | {r.x + r.w for r in plan.tile_rects})
    ys = sorted({r.y for r in plan.tile_rects} | {r.y + r.h for r in plan.tile_rects})
    assert xs[0] == 0 and xs[-1] == dims.width
    assert ys[0] == 0 and ys[-1] == dims.height
    covered = set()
    for r in plan.tile_rects:
        key = (r.x, r.y)
        assert key not in covered
        covered.add(key)


def test_square_is_single_tile():
    plan = plan_tiles(ImageDims(1024, 1024))
    assert (plan.grid_cols, plan.grid_rows) == (1, 1)
    assert not plan.include_thumbnail
    assert plan.tile_rects == plan.tile_rects[:1]


def test_wide_image_two_columns():
    plan = plan_tiles(ImageDims(2048, 1024))
    assert (plan.grid_cols, plan.grid_rows) == (2, 1)
    assert plan.include_thumbnail
    assert oracle_grid(2048, 1024) == (2, 1)


def test_tall_image_four_rows():
    plan = plan_tiles(ImageDims(1000, 4000))
    assert (plan.grid_cols, plan.grid_rows) == (1, 4)
    assert oracle_grid(1000, 4000) == (1, 4)


def test_thumbnail_can_be_disabled():
    plan = plan_tiles(ImageDims(2048, 1024), thumbnail=False)
    assert not plan.include_thumbnail


def test_max_tiles_respected():
    for max_tiles in (1, 2, 5, 12):
        plan = plan_tiles(ImageDims(9000, 700), max_tiles)
        assert plan.grid_cols * plan.grid_rows <= max_tiles


def test_invalid_inputs():
    with pytest.raises(ValueError):
        plan_tiles(ImageDims(5, 5), 0)


@pytest.mark.parametrize(
    "width, height, message",
    [
        (0, 5, "image dims must be positive, got 0x5"),
        (5, -3, "image dims must be positive, got 5x-3"),
        (100.5, 50, "image dims must be integers, got 100.5x50"),
        (100, 50.0, "image dims must be integers, got 100x50.0"),
        (True, 2, "image dims must be integers, got Truex2"),
        ("5", 5, "image dims must be integers, got '5'x5"),
        (-1.5, 0, "image dims must be integers, got -1.5x0"),
    ],
    ids=["zero", "negative", "float-width", "float-height", "bool", "str", "float-not-positive"],
)
def test_image_dims_constructor_errors(width, height, message):
    with pytest.raises(ValueError) as exc:
        ImageDims(width, height)
    assert str(exc.value) == message


def test_plan_matches_oracle_randomized():
    rng = random.Random(42)
    for _ in range(800):
        dims = ImageDims(rng.randint(1, 8192), rng.randint(1, 8192))
        plan = plan_tiles(dims)
        assert (plan.grid_cols, plan.grid_rows) == oracle_grid(dims.width, dims.height)
        _check_partition(plan, dims)


@pytest.mark.parametrize("max_tiles", [1, 2, 3, 4, 6, 9])
def test_plan_matches_oracle_below_the_default_cap(max_tiles):
    rng = random.Random(max_tiles)
    for _ in range(200):
        dims = ImageDims(rng.randint(1, 8192), rng.randint(1, 8192))
        plan = plan_tiles(dims, max_tiles)
        assert (plan.grid_cols, plan.grid_rows) == oracle_grid(dims.width, dims.height, max_tiles)
        _check_partition(plan, dims)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_plan_matches_oracle_property(width, height, max_tiles):
    dims = ImageDims(width, height)
    plan = plan_tiles(dims, max_tiles)
    assert (plan.grid_cols, plan.grid_rows) == oracle_grid(width, height, max_tiles)
    _check_partition(plan, dims)


def test_equal_distance_prefers_fewer_tiles():
    # 1500/1000 is 1/2 from both 1x1 and 2x1
    plan = plan_tiles(ImageDims(1500, 1000), 2)
    assert (plan.grid_cols, plan.grid_rows) == (1, 1) == oracle_grid(1500, 1000, 2)
    assert not plan.include_thumbnail


def test_cut_at_a_half_pixel_rounds_up():
    plan = plan_tiles(ImageDims(1025, 512))
    assert plan.as_dict() == {
        "grid_cols": 2, "grid_rows": 1, "include_thumbnail": True,
        "tile_rects": (Rect(0, 0, 513, 512), Rect(513, 0, 512, 512)),
    }


def test_max_tiles_below_one_message():
    for max_tiles in (0, -1):
        with pytest.raises(ValueError) as exc:
            plan_tiles(ImageDims(5, 5), max_tiles)
        assert str(exc.value) == "max_tiles must be >= 1"


def test_rect_positions_cover_grid():
    dims = ImageDims(2500, 1100)
    plan = plan_tiles(dims)
    _check_partition(plan, dims)
    first = plan.tile_rects[0]
    assert (first.x, first.y) == (0, 0)


def test_stitch_horizontal_example():
    spec = stitch_pages([ImageDims(800, 1100), ImageDims(800, 1100)], "horizontal")
    assert spec.canvas == ImageDims(1600, 1100)
    assert [(p.x, p.y) for p in spec.placements] == [(0, 0), (800, 0)]


def test_stitch_vertical_example():
    spec = stitch_pages([ImageDims(800, 1100), ImageDims(800, 1100)], "vertical")
    assert spec.canvas == ImageDims(800, 2200)
    assert [(p.x, p.y) for p in spec.placements] == [(0, 0), (0, 1100)]


def test_stitch_unequal_heights_top_aligned():
    spec = stitch_pages([ImageDims(500, 700), ImageDims(600, 1100)], "horizontal")
    assert spec.canvas == ImageDims(1100, 1100)
    assert all(p.y == 0 for p in spec.placements)


def test_stitch_requires_two_pages():
    with pytest.raises(ValueError):
        stitch_pages([ImageDims(10, 10)], "horizontal")
    with pytest.raises(ValueError):
        stitch_pages([ImageDims(10, 10)] * 2, "diagonal")


def test_stitch_fewer_than_two_pages_message():
    for pages in ([], [ImageDims(10, 10)]):
        with pytest.raises(ValueError) as exc:
            stitch_pages(pages, "vertical")
        assert str(exc.value) == "stitching needs at least 2 pages"


def test_stitch_placements_recover_dims_and_disjoint():
    rng = random.Random(5)
    pages = [ImageDims(rng.randint(100, 900), rng.randint(100, 1200)) for _ in range(5)]
    for orientation in ("horizontal", "vertical"):
        spec = stitch_pages(pages, orientation)
        assert [p.dims for p in spec.placements] == pages
        spans = []
        for p in spec.placements:
            assert p.x + p.dims.width <= spec.canvas.width
            assert p.y + p.dims.height <= spec.canvas.height
            span = (p.x, p.x + p.dims.width) if orientation == "horizontal" else (p.y, p.y + p.dims.height)
            spans.append(span)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


def test_stitch_spec_refuses_an_unknown_orientation():
    for make in (lambda: StitchSpec("diagonal", ImageDims(2, 3), ()),
                 lambda: stitch_pages([ImageDims(10, 10)] * 2, "diagonal")):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == "unknown orientation 'diagonal'"
