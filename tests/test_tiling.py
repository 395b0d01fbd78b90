"""Tile planning against a brute-force oracle, plus stitch layout rules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.tiling import ImageDims, StitchSpec, plan_tiles


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
    assert sum(w * h for _, _, w, h in plan.tile_rects) == dims.width * dims.height
    xs = sorted({x for x, _, _, _ in plan.tile_rects} | {x + w for x, _, w, _ in plan.tile_rects})
    ys = sorted({y for _, y, _, _ in plan.tile_rects} | {y + h for _, y, _, h in plan.tile_rects})
    assert xs[0] == 0 and xs[-1] == dims.width
    assert ys[0] == 0 and ys[-1] == dims.height
    covered = set()
    for x, y, _, _ in plan.tile_rects:
        key = (x, y)
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
        "tile_rects": ((0, 0, 513, 512), (513, 0, 512, 512)),
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
    assert plan.tile_rects[0][:2] == (0, 0)


def test_stitch_horizontal_example():
    spec = StitchSpec("horizontal", (ImageDims(800, 1100), ImageDims(800, 1100)))
    assert spec.canvas == ImageDims(1600, 1100)
    assert [(x, y) for _, x, y, _, _ in spec.placements] == [(0, 0), (800, 0)]


def test_stitch_vertical_example():
    spec = StitchSpec("vertical", (ImageDims(800, 1100), ImageDims(800, 1100)))
    assert spec.canvas == ImageDims(800, 2200)
    assert [(x, y) for _, x, y, _, _ in spec.placements] == [(0, 0), (0, 1100)]


def test_stitch_unequal_heights_top_aligned():
    spec = StitchSpec("horizontal", (ImageDims(500, 700), ImageDims(600, 1100)))
    assert spec.canvas == ImageDims(1100, 1100)
    assert all(y == 0 for _, _, y, _, _ in spec.placements)


def test_stitch_requires_two_pages():
    with pytest.raises(ValueError):
        StitchSpec("horizontal", (ImageDims(10, 10),))
    with pytest.raises(ValueError):
        StitchSpec("diagonal", (ImageDims(10, 10),) * 2)


def test_stitch_fewer_than_two_pages_message():
    # the page count is checked first, so any orientation gets this message
    for orientation in ("vertical", "diagonal"):
        for pages in ((), (ImageDims(10, 10),)):
            with pytest.raises(ValueError) as exc:
                StitchSpec(orientation, pages)
            assert str(exc.value) == "stitching needs at least 2 pages"


def test_stitch_placements_recover_dims_and_disjoint():
    rng = random.Random(5)
    pages = tuple(ImageDims(rng.randint(100, 900), rng.randint(100, 1200)) for _ in range(5))
    for orientation in ("horizontal", "vertical"):
        spec = StitchSpec(orientation, pages)
        assert tuple(ImageDims(w, h) for _, _, _, w, h in spec.placements) == pages
        spans = []
        for _, x, y, w, h in spec.placements:
            assert x + w <= spec.canvas.width
            assert y + h <= spec.canvas.height
            spans.append((x, x + w) if orientation == "horizontal" else (y, y + h))
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


_PAGE_DIMS = st.builds(ImageDims, st.integers(1, 5000), st.integers(1, 5000))


@given(st.lists(_PAGE_DIMS, min_size=2, max_size=8), st.sampled_from(["horizontal", "vertical"]))
@settings(max_examples=200, deadline=None)
def test_stitch_placements_tile_the_canvas(pages, orientation):
    spec = StitchSpec(orientation, tuple(pages))
    placements = spec.placements
    assert [i for i, _, _, _, _ in placements] == list(range(len(pages)))
    assert [ImageDims(w, h) for _, _, _, w, h in placements] == pages
    # along the run each page starts where the last one ended and the run fills the
    # canvas; across it every page starts at 0 and the largest fills the canvas
    if orientation == "horizontal":
        along = [(x, w) for _, x, _, w, _ in placements]
        across = [(y, h) for _, _, y, _, h in placements]
        run, side = spec.canvas.width, spec.canvas.height
    else:
        along = [(y, h) for _, _, y, _, h in placements]
        across = [(x, w) for _, x, _, w, _ in placements]
        run, side = spec.canvas.height, spec.canvas.width
    ends = [0] + [start + size for start, size in along]
    assert [start for start, _ in along] == ends[:-1]
    assert ends[-1] == run
    assert all(start == 0 for start, _ in across)
    assert max(size for _, size in across) == side


def test_stitch_spec_refuses_an_unknown_orientation():
    with pytest.raises(ValueError) as exc:
        StitchSpec("diagonal", (ImageDims(10, 10),) * 2)
    assert str(exc.value) == "unknown orientation 'diagonal'"


def test_stitch_spec_stores_only_its_orientation_and_pages():
    assert StitchSpec.__slots__ == ("orientation", "pages")
    spec = StitchSpec("vertical", (ImageDims(2, 3), ImageDims(4, 5)))
    for name in ("canvas", "placements"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
    assert spec.as_dict() == {"orientation": "vertical", "pages": spec.pages}
