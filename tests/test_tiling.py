"""Tile planning against a brute-force oracle, plus stitch layout rules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.tiling import ImageDims, StitchSpec, TilePlan, plan_tiles, stitch_pages


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
    assert plan.tile_px == 1024


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
        # a float or bool side would be written where from_meta reads an int
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


def test_rect_positions_cover_grid():
    dims = ImageDims(2500, 1100)
    plan = plan_tiles(dims)
    _check_partition(plan, dims)
    first = plan.tile_rects[0]
    assert (first.x, first.y) == (0, 0)


def test_tileplan_meta_round_trip():
    plan = plan_tiles(ImageDims(3000, 1300))
    assert TilePlan.from_meta(plan.to_meta()) == plan


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


def test_stitch_meta_round_trip():
    for spec in (
        stitch_pages([ImageDims(300, 400), ImageDims(500, 600)], "vertical"),
        StitchSpec("horizontal", ImageDims(2, 3), ()),  # writes stitch_placements ""
    ):
        assert StitchSpec.from_meta(spec.to_meta()) == spec


def test_stitch_spec_refuses_an_unknown_orientation():
    for make in (lambda: StitchSpec("diagonal", ImageDims(2, 3), ()),
                 lambda: stitch_pages([ImageDims(10, 10)] * 2, "diagonal")):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == "unknown orientation 'diagonal'"


_TILE_META = plan_tiles(ImageDims(2048, 1024)).to_meta()  # grid 2x1, two rects
_STITCH_META = stitch_pages([ImageDims(3, 4), ImageDims(5, 6)], "vertical").to_meta()


def _tile(**changes):
    return {**_TILE_META, **changes}


def _stitch(**changes):
    return {**_STITCH_META, **changes}


@pytest.mark.parametrize(
    "cls, meta, message",
    [
        (TilePlan, {}, "meta has no 'tile_grid'"),
        (TilePlan, _tile(tile_px=None), "meta 'tile_px' must be a string, got None"),
        (TilePlan, _tile(tile_grid="2by1"), "meta 'tile_grid': '2by1' is not <cols>x<rows>"),
        (TilePlan, _tile(tile_grid="2x"), "meta 'tile_grid': '2x' is not <cols>x<rows>"),
        (TilePlan, _tile(tile_px="-5"), "meta 'tile_px': '-5' is not <px>"),
        (TilePlan, _tile(tile_px="１０"), "meta 'tile_px': '１０' is not <px>"),
        (TilePlan, _tile(tile_thumbnail="yes"), "meta 'tile_thumbnail': 'yes' is not 0 or 1"),
        (TilePlan, _tile(tile_rects="0,0,1024"),
         "meta 'tile_rects': '0,0,1024' is not <x>,<y>,<w>,<h>"),
        (TilePlan, _tile(tile_rects="0,0,1,1;"), "meta 'tile_rects': '' is not <x>,<y>,<w>,<h>"),
        (StitchSpec, {}, "meta has no 'stitch_orientation'"),
        (StitchSpec, _stitch(stitch_orientation="diagonal"), "unknown orientation 'diagonal'"),
        (StitchSpec, _stitch(stitch_canvas="5"),
         "meta 'stitch_canvas': '5' is not <width>x<height>"),
        (StitchSpec, _stitch(stitch_canvas="0x10"), "image dims must be positive, got 0x10"),
        (StitchSpec, _stitch(stitch_placements="0:0,0,3"),
         "meta 'stitch_placements': '0:0,0,3' is not <page>:<x>,<y>,<w>,<h>"),
        (StitchSpec, _stitch(stitch_placements="0:0,0,0,4"),
         "image dims must be positive, got 0x4"),
    ],
    ids=["tile-empty", "tile-not-a-string", "grid-word", "grid-half", "px-signed",
         "px-fullwidth", "thumbnail", "rect-three-numbers", "rect-empty-part", "stitch-empty",
         "orientation", "canvas-one-number", "canvas-zero", "placement-three-numbers",
         "placement-zero"],
)
def test_from_meta_errors(cls, meta, message):
    with pytest.raises(ValueError) as exc:
        cls.from_meta(meta)
    assert str(exc.value) == message


_META_TEXT = st.text("0123456789x,:;-", max_size=24) | st.text(max_size=8)


@given(st.sampled_from([(TilePlan, _TILE_META), (StitchSpec, _STITCH_META)]), st.data())
@settings(max_examples=300, deadline=None)
def test_from_meta_returns_a_record_or_raises_value_error(case, data):
    cls, valid = case
    keys = st.sampled_from(sorted(valid)) | st.text(max_size=4)
    meta = {key: value for key, value in valid.items()
            if key not in data.draw(st.sets(st.sampled_from(sorted(valid))))}
    meta.update(data.draw(st.dictionaries(keys, _META_TEXT, max_size=3)))
    try:
        got = cls.from_meta(meta)
    except ValueError:
        return
    assert type(got) is cls and cls.from_meta(got.to_meta()) == got
