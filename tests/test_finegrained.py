"""Box quantization, color frames and crop instructions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.finegrained import (
    BBox,
    ColorPrompt,
    CropSpec,
    NormBox,
    box_guided_prompt,
    color_frame_spec,
    color_guided_prompt,
    crop_regions,
    denormalize_box,
    normalize_box,
)
from ocrkit.tiling import ImageDims


def test_full_image_box_normalizes_to_extremes():
    dims = ImageDims(1920, 1080)
    assert normalize_box(BBox(0, 0, 1920, 1080), dims) == NormBox(0, 0, 1000, 1000)


def test_normalize_arithmetic_example():
    dims = ImageDims(2000, 1000)
    assert normalize_box(BBox(500, 250, 1500, 750), dims) == NormBox(250, 250, 750, 750)


def test_normalize_rejects_inverted_and_outside():
    dims = ImageDims(100, 100)
    with pytest.raises(ValueError):
        normalize_box(BBox(50, 10, 20, 60), dims)
    with pytest.raises(ValueError):
        normalize_box(BBox(10, 10, 120, 60), dims)


def test_denormalize_example():
    dims = ImageDims(2000, 1000)
    box = denormalize_box(NormBox(250, 250, 750, 750), dims)
    assert (box.x1, box.y1, box.x2, box.y2) == (500.0, 250.0, 1500.0, 750.0)


def test_denormalize_full_image():
    dims = ImageDims(777, 333)
    box = denormalize_box(NormBox(0, 0, 1000, 1000), dims)
    assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 0.0, 777.0, 333.0)


def test_round_trip_quantization_bound():
    rng = random.Random(11)
    for _ in range(2000):
        dims = ImageDims(rng.randint(1, 4096), rng.randint(1, 4096))
        x1, x2 = sorted(rng.uniform(0, dims.width) for _ in range(2))
        y1, y2 = sorted(rng.uniform(0, dims.height) for _ in range(2))
        if x1 == x2 or y1 == y2:
            continue
        box = BBox(x1, y1, x2, y2)
        back = denormalize_box(normalize_box(box, dims), dims)
        assert abs(back.x1 - box.x1) <= math.ceil(dims.width / 2000)
        assert abs(back.x2 - box.x2) <= math.ceil(dims.width / 2000)
        assert abs(back.y1 - box.y1) <= math.ceil(dims.height / 2000)
        assert abs(back.y2 - box.y2) <= math.ceil(dims.height / 2000)


def test_normalize_scale_invariant():
    base = BBox(120, 40, 400, 300)
    dims = ImageDims(800, 600)
    scaled = BBox(360, 120, 1200, 900)
    assert normalize_box(base, dims) == normalize_box(scaled, ImageDims(2400, 1800))


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_normbox_bounds_enforced(a, b):
    lo, hi = min(a, b), max(a, b)
    nbox = NormBox(lo, lo, hi, hi)
    assert nbox.prompt_text() == f"[{lo},{lo},{hi},{hi}]"


def test_normbox_rejects_out_of_range():
    with pytest.raises(ValueError):
        NormBox(0, 0, 1001, 10)
    with pytest.raises(ValueError):
        NormBox(10, 0, 5, 10)


def test_color_frame_spec_rgb_mapping():
    box = BBox(10, 10, 50, 50)
    assert color_frame_spec(box, ColorPrompt("red")).rgb == (255, 0, 0)
    assert color_frame_spec(box, ColorPrompt("green")).rgb == (0, 255, 0)
    assert color_frame_spec(box, ColorPrompt("blue")).rgb == (0, 0, 255)


def test_color_frame_spec_echoes_inputs():
    box = BBox(10, 10, 50, 50)
    spec = color_frame_spec(box, ColorPrompt("blue", frame_thickness=3))
    assert spec.box == box and spec.thickness == 3
    other = color_frame_spec(box, ColorPrompt("red", frame_thickness=3))
    assert (other.box, other.thickness) == (spec.box, spec.thickness)
    assert other.rgb != spec.rgb


def test_color_prompt_validation():
    with pytest.raises(ValueError):
        ColorPrompt("purple")
    with pytest.raises(ValueError):
        ColorPrompt("red", frame_thickness=0)


def test_prompt_templates():
    assert "[1,2,3,4]" in box_guided_prompt(NormBox(1, 2, 3, 4))
    assert "red" in color_guided_prompt("red")
    with pytest.raises(ValueError):
        color_guided_prompt("magenta")


def test_crop_regions_floor_ceil_rule():
    dims = ImageDims(100, 100)
    [spec] = crop_regions(dims, [BBox(10.2, 10.8, 20.1, 30.9)])
    assert spec == CropSpec(10, 10, 21, 31)


def test_crop_regions_identity_and_order():
    dims = ImageDims(50, 60)
    boxes = [BBox(1, 2, 3, 4), BBox(10, 11, 20, 21)]
    specs = crop_regions(dims, boxes)
    assert specs == [CropSpec(1, 2, 3, 4), CropSpec(10, 11, 20, 21)]
    assert crop_regions(dims, []) == []


def test_crop_regions_out_of_bounds():
    with pytest.raises(ValueError):
        crop_regions(ImageDims(10, 10), [BBox(0, 0, 11, 5)])
