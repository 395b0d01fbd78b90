"""Region-guided OCR task construction.

Covers bounding-box quantization to the [0, 1000] prompt grid, the frame
colour and thickness of color-guided tasks, and integer crop instructions for
region slicing. All outputs are declarative; no pixels are touched here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import Record

if TYPE_CHECKING:
    from .tiling import ImageDims

NORM_SCALE = 1000

COLOR_RGB = {
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
}

# Prompt templates, version 1. {box} is NormBox.prompt_text(), {color} a COLOR_RGB key.
BOX_PROMPT_TEMPLATE = "OCR the text in region {box}:"
COLOR_PROMPT_TEMPLATE = "OCR the text in the {color} box:"


class BBox(Record):
    """Axis-aligned box in source pixels; coordinates may be fractional."""

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: float, y1: float, x2: float, y2: float):
        super().__init__(x1, y1, x2, y2)


class NormBox(Record):
    """Box quantized to the [0, 1000] grid used inside prompts."""

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: int, y1: int, x2: int, y2: int):
        for v in (x1, y1, x2, y2):
            if not 0 <= v <= NORM_SCALE:
                raise ValueError(f"normalized coordinate {v} outside [0, {NORM_SCALE}]")
        if x1 > x2 or y1 > y2:
            raise ValueError("normalized box is inverted")
        super().__init__(x1, y1, x2, y2)

    def prompt_text(self) -> str:
        return f"[{self.x1},{self.y1},{self.x2},{self.y2}]"


class ColorPrompt(Record):
    __slots__ = ("color", "frame_thickness")

    def __init__(self, color: str, frame_thickness: int = 3):
        if color not in COLOR_RGB:
            raise ValueError(f"color must be one of {sorted(COLOR_RGB)}, got {color!r}")
        if frame_thickness < 1:
            raise ValueError("frame_thickness must be positive")
        super().__init__(color, frame_thickness)

    @property
    def rgb(self) -> tuple[int, int, int]:
        """The frame colour as the RGB triple a rasterizer draws."""
        return COLOR_RGB[self.color]


class CropSpec(Record):
    """Integer pixel crop, min edges floored and max edges ceiled."""

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: int, y1: int, x2: int, y2: int):
        super().__init__(x1, y1, x2, y2)


def check_box(box: BBox, dims: ImageDims | None = None) -> None:
    """Raise if the box is inverted or (when dims given) out of bounds."""
    if not (box.x1 < box.x2 and box.y1 < box.y2):
        raise ValueError(f"box {box} is inverted or empty")
    if dims is not None:
        if box.x1 < 0 or box.y1 < 0 or box.x2 > dims.width or box.y2 > dims.height:
            raise ValueError(f"box {box} outside image {dims.width}x{dims.height}")


def _quantize(coord: float, dim: int) -> int:
    # check_box puts coord in [0, dim], so round half up lands in [0, NORM_SCALE]
    return math.floor(coord * NORM_SCALE / dim + 0.5)


def normalize_box(box: BBox, dims: ImageDims) -> NormBox:
    """Map source-pixel coordinates onto the [0, 1000] grid (round half up)."""
    check_box(box, dims)
    return NormBox(
        _quantize(box.x1, dims.width),
        _quantize(box.y1, dims.height),
        _quantize(box.x2, dims.width),
        _quantize(box.y2, dims.height),
    )


def denormalize_box(nbox: NormBox, dims: ImageDims) -> BBox:
    """Inverse grid mapping; within dim/2000 px of the original per edge."""
    return BBox(
        nbox.x1 * dims.width / NORM_SCALE,
        nbox.y1 * dims.height / NORM_SCALE,
        nbox.x2 * dims.width / NORM_SCALE,
        nbox.y2 * dims.height / NORM_SCALE,
    )


def crop_regions(dims: ImageDims, boxes: list[BBox]) -> list[CropSpec]:
    """One integer crop instruction per box, input order preserved."""
    specs = []
    for box in boxes:
        check_box(box, dims)
        specs.append(
            CropSpec(
                math.floor(box.x1), math.floor(box.y1), math.ceil(box.x2), math.ceil(box.y2)
            )
        )
    return specs
