"""Multi-page sample composition and handwriting paste-up layout.

Multi-page samples join 2-8 pages of under-650-token text with a dedicated
separator line, keeping the joined text within an 8192-token budget.
Handwriting paste-up places 6-8 line slices onto a blank canvas with seeded
horizontal jitter and vertical gaps, never overlapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .metrics import tokenize
from .tiling import ImageDims

PAGE_SEPARATOR = "<--- page break --->"
MAX_PAGE_TOKENS = 650
TOTAL_TOKEN_BUDGET = 8192

MIN_PAGES = 2
MAX_PAGES = 8

MIN_SLICES = 6
MAX_SLICES = 8
PASTE_MARGIN = 40
PASTE_GAP_RANGE = (10, 60)


def token_count(text: str) -> int:
    """Word-granularity token count; CJK characters count one each."""
    return len(tokenize(text, "word").tokens)


@dataclass(frozen=True)
class PageSpec:
    page_id: str
    text: str
    token_count: int
    image_ref: str = ""

    @classmethod
    def from_text(cls, page_id: str, text: str, image_ref: str = "") -> "PageSpec":
        return cls(page_id, text, token_count(text), image_ref)


@dataclass(frozen=True)
class MultiPageSample:
    pages: tuple[PageSpec, ...]
    joined_text: str
    total_tokens: int

    def __post_init__(self):
        if not MIN_PAGES <= len(self.pages) <= MAX_PAGES:
            raise ValueError(f"page count must be in [{MIN_PAGES}, {MAX_PAGES}]")


@dataclass(frozen=True)
class PasteLayout:
    canvas: ImageDims
    placements: tuple[tuple[int, int, int, int, int], ...]  # (slice_index, x, y, w, h)


def compose_multipage(
    pool: list[PageSpec],
    n_pages: int,
    seed: int,
    budget: int = TOTAL_TOKEN_BUDGET,
) -> MultiPageSample:
    """Deterministically sample pages and join them under the token budget.

    Pool indices are shuffled under the seed and walked in order; a page is
    accepted if it is eligible (token_count < MAX_PAGE_TOKENS, no separator
    line inside) and keeps the running joined-text total within the budget.
    """
    if not MIN_PAGES <= n_pages <= MAX_PAGES:
        raise ValueError(f"n_pages must be in [{MIN_PAGES}, {MAX_PAGES}], got {n_pages}")
    eligible = [
        p for p in pool if p.token_count < MAX_PAGE_TOKENS and PAGE_SEPARATOR not in p.text
    ]
    if len(eligible) < n_pages:
        raise ValueError(
            f"insufficient eligible pages: need {n_pages}, pool has {len(eligible)}"
        )
    sep_tokens = token_count(PAGE_SEPARATOR)
    indices = list(range(len(eligible)))
    random.Random(seed).shuffle(indices)
    chosen: list[PageSpec] = []
    running = 0
    for idx in indices:
        page = eligible[idx]
        candidate = running + page.token_count + (sep_tokens if chosen else 0)
        if candidate > budget:
            continue
        chosen.append(page)
        running = candidate
        if len(chosen) == n_pages:
            break
    if len(chosen) < n_pages:
        raise ValueError(f"token budget {budget} cannot be satisfied with {n_pages} pages")
    joined = f"\n{PAGE_SEPARATOR}\n".join(p.text for p in chosen)
    return MultiPageSample(tuple(chosen), joined, token_count(joined))


def split_multipage(joined_text: str) -> list[str]:
    """Recover the page texts of a composed sample."""
    return joined_text.split(f"\n{PAGE_SEPARATOR}\n")


def paste_handwriting_lines(slices: list[ImageDims], canvas: ImageDims, seed: int) -> PasteLayout:
    """Stack 6-8 slices top to bottom with seeded jitter, no overlaps.

    Each slice keeps its input-order position; the x offset is drawn uniformly
    within the margins and a gap in PASTE_GAP_RANGE precedes every slice after the
    first. Fails if the column does not fit the canvas height.
    """
    if not MIN_SLICES <= len(slices) <= MAX_SLICES:
        raise ValueError(
            f"slice count must be in [{MIN_SLICES}, {MAX_SLICES}], got {len(slices)}"
        )
    for s in slices:
        if s.width > canvas.width - 2 * PASTE_MARGIN:
            raise ValueError(
                f"slice {s.width}x{s.height} exceeds canvas width {canvas.width} minus margins"
            )
    rng = random.Random(seed)
    placements = []
    y = PASTE_MARGIN
    for i, s in enumerate(slices):
        if i > 0:
            y += rng.randint(*PASTE_GAP_RANGE)
        x = rng.randint(PASTE_MARGIN, canvas.width - PASTE_MARGIN - s.width)
        placements.append((i, x, y, s.width, s.height))
        y += s.height
    if y > canvas.height - PASTE_MARGIN:
        raise ValueError(
            f"cumulative slice height {y} exceeds canvas height {canvas.height} minus margin"
        )
    return PasteLayout(canvas, tuple(placements))
