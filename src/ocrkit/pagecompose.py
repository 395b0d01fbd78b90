"""Multi-page sample composition and handwriting paste-up layout.

Multi-page samples join 2-8 pages of under-650-token text with a dedicated
separator line; at those limits the joined text always stays within 8192
tokens.
Handwriting paste-up places 6-8 line slices onto a blank canvas with seeded
horizontal jitter and vertical gaps, never overlapping.
"""

from __future__ import annotations

import random

from ._record import Record
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


class PageSpec(Record):
    __slots__ = ("page_id", "text", "token_count", "image_ref")

    def __init__(self, page_id: str, text: str, token_count: int, image_ref: str = ""):
        super().__init__(page_id, text, token_count, image_ref)

    @classmethod
    def from_text(cls, page_id: str, text: str, image_ref: str = "") -> "PageSpec":
        return cls(page_id, text, token_count(text), image_ref)


class MultiPageSample(Record):
    __slots__ = ("pages", "joined_text", "total_tokens")

    def __init__(self, pages: tuple[PageSpec, ...], joined_text: str, total_tokens: int):
        if not MIN_PAGES <= len(pages) <= MAX_PAGES:
            raise ValueError(f"page count must be in [{MIN_PAGES}, {MAX_PAGES}]")
        super().__init__(pages, joined_text, total_tokens)


class PasteLayout(Record):
    __slots__ = ("canvas", "placements")

    def __init__(
        self,
        canvas: ImageDims,
        placements: tuple[tuple[int, int, int, int, int], ...],  # (slice_index, x, y, w, h)
    ):
        super().__init__(canvas, placements)


def compose_multipage(pool: list[PageSpec], n_pages: int, seed: int) -> MultiPageSample:
    """Deterministically sample pages and join them with the separator line.

    The eligible pages (token_count < MAX_PAGE_TOKENS, no separator line
    inside) are shuffled under the seed and the first ``n_pages`` are taken.
    No pick can exceed TOTAL_TOKEN_BUDGET: MAX_PAGES pages of at most
    MAX_PAGE_TOKENS - 1 tokens and their separators stay below it.
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
    random.Random(seed).shuffle(eligible)
    chosen = eligible[:n_pages]
    joined = f"\n{PAGE_SEPARATOR}\n".join(p.text for p in chosen)
    # "\n" is whitespace that NFC never composes across, so page and separator
    # token counts add up to the joined text's count
    total = sum(p.token_count for p in chosen) + (n_pages - 1) * token_count(PAGE_SEPARATOR)
    return MultiPageSample(tuple(chosen), joined, total)


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
