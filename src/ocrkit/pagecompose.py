"""Multi-page sample composition and handwriting paste-up layout.

Multi-page samples join 2-8 pages of under-650-token text with a dedicated
separator line; at those limits the joined text always stays within 8192
tokens.

A handwriting paste-up layout holds a canvas, 6-8 line slices and a seed; its
placements, with seeded horizontal jitter and vertical gaps that never overlap,
are drawn from them.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ._record import Record
from .metrics import tokenize

if TYPE_CHECKING:
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
    """2-8 pages in order; their joined text and its token count are read from them."""

    __slots__ = ("pages",)

    def __init__(self, pages: tuple[PageSpec, ...]):
        if not MIN_PAGES <= len(pages) <= MAX_PAGES:
            raise ValueError(f"page count must be in [{MIN_PAGES}, {MAX_PAGES}]")
        super().__init__(pages)

    @property
    def joined_text(self) -> str:
        return f"\n{PAGE_SEPARATOR}\n".join(p.text for p in self.pages)

    @property
    def total_tokens(self) -> int:
        # "\n" is whitespace that NFC never composes across, so page and separator
        # token counts add up to the joined text's count
        separators = len(self.pages) - 1
        return sum(p.token_count for p in self.pages) + separators * token_count(PAGE_SEPARATOR)


class PasteLayout(Record):
    """6-8 line slices stacked top to bottom in input order on a blank canvas.

    ``placements`` gives each slice's ``(index, x, y, w, h)``, drawn under the seed:
    x uniformly within the margins, and a gap in PASTE_GAP_RANGE before every slice
    after the first. The column must fit the canvas height, margins included.
    """

    __slots__ = ("canvas", "slices", "seed")

    def __init__(self, canvas: ImageDims, slices: tuple[ImageDims, ...], seed: int):
        if not MIN_SLICES <= len(slices) <= MAX_SLICES:
            raise ValueError(
                f"slice count must be in [{MIN_SLICES}, {MAX_SLICES}], got {len(slices)}"
            )
        for s in slices:
            if s.width > canvas.width - 2 * PASTE_MARGIN:
                raise ValueError(
                    f"slice {s.width}x{s.height} exceeds canvas width {canvas.width} minus margins"
                )
        super().__init__(canvas, slices, seed)
        _, _, top, _, height = self.placements[-1]
        if top + height > canvas.height - PASTE_MARGIN:
            raise ValueError(f"cumulative slice height {top + height} exceeds canvas height "
                             f"{canvas.height} minus margin")

    @property
    def placements(self) -> tuple[tuple[int, int, int, int, int], ...]:
        rng = random.Random(self.seed)
        placements = []
        y = PASTE_MARGIN
        for i, s in enumerate(self.slices):
            if i > 0:
                y += rng.randint(*PASTE_GAP_RANGE)
            x = rng.randint(PASTE_MARGIN, self.canvas.width - PASTE_MARGIN - s.width)
            placements.append((i, x, y, s.width, s.height))
            y += s.height
        return tuple(placements)


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
    return MultiPageSample(tuple(eligible[:n_pages]))

