"""Multi-page composition budgets and paste-up layout invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.pagecompose import (
    MAX_PAGE_TOKENS,
    MAX_PAGES,
    PAGE_SEPARATOR,
    TOTAL_TOKEN_BUDGET,
    MultiPageSample,
    PageSpec,
    compose_multipage,
    paste_handwriting_lines,
    split_multipage,
    token_count,
)
from ocrkit.tiling import ImageDims


def _page(i, n_tokens):
    return PageSpec.from_text(f"p{i}", " ".join(f"w{j}" for j in range(n_tokens)))


POOL = [_page(i, 80 + 7 * i) for i in range(24)]


def test_token_count_rules():
    assert token_count("") == 0
    assert token_count("a b c") == 3
    assert token_count("你好 world") == 3


def test_pagespec_from_text_counts():
    page = PageSpec.from_text("p", "one two three")
    assert page.token_count == 3


def test_compose_basic_budget_arithmetic():
    pool = [_page(i, 600) for i in range(8)]
    sample = compose_multipage(pool, 5, seed=1)
    assert len(sample.pages) == 5
    assert sample.total_tokens == 5 * 600 + 4 * token_count(PAGE_SEPARATOR)
    assert sample.total_tokens <= 8192


def test_compose_excludes_oversized_pages():
    pool = [_page(i, 100) for i in range(6)] + [_page(99, 700)]
    for seed in range(40):
        sample = compose_multipage(pool, 6, seed=seed)
        assert all(p.page_id != "p99" for p in sample.pages)


def test_compose_page_count_bounds():
    with pytest.raises(ValueError):
        compose_multipage(POOL, 1, seed=0)
    with pytest.raises(ValueError):
        compose_multipage(POOL, 9, seed=0)


@pytest.mark.parametrize("n_pages", [1, 9])
def test_multipage_sample_checks_its_page_count(n_pages):
    pages = tuple(POOL[:n_pages])
    with pytest.raises(ValueError) as exc:
        MultiPageSample(pages, "", 0)
    assert str(exc.value) == "page count must be in [2, 8]"


def test_compose_insufficient_pool():
    with pytest.raises(ValueError, match="insufficient"):
        compose_multipage(POOL[:3], 4, seed=0)


def test_page_limits_keep_every_sample_within_the_token_budget():
    # compose_multipage has no budget check: raising a limit must fail here instead
    most = MAX_PAGES * (MAX_PAGE_TOKENS - 1) + (MAX_PAGES - 1) * token_count(PAGE_SEPARATOR)
    assert most <= TOTAL_TOKEN_BUDGET == 8192


def test_compose_deterministic():
    assert compose_multipage(POOL, 4, seed=9) == compose_multipage(POOL, 4, seed=9)
    assert compose_multipage(POOL, 4, seed=9) != compose_multipage(POOL, 4, seed=10)


def test_joined_text_splits_back():
    sample = compose_multipage(POOL, 6, seed=5)
    assert split_multipage(sample.joined_text) == [p.text for p in sample.pages]


# Any scalar, weighted towards the ones NFC and the word splitter treat specially:
# combining marks, Hangul jamo, CJK, U+3000 and U+001C (both whitespace).
_PAGE_TEXT = st.text(
    st.sampled_from(["a", " ", "\n", "\u0301", "\u1100", "\u1161", "\u11a8", "中", "\u3000"])
    | st.just("\x1c")
    | st.characters(),
    max_size=12,
)


@given(st.lists(_PAGE_TEXT, min_size=8, max_size=10), st.integers(2, 8), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_total_tokens_is_the_joined_text_count(texts, n_pages, seed):
    pool = [PageSpec.from_text(f"p{i}", t) for i, t in enumerate(texts)]
    sample = compose_multipage(pool, n_pages, seed)
    assert sample.total_tokens == token_count(sample.joined_text)


def test_separator_inside_page_is_ineligible():
    poisoned = PageSpec.from_text("bad", f"before\n{PAGE_SEPARATOR}\nafter")
    pool = POOL[:8] + [poisoned]
    for seed in range(30):
        sample = compose_multipage(pool, 8, seed=seed)
        assert all(p.page_id != "bad" for p in sample.pages)


def test_paste_layout_example():
    layout = paste_handwriting_lines(
        [ImageDims(1000, 80)] * 6, ImageDims(1240, 1754), seed=4
    )
    assert len(layout.placements) == 6
    assert [p[0] for p in layout.placements] == list(range(6))
    for _, x, y, w, h in layout.placements:
        assert 40 <= x and x + w <= 1240 - 40
        assert 40 <= y and y + h <= 1754 - 40
    ys = [(p[2], p[2] + p[4]) for p in layout.placements]
    for (a0, a1), (b0, b1) in zip(ys, ys[1:]):
        assert a1 < b0  # strictly below: gaps >= 10


def test_paste_slice_count_bounds():
    with pytest.raises(ValueError):
        paste_handwriting_lines([ImageDims(100, 20)] * 5, ImageDims(1000, 1000), seed=0)
    with pytest.raises(ValueError):
        paste_handwriting_lines([ImageDims(100, 20)] * 9, ImageDims(1000, 1000), seed=0)


def test_paste_rejects_wide_slice_and_overflow():
    with pytest.raises(ValueError, match="width"):
        paste_handwriting_lines(
            [ImageDims(1200, 20)] * 6, ImageDims(1240, 1754), seed=0
        )
    with pytest.raises(ValueError, match="height"):
        paste_handwriting_lines(
            [ImageDims(500, 300)] * 8, ImageDims(1000, 1000), seed=0
        )


def test_paste_deterministic():
    slices = [ImageDims(800, 60)] * 7
    canvas = ImageDims(1240, 1754)
    assert paste_handwriting_lines(slices, canvas, 3) == paste_handwriting_lines(slices, canvas, 3)


def test_paste_never_overlaps_randomized():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(6, 8)
        slices = [ImageDims(rng.randint(200, 900), rng.randint(30, 120)) for _ in range(n)]
        layout = paste_handwriting_lines(slices, ImageDims(1240, 1754), seed=rng.randint(0, 10**6))
        rects = [(x, y, x + w, y + h) for _, x, y, w, h in layout.placements]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                ax1, ay1, ax2, ay2 = rects[i]
                bx1, by1, bx2, by2 = rects[j]
                overlap_w = max(0, min(ax2, bx2) - max(ax1, bx1))
                overlap_h = max(0, min(ay2, by2) - max(ay1, by1))
                assert overlap_w * overlap_h == 0
