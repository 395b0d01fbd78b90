"""The bit-parallel Levenshtein kernel against two independent oracles, with and
without a distance limit."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit._kernels import levenshtein
from ocrkit.metrics import TokenSeq, edit_distance_norm


def _naive(a, b):
    # textbook recursive definition; independent of every kernel
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    if a[0] == b[0]:
        return _naive(a[1:], b[1:])
    return 1 + min(_naive(a[1:], b), _naive(a, b[1:]), _naive(a[1:], b[1:]))


def _plain_dp(a, b):
    # two-row dynamic programme, one cell at a time
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _random_pair(rng, max_len, alphabet):
    def one():
        return tuple(str(rng.randrange(alphabet)) for _ in range(rng.randrange(max_len + 1)))

    return one(), one()


def _limits_around(d, a, b):
    # limits below, at and above the true distance d, and the no-cutoff bound
    return sorted({k for k in (0, d - 1, d, d + 1, max(len(a), len(b))) if k >= 0})


# multi-char, CJK, empty and whitespace tokens, few enough to force matches
TOKENS = st.sampled_from(["a", "b", "ab", "the", "你", "好", "", " ", "𠀀"])
LONG_SEQS = st.lists(TOKENS, max_size=320).map(tuple)


def test_empty_cases():
    three = ("x", "yy", "你")
    assert levenshtein((), ()) == 0
    assert levenshtein((), three) == 3
    assert levenshtein(three, ()) == 3
    assert levenshtein(three, three) == 0
    assert levenshtein(("",), ()) == 1
    assert levenshtein(("",), ("",)) == 0


def test_tokens_compare_whole():
    # "ab" is one token, never the pair "a", "b"
    assert levenshtein(("ab",), ("a", "b")) == 2
    assert levenshtein(("ab", "c"), ("abc",)) == 2


def test_matches_naive_on_short_pairs():
    rng = random.Random(1)
    for _ in range(400):
        a, b = _random_pair(rng, max_len=8, alphabet=4)
        assert levenshtein(a, b) == _naive(a, b)


def test_matches_plain_dp_across_word_boundaries():
    # pattern lengths around 64 and 128 bits, with tiny and large alphabets
    rng = random.Random(2)
    for _ in range(300):
        a, b = _random_pair(rng, max_len=140, alphabet=rng.choice((1, 2, 7, 50)))
        assert levenshtein(a, b) == _plain_dp(a, b)


@settings(max_examples=150, deadline=None)
@given(LONG_SEQS, LONG_SEQS)
def test_property_matches_plain_dp_and_is_symmetric(a, b):
    d = levenshtein(a, b)
    assert d == _plain_dp(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@settings(max_examples=20, deadline=None)
@given(st.lists(TOKENS, min_size=300, max_size=330).map(tuple), st.data())
def test_property_long_pattern_few_edits(a, data):
    # bit vectors far wider than 64 bits, with a known upper bound on distance
    b = list(a)
    edits = data.draw(st.integers(0, 5))
    for _ in range(edits):
        i = data.draw(st.integers(0, len(b) - 1))
        op = data.draw(st.sampled_from(("sub", "del", "ins")))
        if op == "sub":
            b[i] = "zz"
        elif op == "del":
            del b[i]
        else:
            b.insert(i, "zz")
    b = tuple(b)
    d = levenshtein(a, b)
    assert d <= edits
    assert d == _plain_dp(a, b) == levenshtein(b, a)
    for k in _limits_around(d, a, b):
        assert levenshtein(a, b, k) == min(d, k + 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(TOKENS, max_size=24).map(tuple),
    st.lists(TOKENS, min_size=200, max_size=330).map(tuple),
)
def test_property_short_against_long_with_limits(short, long):
    # the long side is the pattern (wider than 64 bits), the short side is read
    d = _plain_dp(short, long)
    gap = len(long) - len(short)
    for k in {*_limits_around(d, short, long), gap, gap - 1}:
        assert levenshtein(short, long, k) == min(d, k + 1)
        assert levenshtein(long, short, k) == min(d, k + 1)


def test_limit_caps_at_limit_plus_one():
    assert levenshtein("kitten", "sitting", 3) == 3
    assert levenshtein("kitten", "sitting", 2) == 3
    assert levenshtein("kitten", "sitting", 0) == 1
    assert levenshtein("abc", "", 1) == 2
    assert levenshtein("", "", 0) == 0
    assert levenshtein("abc", "abc", 0) == 0
    # a length gap above the limit is settled before any token is read
    assert levenshtein("ab", "ab" * 50, 97) == 98
    assert levenshtein("ab" * 50, "b", 3) == 4


class _Unhashable:
    # a token the kernel must not look up in its pattern table
    def __hash__(self):
        raise AssertionError("token hashed")


def test_gap_above_limit_is_decided_before_any_token_is_hashed():
    long, short = (_Unhashable(),) * 7, (_Unhashable(),) * 3
    assert levenshtein(long, short, 3) == 4
    assert levenshtein(short, long, 3) == 4
    assert levenshtein(long, short[:1], 0) == 1
    # at gap == limit the distance is exact
    assert levenshtein("abcdefg", "abc", 4) == 4
    assert levenshtein("abc", "abcdefg", 4) == 4
    assert levenshtein("abcdefg", "xyz", 4) == 5


# pattern widths at the edges of CPython's 30-bit int digits
DIGIT_EDGE_PATTERNS = st.sampled_from([1, 2, 29, 30, 31, 59, 60, 61, 89, 90, 91]).flatmap(
    lambda w: st.lists(TOKENS, min_size=w, max_size=w).map(tuple)
)


@settings(max_examples=150, deadline=None)
@given(DIGIT_EDGE_PATTERNS, st.data())
def test_property_matches_plain_dp_at_digit_edge_widths(pattern, data):
    w = len(pattern)
    # a random text, or the pattern with one slice cut out (a small distance)
    text = data.draw(
        st.lists(TOKENS, max_size=w).map(tuple)
        | st.lists(st.integers(0, w), min_size=2, max_size=2).map(sorted).map(
            lambda ij: pattern[:ij[0]] + pattern[ij[1]:]
        )
    )
    d = _plain_dp(pattern, text)
    assert levenshtein(pattern, text) == d
    gap = w - len(text)
    for k in {*_limits_around(d, pattern, text), gap, gap - 1} - {-1}:
        assert levenshtein(pattern, text, k) == min(d, k + 1)
        assert levenshtein(text, pattern, k) == min(d, k + 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(TOKENS, max_size=80).map(tuple), st.lists(TOKENS, max_size=80).map(tuple))
def test_property_limit_is_min_of_distance_and_limit_plus_one(a, b):
    d = _plain_dp(a, b)
    for k in _limits_around(d, a, b):
        assert levenshtein(a, b, k) == min(d, k + 1)
        assert levenshtein(b, a, k) == min(d, k + 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(TOKENS, max_size=40).map(tuple), st.lists(TOKENS, max_size=40).map(tuple))
def test_property_edit_distance_norm_limit(r, h):
    ref, hyp = TokenSeq(r, "word"), TokenSeq(h, "word")
    d = _plain_dp(r, h)
    max_len = max(len(r), len(h))
    assert edit_distance_norm(ref, hyp) == (d / max_len if max_len else 0.0)
    for k in _limits_around(d, r, h):
        assert edit_distance_norm(ref, hyp, k) == (min(d, k + 1) / max_len if max_len else 0.0)
