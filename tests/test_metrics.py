"""Metric unit and property tests.

Derived expectations are frozen from independent oracles: the edit-distance
values from the naive recursion, BLEU from a straight-from-formula evaluation,
METEOR from a hand alignment walk.
"""

import itertools
import math
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit._kernels import levenshtein
from ocrkit.corpus import Corpus, Sample, TaskKind
from ocrkit.metrics import (
    _CJK_RANGES,
    MetricReport,
    TokenSeq,
    bleu,
    edit_distance_norm,
    meteor,
    prf,
    score_corpus,
    score_texts,
    tokenize,
)

WORDS = st.text(alphabet="abcde你好", min_size=1, max_size=4).filter(lambda w: w.strip() == w)
SEQS = st.lists(st.sampled_from(["a", "b", "cat", "dog", "你", "好"]), min_size=1, max_size=15)


def _seq(tokens, granularity="word"):
    return TokenSeq(tuple(tokens), granularity)


# --- tokenize ----------------------------------------------------------------


def test_tokenize_word_whitespace():
    assert tokenize("a b  c", "word").tokens == ("a", "b", "c")


def test_tokenize_cjk_rule():
    assert tokenize("你好 world", "word").tokens == ("你", "好", "world")
    assert tokenize("abc你好def", "word").tokens == ("abc", "你", "好", "def")


def test_tokenize_char():
    assert tokenize("ab c", "char").tokens == ("a", "b", "c")


def test_tokenize_empty_and_granularity():
    assert tokenize("", "word").tokens == ()
    assert tokenize("   ", "char").tokens == ()
    with pytest.raises(ValueError):
        tokenize("x", "letters")


def test_tokenize_nfc_normalization():
    composed = "é"
    decomposed = "é"
    assert tokenize(decomposed, "char").tokens == tokenize(composed, "char").tokens


def test_tokenize_ideographic_space_is_whitespace():
    assert tokenize("你　好。", "word").tokens == ("你", "好", "。")
    assert all(not any(c.isspace() for c in t) for t in tokenize("a　b", "word").tokens)


def _oracle_tokens(text, granularity):
    """Per-character walk: whitespace ends a token; in char mode every other
    character, and in word mode every CJK-range character, is its own token."""
    tokens, word = [], ""
    for ch in unicodedata.normalize("NFC", text):
        cjk = any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES)
        if ch.isspace() or cjk or granularity == "char":
            if word:
                tokens.append(word)
            word = ""
            if not ch.isspace():
                tokens.append(ch)
        else:
            word += ch
    return tuple(tokens + [word] if word else tokens)


# the edges of the CJK ranges, U+3000 (ideographic space), U+001C (a
# separator str.isspace counts) and U+00A0 (no-break space)
_TOKENIZER_EDGES = "\u2e7f\u2e80\u3000\u3001\uffef\ufff0\U0002ebef\U0002ebf0\x1c\xa0"


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=st.one_of(st.sampled_from(_TOKENIZER_EDGES + " \nab你"), st.characters())),
    st.sampled_from(["word", "char"]),
)
def test_tokenize_matches_per_character_oracle(text, granularity):
    assert tokenize(text, granularity).tokens == _oracle_tokens(text, granularity)


# --- edit distance -------------------------------------------------------------


def test_edit_identity():
    s = tokenize("abc", "char")
    assert edit_distance_norm(s, s) == 0.0


def test_edit_kitten_sitting():
    # naive recursion oracle gives distance 3; normalized by max length 7
    ref = tokenize("kitten", "char")
    hyp = tokenize("sitting", "char")
    assert edit_distance_norm(ref, hyp) == pytest.approx(3 / 7, abs=1e-12)


def test_edit_empty_vs_nonempty():
    assert edit_distance_norm(tokenize("", "char"), tokenize("abc", "char")) == 1.0
    assert edit_distance_norm(tokenize("", "char"), tokenize("", "char")) == 0.0


def test_edit_granularity_mismatch():
    with pytest.raises(ValueError):
        edit_distance_norm(tokenize("a", "char"), tokenize("a", "word"))


def _token_tuples(alphabet, max_len):
    return [p for n in range(max_len + 1) for p in itertools.product(alphabet, repeat=n)]


# multi-char, CJK and empty tokens: the kernel compares whole tokens
ED_TOKENS = ("a", "b", "ab", "", "你")


def test_edit_symmetry_and_identity_exhaustive():
    seqs = _token_tuples(ED_TOKENS, 3)
    for a in seqs:
        for b in seqs:
            d_ab = edit_distance_norm(_seq(a), _seq(b))
            assert 0.0 <= d_ab <= 1.0
            assert d_ab == edit_distance_norm(_seq(b), _seq(a))
            assert (d_ab == 0.0) == (a == b)


def test_raw_distance_triangle_inequality_exhaustive():
    # the unnormalized token distance is a metric; the max-length
    # normalization is not (e.g. "ab"/"aba"/"ba"), so only raw is checked
    seqs = _token_tuples(ED_TOKENS, 2)
    for a in seqs:
        for b in seqs:
            for c in seqs:
                assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# --- precision / recall / F1 ---------------------------------------------------


def test_prf_example():
    p, r, f1 = prf(tokenize("the cat sat", "word"), tokenize("the cat", "word"))
    assert (p, r) == (1.0, 2 / 3)
    assert f1 == pytest.approx(0.8, abs=1e-12)


def test_prf_identical_and_disjoint():
    x = tokenize("a b c", "word")
    assert prf(x, x) == (1.0, 1.0, 1.0)
    assert prf(x, tokenize("d e f", "word")) == (0.0, 0.0, 0.0)


@given(SEQS)
def test_prf_permutation_invariant(tokens):
    ref = _seq(tokens)
    hyp = _seq(["a", "cat", "好"])
    shuffled = _seq(sorted(tokens))
    assert prf(ref, hyp) == (prf(shuffled, hyp))
    assert prf(hyp, ref) == (prf(hyp, shuffled))


@given(SEQS, SEQS)
def test_prf_f1_consistency(ref_tokens, hyp_tokens):
    p, r, f1 = prf(_seq(ref_tokens), _seq(hyp_tokens))
    if p + r == 0:
        assert f1 == 0.0
    else:
        assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


# --- BLEU ----------------------------------------------------------------------


def test_bleu_identity_and_empty():
    x = _seq(list("abcdefghij"))
    assert bleu(x, x) == 1.0
    assert bleu(x, _seq([])) == 0.0


def test_bleu_brevity_penalty_only():
    # all clipped precisions are 1, so the score is exactly the brevity penalty
    ref = _seq(["a", "b", "c", "d", "e"])
    hyp = _seq(["a", "b", "c", "d"])
    assert bleu(ref, hyp) == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)


def test_bleu_smoothing_oracle():
    # straight-from-formula: p1=3/4, p2=1/3, p3 -> 1/(2*2), p4 -> 1/(2*1)
    ref = _seq(["a", "b", "c", "d", "e"])
    hyp = _seq(["a", "b", "x", "d"])
    expected = math.exp(
        0.25 * (math.log(3 / 4) + math.log(1 / 3) + math.log(1 / 4) + math.log(1 / 2))
        + (1 - 5 / 4)
    )
    assert bleu(ref, hyp) == pytest.approx(expected, abs=1e-12)


def test_bleu_short_sequences_renormalize():
    two = _seq(["a", "b"])
    assert bleu(two, two) == 1.0
    one = _seq(["a"])
    assert bleu(one, one) == 1.0


def test_bleu_no_unigram_overlap_is_zero():
    assert bleu(_seq(["a", "b"]), _seq(["c", "d"])) == 0.0


@given(SEQS, SEQS)
@settings(max_examples=200)
def test_bleu_bounds(ref_tokens, hyp_tokens):
    value = bleu(_seq(ref_tokens), _seq(hyp_tokens))
    assert 0.0 <= value <= 1.0


# --- METEOR --------------------------------------------------------------------


def test_meteor_identity_formula():
    x = _seq(["a", "b", "c"])
    assert meteor(x, x) == pytest.approx(1 - 0.5 * (1 / 3) ** 3, abs=1e-12)


def test_meteor_empty_and_disjoint():
    x = _seq(["a", "b"])
    assert meteor(x, _seq([])) == 0.0
    assert meteor(x, _seq(["c", "d"])) == 0.0


def test_meteor_hand_alignment():
    # hand walk: matches (1,0),(0,1),(2,2),(3,3) -> m=4, chunks=3
    # F=1, penalty = 0.5*(3/4)^3 = 0.2109375 -> 0.7890625
    ref = _seq(["a", "b", "c", "d"])
    hyp = _seq(["b", "a", "c", "d"])
    assert meteor(ref, hyp) == pytest.approx(0.7890625, abs=1e-12)


@given(SEQS, SEQS)
@settings(max_examples=200)
def test_meteor_bounds(ref_tokens, hyp_tokens):
    value = meteor(_seq(ref_tokens), _seq(hyp_tokens))
    assert 0.0 <= value <= 1.0


# --- corpus scoring --------------------------------------------------------------


def _corpus(texts, kind=TaskKind.PLAIN_DOC):
    return Corpus(
        tuple(
            Sample(id=f"s{i}", task_kind=kind, ground_truth=t) for i, t in enumerate(texts)
        )
    )


def test_score_corpus_perfect_single():
    refs = _corpus(["hello world"])
    report = score_corpus(refs, refs, "word")
    assert report.n_samples == 1
    assert report.edit_distance == 0.0
    assert report.precision == report.recall == report.f1 == report.bleu == 1.0
    assert report.meteor == pytest.approx(1 - 0.5 * (1 / 2) ** 3, abs=1e-12)


def test_score_corpus_equals_score_texts_for_single_sample():
    refs = _corpus(["the quick brown fox"])
    hyps = _corpus(["the quick brown cat"])
    corpus_report = score_corpus(refs, hyps, "word")
    text_report = score_texts("the quick brown fox", "the quick brown cat", "word")
    assert corpus_report == MetricReport(**{**text_report.as_dict()})


def test_score_corpus_order_invariant():
    refs = _corpus(["one two", "three four five", "six"])
    hyps = _corpus(["one two", "three forty five", "seven"])
    report = score_corpus(refs, hyps, "word")
    flipped_refs = Corpus(tuple(reversed(refs.samples)))
    flipped_hyps = Corpus(tuple(reversed(hyps.samples)))
    assert score_corpus(flipped_refs, flipped_hyps, "word") == report


def test_score_corpus_missing_and_extra_ids():
    refs = _corpus(["a", "b"])
    hyps = Corpus((Sample(id="s0", task_kind=TaskKind.PLAIN_DOC, ground_truth="a"),))
    with pytest.raises(ValueError, match="s1"):
        score_corpus(refs, hyps, "word")
    extra = Corpus(
        refs.samples + (Sample(id="s9", task_kind=TaskKind.PLAIN_DOC, ground_truth="x"),)
    )
    with pytest.raises(ValueError, match="s9"):
        score_corpus(refs, extra, "word")
