"""Metric unit and property tests.

Derived expectations are frozen from independent oracles: the edit-distance
values from the naive recursion, BLEU from a straight-from-formula evaluation,
METEOR from a hand alignment walk.
"""

import itertools
import math
import operator
import unicodedata
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocrkit._kernels import levenshtein
from ocrkit.corpus import Corpus, Sample, TaskKind
from ocrkit.metrics import (
    _CJK_RANGES,
    METEOR_ALPHA,
    METEOR_BETA,
    METEOR_GAMMA,
    MetricReport,
    TokenSeq,
    _align,
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


def _sum_left_to_right(values):
    """The float sum the metrics define: sum() compensates rounding from Python 3.12 on."""
    return reduce(operator.add, values, 0.0)


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
_TOKENIZER_EDGES = (
    "\u2e7f\u2e80\u3000\u3001\u30ff\u3100\u312f\u3130\u319f\u31a0\u31bf\u31c0"
    "\u31ef\u31f0\u31ff\u3200\uffef\ufff0\U0001afef\U0001aff0\U0001b16f\U0001b170"
    "\U0002ebef\U0002ebf0\U0002ee5f\U0002ee60\U0002ffff\U00030000\U000323af\U000323b0"
    "\x1c\xa0"
    "\u2eff\u2f00\u2fdf\u2fe0\u2fef\u2ff0\u2fff\u318f\u3190\u32ff\u3300\u33ff\u3400"
    "\ufe2f\ufe30\ufe4f\ufe50\U0001f1ff\U0001f200\U0001f2ff\U0001f300"
)


# every block whose scalar values are word tokens of their own: first and last code point
CJK_BLOCKS = [
    ("CJK radicals supplement", 0x2E80, 0x2EFF),
    ("Kangxi radicals", 0x2F00, 0x2FDF),
    ("ideographic description characters", 0x2FF0, 0x2FFF),
    ("CJK symbols and punctuation", 0x3001, 0x303F),
    ("hiragana", 0x3040, 0x309F),
    ("katakana", 0x30A0, 0x30FF),
    ("bopomofo", 0x3100, 0x312F),
    ("kanbun", 0x3190, 0x319F),
    ("bopomofo extended", 0x31A0, 0x31BF),
    ("CJK strokes", 0x31C0, 0x31EF),
    ("katakana phonetic extensions", 0x31F0, 0x31FF),
    ("enclosed CJK letters and months", 0x3200, 0x32FF),
    ("CJK compatibility", 0x3300, 0x33FF),
    ("CJK extension A", 0x3400, 0x4DBF),
    ("CJK unified ideographs", 0x4E00, 0x9FFF),
    ("CJK compatibility ideographs", 0xF900, 0xFAFF),
    ("CJK compatibility forms", 0xFE30, 0xFE4F),
    ("halfwidth and fullwidth forms", 0xFF00, 0xFFEF),
    ("kana extended-B", 0x1AFF0, 0x1AFFF),
    ("kana supplement", 0x1B000, 0x1B0FF),
    ("kana extended-A", 0x1B100, 0x1B12F),
    ("small kana extension", 0x1B130, 0x1B16F),
    ("enclosed ideographic supplement", 0x1F200, 0x1F2FF),
    ("CJK extension B", 0x20000, 0x2A6DF),
    ("CJK extension F", 0x2CEB0, 0x2EBEF),
    ("CJK extension I", 0x2EBF0, 0x2EE5F),
    ("CJK extension G", 0x30000, 0x3134F),
    ("CJK extension H", 0x31350, 0x323AF),
]


@pytest.mark.parametrize("cp", [cp for _, lo, hi in CJK_BLOCKS for cp in (lo, hi)],
                         ids=[f"{name}-{cp:04X}" for name, lo, hi in CJK_BLOCKS for cp in (lo, hi)])
def test_tokenize_cjk_block_edges_are_single_word_tokens(cp):
    text = unicodedata.normalize("NFC", chr(cp))
    assert tokenize(chr(cp) * 2, "word").tokens == (text, text)


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


def test_bleu_sums_its_log_precisions_left_to_right():
    ref, hyp = _seq("over an a fox".split()), _seq("jumps lazy a brown the fox".split())
    logs = [0.25 * math.log(p) for p in (2 / 6, 1 / 10, 1 / 8, 1 / 6)]
    # these inputs tell the orders apart: the exactly rounded sum (and so the
    # compensated sum() of Python 3.12+) gives 0.1623339577375495
    assert math.exp(math.fsum(logs)) != math.exp(_sum_left_to_right(logs))
    assert bleu(ref, hyp) == _intersection_bleu(ref, hyp) == 0.16233395773754952


@given(SEQS, SEQS)
@settings(max_examples=200)
def test_bleu_bounds(ref_tokens, hyp_tokens):
    value = bleu(_seq(ref_tokens), _seq(hyp_tokens))
    assert 0.0 <= value <= 1.0


def _slice_ngram_counts(tokens, n):
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _intersection_prf(ref, hyp):
    """Oracle: P/R/F1 with the overlap taken as a Counter intersection."""
    matched = sum((Counter(ref.tokens) & Counter(hyp.tokens)).values())
    precision = matched / len(hyp) if hyp.tokens else 0.0
    recall = matched / len(ref) if ref.tokens else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def _intersection_bleu(ref, hyp):
    """Oracle: the same BLEU-4 over slice-built n-gram Counters, clipped by
    Counter intersection."""
    r, h = ref.tokens, hyp.tokens
    if not h:
        return 0.0
    precisions = []
    for n in range(1, 5):
        if len(h) < n:
            break
        total = len(h) - n + 1
        clipped = sum((_slice_ngram_counts(h, n) & _slice_ngram_counts(r, n)).values())
        p = clipped / total
        if p == 0.0:
            if n == 1:
                return 0.0
            p = 1.0 / (2.0 * total)
        precisions.append(p)
    weight = 1.0 / len(precisions)
    geo_mean = math.exp(_sum_left_to_right(weight * math.log(p) for p in precisions))
    brevity = 1.0 if len(h) >= len(r) else math.exp(1.0 - len(r) / len(h))
    return brevity * geo_mean


@st.composite
def _clipping_pairs(draw):
    """Token pairs over a 1-4 token alphabet, so n-grams repeat and clipping
    binds; one hypothesis in three is shorter than BLEU's top order."""
    alphabet = draw(st.lists(st.sampled_from(["a", "b", "ab", "你", ""]), min_size=1,
                             max_size=4, unique=True))
    tokens = st.sampled_from(alphabet)
    ref = draw(st.lists(tokens, max_size=300))
    hyp = draw(st.one_of(st.lists(tokens, max_size=3), st.lists(tokens, max_size=300),
                         st.lists(tokens, max_size=300)))
    return _seq(ref), _seq(hyp)


@given(_clipping_pairs())
@example((_seq([]), _seq([])))
@example((_seq(["a", "b"]), _seq([])))
@example((_seq([]), _seq(["a", "b", "a"])))
@settings(max_examples=400, deadline=None)
def test_clipped_counts_match_the_intersection_oracles(pair):
    ref, hyp = pair
    assert prf(ref, hyp) == _intersection_prf(ref, hyp)
    assert bleu(ref, hyp) == _intersection_bleu(ref, hyp)


CLIPPING_TEXTS = st.text(alphabet="ab 你好\n", max_size=200)


@given(CLIPPING_TEXTS, CLIPPING_TEXTS, st.sampled_from(["word", "char"]))
@example("the cat sat on the mat", "the cat the cat on the mat", "word")
@example("你好你好世界", "你好世界你好", "word")
@settings(max_examples=300, deadline=None)
def test_clipped_counts_match_the_intersection_oracles_on_text(ref_text, hyp_text, granularity):
    ref, hyp = tokenize(ref_text, granularity), tokenize(hyp_text, granularity)
    assert prf(ref, hyp) == _intersection_prf(ref, hyp)
    assert bleu(ref, hyp) == _intersection_bleu(ref, hyp)


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


def _two_pass_align(ref, hyp):
    """Oracle: the same leftmost-greedy alignment, listing every match first and
    counting the chunks (runs contiguous in both sequences) in a second walk."""
    positions = {}
    for i, tok in enumerate(ref):
        positions.setdefault(tok, []).append(i)
    used = [False] * len(ref)
    matches = []
    for j, tok in enumerate(hyp):
        if matches and matches[-1][1] == j - 1:
            cont = matches[-1][0] + 1
            if cont < len(ref) and not used[cont] and ref[cont] == tok:
                used[cont] = True
                matches.append((cont, j))
                continue
        free = [i for i in positions.get(tok, []) if not used[i]]
        if free:
            used[free[0]] = True
            matches.append((free[0], j))
    chunks = sum(
        1
        for k, (i, j) in enumerate(matches)
        if k == 0 or (i, j) != (matches[k - 1][0] + 1, matches[k - 1][1] + 1)
    )
    return len(matches), chunks


# Few distinct tokens, so repeats and contiguous runs are common.
ALIGN_SEQS = st.lists(st.sampled_from(["a", "b", "c", "ab", "你", "好", ""]), max_size=20)


@given(ALIGN_SEQS, ALIGN_SEQS)
@settings(max_examples=500)
def test_align_counts_chunks_like_the_two_pass_oracle(ref_tokens, hyp_tokens):
    m, chunks = _two_pass_align(ref_tokens, hyp_tokens)
    assert _align(tuple(ref_tokens), tuple(hyp_tokens)) == (m, chunks)

    expected = 0.0
    if m:
        p, r = m / len(hyp_tokens), m / len(ref_tokens)
        f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
        expected = f_mean * (1.0 - METEOR_GAMMA * (chunks / m) ** METEOR_BETA)
    assert meteor(_seq(ref_tokens), _seq(hyp_tokens)) == expected


def test_align_skips_used_reference_tokens():
    # the second "a" skips the used ref[0] for ref[2]; the third finds none left
    assert _align(("a", "b", "a"), ("a", "a", "a")) == (2, 2)
    assert _two_pass_align(["a", "b", "a"], ["a", "a", "a"]) == (2, 2)


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


def test_score_corpus_means_sum_left_to_right():
    # ten samples at edit distance 0.1: summed left to right that is
    # 0.9999999999999999, where the compensated sum() of Python 3.12+ gives 1.0
    refs, hyps = _corpus(["abcdefghij"] * 10), _corpus(["abcdefghiX"] * 10)
    reports = [score_texts("abcdefghij", "abcdefghiX", "char")] * 10
    distances = [r.edit_distance for r in reports]
    assert math.fsum(distances) != _sum_left_to_right(distances)
    means = {
        name: _sum_left_to_right(getattr(r, name) for r in reports) / 10
        for name in MetricReport.__slots__
        if name != "n_samples"
    }
    report = score_corpus(refs, hyps, "char")
    assert report == MetricReport(**means, n_samples=10)
    assert report.edit_distance == 0.09999999999999999


def test_score_corpus_rejects_an_empty_corpus():
    with pytest.raises(ValueError) as exc:
        score_corpus(Corpus(()), Corpus(()), "word")
    assert str(exc.value) == "cannot score an empty corpus"


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


_WORDS = st.sampled_from(["one", "two", "three", "你", "好"])
_TEXTS = st.lists(_WORDS, min_size=1, max_size=6).map(" ".join)
_PAIRS = st.lists(st.tuples(_TEXTS, _TEXTS), min_size=2, max_size=6)


def _pair_corpora(pairs, ids):
    refs = Corpus(tuple(Sample(i, TaskKind.PLAIN_DOC, ref) for i, (ref, _) in zip(ids, pairs)))
    hyps = Corpus(tuple(Sample(i, TaskKind.PLAIN_DOC, hyp) for i, (_, hyp) in zip(ids, pairs)))
    return refs, hyps


@given(_PAIRS, st.sampled_from(["word", "char"]))
@settings(max_examples=100, deadline=None)
def test_score_corpus_is_the_per_field_mean_of_score_texts(pairs, granularity):
    ids = [f"s{k:02d}" for k in range(len(pairs))]
    refs, hyps = _pair_corpora(pairs, ids)
    reports = [score_texts(ref, hyp, granularity) for ref, hyp in pairs]
    n = len(reports)
    assert score_corpus(refs, hyps, granularity) == MetricReport(
        edit_distance=_sum_left_to_right(r.edit_distance for r in reports) / n,
        f1=_sum_left_to_right(r.f1 for r in reports) / n,
        precision=_sum_left_to_right(r.precision for r in reports) / n,
        recall=_sum_left_to_right(r.recall for r in reports) / n,
        bleu=_sum_left_to_right(r.bleu for r in reports) / n,
        meteor=_sum_left_to_right(r.meteor for r in reports) / n,
        n_samples=n,
    )


@given(_PAIRS, st.lists(st.text(min_size=1, max_size=4), min_size=6, max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_score_corpus_unchanged_under_id_renaming(pairs, new_ids):
    # the renaming keeps the sorted id order, which is the summation order, so
    # even the last float bit must hold
    old_ids = [f"s{k:02d}" for k in range(len(pairs))]
    renamed = sorted(new_ids)[: len(pairs)]
    before = score_corpus(*_pair_corpora(pairs, old_ids), "word")
    assert score_corpus(*_pair_corpora(pairs, renamed), "word") == before
