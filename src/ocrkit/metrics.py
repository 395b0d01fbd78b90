"""Text-similarity metrics for OCR scoring.

Implements the six benchmark metrics (normalized edit distance, precision,
recall, F1, BLEU-4, exact-match METEOR) over word- or character-level token
sequences, plus macro-averaged corpus aggregation. CJK characters are always
single tokens, even at word granularity; everything else splits on Unicode
whitespace.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Literal

from ._kernels import levenshtein
from ._record import Record

if TYPE_CHECKING:
    from .corpus import Corpus

Granularity = Literal["word", "char"]

GRANULARITIES = ("word", "char")

# Blocks whose scalar values are tokenized individually in word mode.
_CJK_RANGES = (
    (0x2E80, 0x2EFF),    # CJK radicals supplement
    (0x3001, 0x303F),    # CJK symbols and punctuation (U+3000 is whitespace)
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3100, 0x312F),    # bopomofo
    (0x31A0, 0x31BF),    # bopomofo extended
    (0x31F0, 0x31FF),    # katakana phonetic extensions
    (0x3400, 0x4DBF),    # ideographs, extension A
    (0x4E00, 0x9FFF),    # unified ideographs
    (0xF900, 0xFAFF),    # compatibility ideographs
    (0xFF00, 0xFFEF),    # halfwidth and fullwidth forms
    (0x1AFF0, 0x1B16F),  # kana extended-B, kana supplement, kana extended-A, small kana
    (0x20000, 0x2EBEF),  # ideographs, extensions B-F
    (0x2EBF0, 0x2EE5F),  # ideographs, extension I
    (0x30000, 0x323AF),  # ideographs, extensions G-H
)

_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# A run of non-space, non-CJK characters, else one non-space (thus CJK)
# character; the class appears once, which halves the compile time. Kept as
# a string: re's cache compiles it on the first non-ASCII word-mode call, so
# processes that never tokenize such text do not pay for the compile.
_WORD_PATTERN = f"[^\\s{_CJK_CLASS}]+|\\S"

# METEOR parameters (fixed): F-mean weight, penalty exponent, penalty weight.
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

BLEU_MAX_ORDER = 4


class TokenSeq(Record):
    """An ordered token sequence tagged with its tokenization granularity."""

    __slots__ = ("tokens", "granularity")

    def __init__(self, tokens: tuple[str, ...], granularity: Granularity):
        super().__init__(tokens, granularity)

    def __len__(self) -> int:
        return len(self.tokens)


class MetricReport(Record):
    """Per-sample or macro-averaged metric values, in report column order."""

    __slots__ = ("edit_distance", "f1", "precision", "recall", "bleu", "meteor", "n_samples")

    def __init__(
        self,
        edit_distance: float,
        f1: float,
        precision: float,
        recall: float,
        bleu: float,
        meteor: float,
        n_samples: int,
    ):
        super().__init__(edit_distance, f1, precision, recall, bleu, meteor, n_samples)


def _check_granularity(granularity: str) -> None:
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")


def tokenize(text: str, granularity: Granularity) -> TokenSeq:
    """Split NFC-normalized text into tokens.

    Word mode treats every scalar value of the CJK blocks (``_CJK_RANGES``)
    as its own token and splits the rest on Unicode whitespace; char mode
    yields every non-whitespace scalar.
    """
    _check_granularity(granularity)
    text = unicodedata.normalize("NFC", text)
    if granularity == "char":
        tokens = "".join(text.split())
    elif text.isascii():
        tokens = text.split()
    else:
        tokens = re.findall(_WORD_PATTERN, text)
    return TokenSeq(tuple(tokens), granularity)


Tokenizer = Callable[[str, Granularity], TokenSeq]


def _check_pair(ref: TokenSeq, hyp: TokenSeq) -> None:
    if ref.granularity != hyp.granularity:
        raise ValueError(
            f"granularity mismatch: ref is {ref.granularity!r}, hyp is {hyp.granularity!r}"
        )


def edit_distance_norm(ref: TokenSeq, hyp: TokenSeq, limit: int | None = None) -> float:
    """Levenshtein distance over tokens divided by max(len(ref), len(hyp)).

    With a ``limit`` the distance is capped first: the result is
    ``min(distance, limit + 1) / max_len``, which is exact whenever the
    distance is at most ``limit``.
    """
    _check_pair(ref, hyp)
    if not ref.tokens and not hyp.tokens:
        return 0.0
    return levenshtein(ref.tokens, hyp.tokens, limit) / max(len(ref), len(hyp))


def _clipped(hyp_counts: Counter, ref_counts: Counter) -> int:
    """Sum over hypothesis items of min(hypothesis count, reference count)."""
    return sum(map(min, hyp_counts.values(), map(ref_counts.get, hyp_counts, repeat(0))))


def prf(ref: TokenSeq, hyp: TokenSeq) -> tuple[float, float, float]:
    """Multiset token precision, recall and F1."""
    _check_pair(ref, hyp)
    matched = _clipped(Counter(hyp.tokens), Counter(ref.tokens))
    precision = matched / len(hyp) if hyp.tokens else 0.0
    recall = matched / len(ref) if ref.tokens else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    # Counter and zip run in C. Unigrams are counted as bare tokens: hashing
    # 1-tuples instead makes char-granularity BLEU ~12% slower.
    if n == 1:
        return Counter(tokens)
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _sum_left_to_right(values: Iterable[float]) -> float:
    # not sum(): from Python 3.12 on it compensates float rounding, changing the last bits
    total = 0.0
    for value in values:
        total += value
    return total


def bleu(ref: TokenSeq, hyp: TokenSeq) -> float:
    """BLEU-4 with uniform weights over clipped n-gram precisions.

    A zero precision for n > 1 is smoothed to 1/(2 * #hyp n-grams); orders
    longer than the hypothesis are dropped and the weights renormalized. The
    brevity penalty exp(1 - |ref|/|hyp|) applies when the hypothesis is
    shorter than the reference.
    """
    _check_pair(ref, hyp)
    r, h = ref.tokens, hyp.tokens
    if not h:
        return 0.0
    precisions = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        if len(h) < n:
            break
        total = len(h) - n + 1
        clipped = _clipped(_ngram_counts(h, n), _ngram_counts(r, n))
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


def _align(ref: tuple[str, ...], hyp: tuple[str, ...]) -> tuple[int, int]:
    """Leftmost-greedy unigram alignment; returns (matches, chunks).

    Each hypothesis token takes the continuation of the current chunk when
    possible, otherwise the leftmost unmatched reference occurrence. Chunks
    are maximal runs contiguous in both sequences.
    """
    positions: dict[str, list[int]] = {}
    for i, tok in enumerate(ref):
        positions.setdefault(tok, []).append(i)
    used = [False] * len(ref)
    nexts: dict[str, int] = {tok: 0 for tok in positions}
    matches = chunks = 0
    last_ref = last_hyp = -2
    for j, tok in enumerate(hyp):
        cands = positions.get(tok)
        if cands is None:
            continue
        pick = last_ref + 1
        if last_hyp != j - 1 or pick == len(ref) or used[pick] or ref[pick] != tok:
            # No continuation, so the leftmost pick cannot be contiguous with
            # the last match (if it were, it would be the continuation).
            k = nexts[tok]
            while k < len(cands) and used[cands[k]]:
                k += 1
            nexts[tok] = k
            if k == len(cands):
                continue
            pick = cands[k]
            chunks += 1
        used[pick] = True
        matches += 1
        last_ref, last_hyp = pick, j
    return matches, chunks


def meteor(ref: TokenSeq, hyp: TokenSeq) -> float:
    """Exact-match METEOR (no stemming or synonyms) with fixed parameters."""
    _check_pair(ref, hyp)
    m, chunks = _align(ref.tokens, hyp.tokens)
    if m == 0:
        return 0.0
    precision = m / len(hyp)
    recall = m / len(ref)
    f_mean = precision * recall / (METEOR_ALPHA * precision + (1.0 - METEOR_ALPHA) * recall)
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return f_mean * (1.0 - penalty)


def score_texts(
    ref_text: str,
    hyp_text: str,
    granularity: Granularity,
    tokenizer: Tokenizer = tokenize,
) -> MetricReport:
    """Score a single reference/hypothesis text pair."""
    ref = tokenizer(ref_text, granularity)
    hyp = tokenizer(hyp_text, granularity)
    precision, recall, f1 = prf(ref, hyp)
    return MetricReport(
        edit_distance=edit_distance_norm(ref, hyp),
        f1=f1,
        precision=precision,
        recall=recall,
        bleu=bleu(ref, hyp),
        meteor=meteor(ref, hyp),
        n_samples=1,
    )


def score_corpus(
    refs: "Corpus",
    hyps: "Corpus",
    granularity: Granularity,
    tokenizer: Tokenizer = tokenize,
) -> MetricReport:
    """Macro-average the six metrics over paired-by-id corpora.

    ``hyps`` must carry exactly one record per reference id, with the
    predicted text in its ground_truth field. Aggregation sums in sorted id
    order, so the result does not depend on record order.
    """
    from .corpus import pair_by_id  # corpus imports this module

    _check_granularity(granularity)
    pairs = pair_by_id(refs, hyps)
    if not pairs:
        raise ValueError("cannot score an empty corpus")

    reports = [
        score_texts(ref.ground_truth, hyp.ground_truth, granularity, tokenizer)
        for ref, hyp in pairs
    ]

    n = len(reports)
    means = {
        name: _sum_left_to_right(getattr(r, name) for r in reports) / n
        for name in MetricReport.__slots__
        if name != "n_samples"
    }
    return MetricReport(**means, n_samples=n)
