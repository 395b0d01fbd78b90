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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal

from ._kernels import levenshtein

if TYPE_CHECKING:
    from .corpus import Corpus

Granularity = Literal["word", "char"]

GRANULARITIES = ("word", "char")

# Blocks whose scalar values are tokenized individually in word mode.
_CJK_RANGES = (
    (0x2E80, 0x2EFF),    # CJK radicals supplement
    (0x3001, 0x303F),    # CJK symbols and punctuation (U+3000 is whitespace)
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # ideographs, extension A
    (0x4E00, 0x9FFF),    # unified ideographs
    (0xF900, 0xFAFF),    # compatibility ideographs
    (0xFF00, 0xFFEF),    # halfwidth and fullwidth forms
    (0x20000, 0x2EBEF),  # ideographs, extensions B-F
)

_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# A run of non-space, non-CJK characters, else one non-space (thus CJK)
# character; the class appears once, which halves the compile time.
_WORD_RE = re.compile(f"[^\\s{_CJK_CLASS}]+|\\S")

# METEOR parameters (fixed): F-mean weight, penalty exponent, penalty weight.
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

BLEU_MAX_ORDER = 4


@dataclass(frozen=True)
class TokenSeq:
    """An ordered token sequence tagged with its tokenization granularity."""

    tokens: tuple[str, ...]
    granularity: Granularity

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class MetricReport:
    """Per-sample or macro-averaged metric values, in report column order."""

    edit_distance: float
    f1: float
    precision: float
    recall: float
    bleu: float
    meteor: float
    n_samples: int

    def as_dict(self) -> dict[str, float | int]:
        return {
            "edit_distance": self.edit_distance,
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "bleu": self.bleu,
            "meteor": self.meteor,
            "n_samples": self.n_samples,
        }


def _check_granularity(granularity: str) -> None:
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")


def tokenize(text: str, granularity: Granularity) -> TokenSeq:
    """Split NFC-normalized text into tokens.

    Word mode treats every CJK scalar value as its own token and splits the
    rest on Unicode whitespace; char mode yields every non-whitespace scalar.
    """
    _check_granularity(granularity)
    text = unicodedata.normalize("NFC", text)
    if granularity == "char":
        tokens = "".join(text.split())
    elif text.isascii():
        tokens = text.split()
    else:
        tokens = _WORD_RE.findall(text)
    return TokenSeq(tuple(tokens), granularity)


Tokenizer = Callable[[str, Granularity], TokenSeq]


def _check_pair(ref: TokenSeq, hyp: TokenSeq) -> None:
    if ref.granularity != hyp.granularity:
        raise ValueError(
            f"granularity mismatch: ref is {ref.granularity!r}, hyp is {hyp.granularity!r}"
        )


def edit_distance_norm(ref: TokenSeq, hyp: TokenSeq) -> float:
    """Levenshtein distance over tokens divided by max(len(ref), len(hyp))."""
    _check_pair(ref, hyp)
    if not ref.tokens and not hyp.tokens:
        return 0.0
    return levenshtein(ref.tokens, hyp.tokens) / max(len(ref), len(hyp))


def prf(ref: TokenSeq, hyp: TokenSeq) -> tuple[float, float, float]:
    """Multiset token precision, recall and F1."""
    _check_pair(ref, hyp)
    matched = sum((Counter(ref.tokens) & Counter(hyp.tokens)).values())
    precision = matched / len(hyp) if hyp.tokens else 0.0
    recall = matched / len(ref) if ref.tokens else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


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
        clipped = sum((_ngram_counts(h, n) & _ngram_counts(r, n)).values())
        p = clipped / total
        if p == 0.0:
            if n == 1:
                return 0.0
            p = 1.0 / (2.0 * total)
        precisions.append(p)
    weight = 1.0 / len(precisions)
    geo_mean = math.exp(sum(weight * math.log(p) for p in precisions))
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
    matches: list[tuple[int, int]] = []
    for j, tok in enumerate(hyp):
        cands = positions.get(tok)
        if cands is None:
            continue
        pick = -1
        if matches and matches[-1][1] == j - 1:
            cont = matches[-1][0] + 1
            if cont < len(ref) and not used[cont] and ref[cont] == tok:
                pick = cont
        if pick < 0:
            k = nexts[tok]
            while k < len(cands) and used[cands[k]]:
                k += 1
            nexts[tok] = k
            if k == len(cands):
                continue
            pick = cands[k]
        used[pick] = True
        matches.append((pick, j))
    chunks = 0
    prev = (-2, -2)
    for pair in matches:
        if pair[0] != prev[0] + 1 or pair[1] != prev[1] + 1:
            chunks += 1
        prev = pair
    return len(matches), chunks


def meteor(ref: TokenSeq, hyp: TokenSeq) -> float:
    """Exact-match METEOR (no stemming or synonyms) with fixed parameters."""
    _check_pair(ref, hyp)
    if not ref.tokens or not hyp.tokens:
        return 0.0
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
    return MetricReport(
        edit_distance=sum(r.edit_distance for r in reports) / n,
        f1=sum(r.f1 for r in reports) / n,
        precision=sum(r.precision for r in reports) / n,
        recall=sum(r.recall for r in reports) / n,
        bleu=sum(r.bleu for r in reports) / n,
        meteor=sum(r.meteor for r in reports) / n,
        n_samples=n,
    )
