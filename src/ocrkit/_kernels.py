"""Exact bit-parallel Levenshtein distance over token sequences.

Myers (1999, "A fast bit-vector algorithm for approximate string matching",
JACM 46(3)) in Hyyrö's (2003) edit-distance form. One column of the DP matrix
is held as vertical +1/-1 delta bit vectors over the pattern (the longer
sequence), and each text token (of the shorter sequence) advances the whole
column with a constant number of word operations. Python ints serve as bit
vectors of any width, so there is no 64-token block limit, and the
pattern-match table is keyed by the tokens themselves. The longer side is
the pattern because a step's cost grows far more slowly than the pattern's
width, so reading the shorter side is the cheaper orientation. Complements
are taken as ``x ^ mask`` rather than ``~x``: the two agree on the pattern's
bits, and only those reach the result, but ``~x`` is a negative int, on
which CPython's bitwise operations take a slower two's-complement path.

An optional distance limit adds Ukkonen's (1985, "Algorithms for approximate
string matching", Information and Control 64) cutoff in its last-row form: a
text token changes the last DP row by at most one, so the final distance is
at least ``dist - tokens_left``. Once that bound exceeds the limit the answer
is settled and the kernel stops reading the text. The distance is at least
the length gap, so a gap above the limit is settled before the pattern table
is built, and no token is hashed.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable], limit: int | None = None) -> int:
    """Unit-cost edit distance between two token sequences, capped at ``limit + 1``.

    ``levenshtein(a, b, k) == min(distance, k + 1)`` for every ``k >= 0``, so
    any result above ``k`` means only "more than k"; ``limit=None`` returns
    the exact distance.
    """
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if limit is None:
        limit = n  # the distance never exceeds the longer length: no cutoff
    if m == 0 or n - m > limit:
        return min(n, limit + 1)
    peq: dict[Hashable, int] = {}
    bit = 1
    for tok in a:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn, dist = mask, 0, n
    reach = limit + m  # limit + tokens left: past it, dist can no longer fall to the limit
    # ``x ^ mask`` is ``~x`` on the pattern's bits, and bits above them never
    # carry down into them, so every vector stays a small non-negative int.
    for tok in b:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ((d0 | vp) ^ mask)
        hn = d0 & vp
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        reach -= 1
        if dist > reach:
            return limit + 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ((d0 | hp) ^ mask)) & mask
        vn = hp & d0
    return dist
