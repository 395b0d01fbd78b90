"""Seeded input files for the benchmark workloads.

    PYTHONPATH=src python3 perfbench/inputs.py --workload score-docs --seed 0 --size full --out DIR

Every file is built with stdlib ``random`` through ocrkit's public record and
chart API, so the program under test only ever receives files. The amount of
work per workload (document lengths, edit counts, pair lengths) is fixed by
the size, not drawn from the seed, so runs with different seeds measure the
same amount of work on different text.
"""

from __future__ import annotations

import argparse
import json
import random
import string
from pathlib import Path

from ocrkit.charts import ChartStruct, Series, gen_chart_struct, serialize_chart_struct
from ocrkit.corpus import Corpus, Sample, TaskKind, save_records
from workloads import SIZES, WORKLOADS

ZH_SHARE = 5        # one document in five is zh
GARBLED_SHARE = 10  # one prediction in ten is heavily garbled
PLANTED_SHARE = 10  # one dedup test text in ten is a light edit of a training text

# Edit rates of the prediction noise model, as shares of the reference words.
NOISE = {"sub": 0.08, "del": 0.03, "ins": 0.03, "split": 0.01, "merge": 0.01}
GARBLED_NOISE = {"sub": 0.45, "del": 0.15, "ins": 0.10, "split": 0.0, "merge": 0.0}

CHART_FORMS = ("dict", "table")


def spread(n: int, lo: int, hi: int) -> list[int]:
    """n >= 2 integers spaced evenly over [lo, hi]: the fixed length profile."""
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def log_spread(n: int, lo: int, hi: int) -> list[int]:
    """n >= 2 integers spaced geometrically over [lo, hi]: more lines than paragraphs."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


class Vocab:
    """Zipf-weighted English-like words and CJK ideographs, fixed by the rng."""

    def __init__(self, rng: random.Random, n_words: int = 3000, n_chars: int = 2500) -> None:
        onsets = "b c d f g h k l m n p r s t v w st tr pl gr ch sh".split()
        vowels = "a e i o u ai ea ou io".split()
        words: set[str] = set()
        while len(words) < n_words:
            words.add("".join(rng.choice(onsets) + rng.choice(vowels)
                              for _ in range(rng.randint(1, 4))))
        self.words = sorted(words)
        rng.shuffle(self.words)
        self.chars = [chr(0x4E00 + k) for k in rng.sample(range(0x5000), n_chars)]
        self._word_cum = _zipf_cum(len(self.words))
        self._char_cum = _zipf_cum(len(self.chars))

    def word(self, rng: random.Random) -> str:
        return rng.choices(self.words, cum_weights=self._word_cum)[0]

    def char(self, rng: random.Random) -> str:
        return rng.choices(self.chars, cum_weights=self._char_cum)[0]


def _zipf_cum(n: int) -> list[float]:
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank
        cum.append(total)
    return cum


def en_tokens(rng: random.Random, vocab: Vocab, n: int) -> list[str]:
    return [vocab.word(rng) for _ in range(n)]


def zh_tokens(rng: random.Random, vocab: Vocab, n: int) -> list[str]:
    """CJK ideographs with CJK punctuation and a few ASCII numbers mixed in."""
    out = []
    for i in range(n):
        if i % 23 == 22:
            out.append(rng.choice("，。、"))
        elif i % 41 == 40:
            out.append(str(rng.randint(1, 2030)))
        else:
            out.append(vocab.char(rng))
    return out


def join_tokens(tokens: list[str], lang: str) -> str:
    """Lines of 12 words (en) or 30 characters (zh)."""
    width, sep = (12, " ") if lang == "en" else (30, "")
    return "\n".join(sep.join(tokens[i : i + width]) for i in range(0, len(tokens), width))


def add_noise(rng: random.Random, tokens: list[str], rates: dict[str, float],
              vocab: Vocab, lang: str) -> list[str]:
    """Apply fixed counts of each edit kind at random positions."""
    n = len(tokens)
    kinds = [k for k, r in rates.items() for _ in range(round(r * n))]
    if lang == "zh":  # splitting or merging CJK text leaves its word tokens unchanged
        kinds = ["sub" if k in ("split", "merge") else k for k in kinds]
    ops = dict(zip(rng.sample(range(n), len(kinds)), kinds))
    fresh = vocab.word if lang == "en" else vocab.char
    out: list[str] = []
    for i, tok in enumerate(tokens):
        op = ops.get(i)
        if op == "sub":
            out.append(fresh(rng))
        elif op == "ins":
            out.extend((tok, fresh(rng)))
        elif op == "split" and len(tok) > 1:
            cut = rng.randint(1, len(tok) - 1)
            out.extend((tok[:cut], tok[cut:]))
        elif op == "merge" and out:
            out[-1] += tok
        elif op != "del":
            out.append(tok)
    return out


def score_docs(rng: random.Random, size: dict, out: Path) -> None:
    """gt.jsonl and pred.jsonl: page-length documents and noisy predictions."""
    vocab = Vocab(rng)
    n = size["docs"]
    lengths = spread(n, *size["doc_words"])
    rng.shuffle(lengths)
    zh = set(rng.sample(range(n), n // ZH_SHARE))
    garbled = set(rng.sample(range(n), n // GARBLED_SHARE))
    refs, hyps = [], []
    for i, length in enumerate(lengths):
        lang = "zh" if i in zh else "en"
        make = zh_tokens if lang == "zh" else en_tokens
        ref = make(rng, vocab, length)
        hyp = add_noise(rng, ref, GARBLED_NOISE if i in garbled else NOISE, vocab, lang)
        sid = f"doc-{i:05d}"
        refs.append(Sample(sid, TaskKind.PLAIN_DOC, join_tokens(ref, lang), "OCR this page:", lang))
        hyps.append(Sample(sid, TaskKind.PLAIN_DOC, join_tokens(hyp, lang), "", lang))
    rng.shuffle(hyps)  # predictions are paired by id, not by position
    save_records(Corpus(tuple(refs)), out / "gt.jsonl")
    save_records(Corpus(tuple(hyps)), out / "pred.jsonl")


def text_of_length(rng: random.Random, vocab: Vocab, chars: int) -> str:
    """Words up to exactly ``chars`` characters, a line break every ~60."""
    parts, used, line = [], 0, 0
    while used < chars:
        word = vocab.word(rng)
        sep = "" if not parts else ("\n" if line > 60 else " ")
        line = 0 if sep == "\n" else line + len(sep) + len(word)
        parts.append(sep + word)
        used += len(sep) + len(word)
    return "".join(parts)[:chars].rstrip()


def light_edit(rng: random.Random, text: str) -> str:
    """One non-space character edit per 40 (at least one): similarity stays above 0.9."""
    chars = list(text)
    for _ in range(max(1, sum(not c.isspace() for c in chars) // 40)):
        pos = rng.choice([i for i, c in enumerate(chars) if not c.isspace()])
        kind = rng.choice(("sub", "del", "ins"))
        if kind == "sub":
            chars[pos] = rng.choice(string.ascii_lowercase.replace(chars[pos], ""))
        elif kind == "del":
            del chars[pos]
        else:
            chars.insert(pos, rng.choice(string.ascii_lowercase))
    return "".join(chars)


def dedup_lines(rng: random.Random, size: dict, out: Path) -> None:
    """test.jsonl and train.jsonl for decontamination at threshold 0.9.

    The training set is the larger, as in real decontamination. The planted
    near-duplicates copy the last training texts, at fixed length ranks, so
    ``dedup`` evaluates the same pairs whatever the seed; with one planted
    text it evaluates every test x train pair before its first match.
    """
    vocab = Vocab(rng)
    n_test, n_train = size["dedup_test"], size["dedup_train"]
    n_planted = max(1, n_test // PLANTED_SHARE)
    lengths = log_spread(n_train, *size["dedup_chars"])
    src_ranks = [(2 * k + 1) * n_train // (2 * n_planted) for k in range(n_planted)]
    train_lengths = [length for r, length in enumerate(lengths) if r not in src_ranks]
    rng.shuffle(train_lengths)
    train_lengths += [lengths[r] for r in src_ranks]
    train = [text_of_length(rng, vocab, length) for length in train_lengths]
    test = [light_edit(rng, text) for text in train[n_train - n_planted:]]
    test_lengths = log_spread(n_test - n_planted, *size["dedup_chars"])
    test += [text_of_length(rng, vocab, length) for length in test_lengths]
    rng.shuffle(test)
    save_records(Corpus(tuple(Sample(f"train-{i:05d}", TaskKind.PLAIN_DOC, t)
                              for i, t in enumerate(train))), out / "train.jsonl")
    save_records(Corpus(tuple(Sample(f"test-{i:05d}", TaskKind.PLAIN_DOC, t)
                              for i, t in enumerate(test))), out / "test.jsonl")


def perturb_chart(rng: random.Random, gt: ChartStruct) -> ChartStruct:
    """Jittered values across the AP tolerances, one dropped and one renamed label."""
    labels = [label for label, _ in gt.series[0].points]
    dropped = renamed = None
    if len(labels) >= 3:
        dropped, renamed = rng.sample(labels, 2)
    series = []
    for s in gt.series:
        points = []
        for label, value in s.points:
            if label == dropped:
                continue
            band = rng.choices(((0.0, 0.0), (0.01, 0.04), (0.06, 0.09), (0.2, 0.5)),
                               weights=(40, 25, 20, 15))[0]
            value *= 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(*band)
            points.append((f"{label} alt" if label == renamed else label, value))
        series.append(Series(s.name, tuple(points)))
    return ChartStruct(tuple(series), gt.title, gt.source, gt.x_title, gt.y_title)


def engines(rng: random.Random, size: dict, out: Path) -> None:
    """Page pool, two mix stages, and chart ground truth/predictions per form."""
    vocab = Vocab(rng)
    n_pool = size["pool_pages"]
    zh = set(rng.sample(range(n_pool), n_pool // ZH_SHARE))
    with open(out / "pool.jsonl", "w", encoding="utf-8") as handle:
        for i, length in enumerate(spread(n_pool, 100, 500)):
            lang = "zh" if i in zh else "en"
            make = zh_tokens if lang == "zh" else en_tokens
            row = {"page_id": f"p{i:04d}", "text": join_tokens(make(rng, vocab, length), lang),
                   "image_ref": f"pages/p{i:04d}.png"}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    for stage in ("prev", "new"):
        samples = tuple(
            Sample(f"{stage}-{i:05d}", TaskKind.SCENE_TEXT,
                   text_of_length(rng, vocab, rng.randint(10, 120)),
                   "Read the text in the image:", image_ref=f"scenes/{stage}-{i:05d}.jpg",
                   meta={"stage": stage})
            for i in range(size[f"stage_{stage}"]))
        save_records(Corpus(samples), out / f"stage_{stage}.jsonl")
    for form in CHART_FORMS:
        gts, preds = [], []
        for i in range(size["chart_scored"]):
            gt, _ = gen_chart_struct(rng.randrange(2**31))
            sid = f"chart-{i:05d}"
            gts.append(Sample(sid, TaskKind.CHART, serialize_chart_struct(gt, form)))
            preds.append(Sample(sid, TaskKind.CHART,
                                serialize_chart_struct(perturb_chart(rng, gt), form)))
        save_records(Corpus(tuple(gts)), out / f"chart_gt_{form}.jsonl")
        save_records(Corpus(tuple(preds)), out / f"chart_pred_{form}.jsonl")


GENERATORS = {"score-docs": score_docs, "dedup-lines": dedup_lines, "engines": engines}


def generate(workload: str, seed: int, size: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](random.Random(f"{workload}:{seed}"), SIZES[size], out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
