#!/usr/bin/env python3
"""Compare this checkout's ``src`` ("after") with the ``src`` of a git revision ("before").

The revision given by ``--before`` is exported to a temporary directory.
Every subcommand loads both trees' ``src/ocrkit`` into this process, as
two packages under different names, and times plain functions of each.
The runs come in 21 (PAIRS) back-to-back pairs, one run of each tree, with
the first tree alternating from pair to pair, and both trees must give the
same answer in every run. Each row gives both trees' medians, the median
of the pairs' after/before ratios with its interquartile range, and in how
many pairs the after tree was faster (ratio below 1). The report, with the
core count and the Python version, is written as JSON to ``--out``
(``BENCH_<sub>.json``).

    python benchmarks/compare.py scoring --before HEAD       # uncommitted work vs HEAD
    python benchmarks/compare.py scoring --before HEAD~1 --out /tmp/scoring.json
    python benchmarks/compare.py dedup --before HEAD~1
    python benchmarks/compare.py parse --before HEAD~1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SEED = 0  # of the perfbench/inputs.py corpora and the mutated texts
PAIRS = 21  # back-to-back before/after pairs behind every row
SIDES = ("before", "after")


def export_src(rev: str, dest: Path) -> Path:
    """Write the ``src`` tree of git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def load(src: Path, name: str) -> ModuleType:
    """``src/ocrkit`` as a package named ``name``, apart from any other copy of ocrkit.

    The package's modules import each other relatively, so ``<name>.metrics``
    is this tree's metrics module, and nothing named ``ocrkit`` is imported.
    """
    package = src / "ocrkit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def loaded(trees: dict[str, Path], module: str) -> dict[str, ModuleType]:
    """Each tree's ``ocrkit.<module>``, the trees loaded side by side as ``ocrkit_<side>``."""
    for side, src in trees.items():
        if f"ocrkit_{side}" not in sys.modules:
            load(src, f"ocrkit_{side}")
    return {side: importlib.import_module(f"ocrkit_{side}.{module}") for side in trees}


def batch(fn: Callable[[], object], number: int) -> tuple[float, object]:
    """Seconds per call over ``number`` back-to-back calls of ``fn``, and the last result.

    Garbage collection is off while they run, as in ``timeit``.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            answer = fn()
        return (time.perf_counter() - start) / number, answer
    finally:
        gc.enable()


def paired(name: str, measure: Callable[[str], tuple[float, object]]) -> tuple[dict, object]:
    """The row ``name`` of ``measure`` over PAIRS pairs of runs, and the answer.

    ``measure(side)`` runs the tree ``side`` ("before" or "after") once and
    returns its time and its answer. Each pair runs the two trees back to
    back, the first one alternating from pair to pair. Every answer must
    equal the before tree's answer in the first pair.
    """
    runs: dict[str, list[float]] = {side: [] for side in SIDES}
    for k in range(PAIRS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            seconds, answer = measure(side)
            if k == 0 and side == SIDES[0]:
                expected = answer
            elif answer != expected:
                raise SystemExit(disagreement(side, answer, k, expected))
            runs[side].append(seconds)
    return row(name, runs["before"], runs["after"]), expected


def disagreement(side: str, answer: object, k: int, expected: object) -> str:
    """Where ``side``'s answer in pair ``k`` differs from the before tree's in pair 0.

    Two lists or tuples are shown at their first differing index, or by
    their lengths when one is the start of the other.
    """
    at = ""
    if isinstance(answer, (list, tuple)) and isinstance(expected, (list, tuple)):
        index = next((i for i, (a, e) in enumerate(zip(answer, expected)) if a != e), None)
        if index is None:
            return (f"the trees disagree: {side} gave {len(answer)} items in pair {k}, "
                    f"before gave {len(expected)} in pair 0")
        answer, expected, at = answer[index], expected[index], f" at index {index}"
    return (f"the trees disagree: {side} gave {answer!r:.300}{at} in pair {k}, "
            f"before gave {expected!r:.300}{at} in pair 0")


def row(name: str, before: list[float], after: list[float]) -> dict:
    """Both sides' medians and the median, quartiles and count below 1 of the pairs'
    ratios ``after[k] / before[k]``."""
    ratios = [a / b for b, a in zip(before, after, strict=True)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"name": name, "before": statistics.median(before),
            "after": statistics.median(after), "ratio": statistics.median(ratios),
            "ratio_iqr": [q1, q3], "after_faster": sum(r < 1 for r in ratios),
            "pairs": len(ratios)}


def calls(name: str, fns: dict[str, Callable[[], object]], scale: float) -> tuple[dict, object]:
    """The row of ``fns[side]()`` timed in this process, per call times ``scale``, and its answer.

    Each run is one batch of as many calls as ``timeit`` picks for the after
    side to take at least 0.2 s; the before side is called once first, so
    neither side's first call is timed.
    """
    fns["before"]()
    number, _ = timeit.Timer(fns["after"]).autorange()

    def measure(side: str) -> tuple[float, object]:
        seconds, answer = batch(fns[side], number)
        return seconds * scale, answer

    return paired(name, measure)


def print_table(unit: str, rows: list[dict]) -> None:
    print(f"{unit}, median of {PAIRS} pairs; ratio = after / before per pair, its median "
          "and interquartile range; faster = pairs with ratio below 1")
    print(f"{'':<24}{'before':>11}{'after':>11}{'ratio':>8}  {'IQR':<16}{'faster':>7}")
    for r in rows:
        q1, q3 = r["ratio_iqr"]
        print(f"{r['name']:<24}{r['before']:>11.4g}{r['after']:>11.4g}{r['ratio']:>8.3f}  "
              f"[{q1:.3f}, {q3:.3f}]{r['after_faster']:>5}/{r['pairs']}")


def write_corpus(generator: str, size: dict, folder: Path) -> Path:
    """``folder`` filled by a generator of ``perfbench/inputs.py`` at ``SEED``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs

    folder.mkdir()
    getattr(inputs, generator.replace("-", "_"))(random.Random(f"{generator}:{SEED}"), size, folder)
    return folder


# --- scoring -------------------------------------------------------------------------

DOCS = 300
DOC_WORDS = 400
GRANULARITIES = ("word", "char")
LAYERS = ("edit_distance_norm", "prf", "bleu", "meteor")  # timed on the tokenized pairs


def scoring(trees: dict[str, Path], tmp: Path) -> dict:
    """The scoring layers on a seeded corpus of 300 documents of 400 words.

    The corpus comes from the ``score-docs`` generator of
    ``perfbench/inputs.py`` (one document in five is zh, one prediction in
    ten heavily garbled). Both trees are loaded into this process. At each
    granularity a row times one layer over the whole corpus: ``tokenize`` of
    both sides, then ``edit_distance_norm``, ``prf``, ``bleu`` and ``meteor``
    on the tokenized pairs, and one ``score_corpus`` call. Both trees must
    return the same tokens, the same value of every layer for every pair and
    the same corpus report.
    """
    folder = write_corpus("score-docs", {"docs": DOCS, "doc_words": (DOC_WORDS, DOC_WORDS)},
                          tmp / "corpus")
    metrics, corpus = loaded(trees, "metrics"), loaded(trees, "corpus")

    def layers(side: str, granularity: str) -> dict[str, Callable[[], object]]:
        m, records = metrics[side], corpus[side].load_records
        refs, hyps = records(folder / "gt.jsonl"), records(folder / "pred.jsonl")
        texts = [(r.ground_truth, h.ground_truth) for r, h in corpus[side].pair_by_id(refs, hyps)]
        tokenize = partial(m.tokenize, granularity=granularity)
        pairs = [(tokenize(r), tokenize(h)) for r, h in texts]

        def each_pair(fn: Callable) -> Callable[[], list]:
            return lambda: [fn(r, h) for r, h in pairs]

        return {"tokenize": lambda: [(tokenize(r).tokens, tokenize(h).tokens) for r, h in texts],
                **{layer: each_pair(getattr(m, layer)) for layer in LAYERS},
                "score_corpus": lambda: m.score_corpus(refs, hyps, granularity).as_dict()}

    rows = []
    for granularity in GRANULARITIES:
        sides = {side: layers(side, granularity) for side in SIDES}
        for layer in sides["after"]:
            fns = {side: got[layer] for side, got in sides.items()}
            rows.append(calls(f"{granularity} {layer}", fns, 1e3)[0])
    return {
        "workload": f"perfbench score-docs generator, seed {SEED}, {DOCS} docs of {DOC_WORDS} "
                    "words; each layer over the whole corpus",
        "unit": "ms per pass over the corpus",
        "rows": rows,
    }


# --- dedup ---------------------------------------------------------------------------

TEST = 100
TRAIN = 1000
CHARS = (20, 400)
THRESHOLD = 0.9


def dedup(trees: dict[str, Path], tmp: Path) -> dict:
    """``dedup_filter`` on a seeded corpus of 100 test x 1000 training texts.

    The corpus comes from the ``dedup-lines`` generator of
    ``perfbench/inputs.py`` (texts of 20 to 400 characters, one test text in
    ten a light edit of a training text) and is filtered at threshold 0.9.
    Both trees are loaded into this process, and each reads both files once,
    untimed. The row times ``dedup_filter`` calls, tokenization included.
    Both trees must keep the same test ids.
    """
    folder = write_corpus("dedup-lines",
                          {"dedup_test": TEST, "dedup_train": TRAIN, "dedup_chars": CHARS},
                          tmp / "corpus")
    corpus = loaded(trees, "corpus")

    def kept_ids(side: str) -> Callable[[], list[str]]:
        c = corpus[side]
        test, train = c.load_records(folder / "test.jsonl"), c.load_records(folder / "train.jsonl")
        return lambda: [s.id for s in c.dedup_filter(test, train, THRESHOLD).samples]

    got, kept = calls("dedup_filter", {side: kept_ids(side) for side in SIDES}, 1e3)
    print(f"both trees keep the same {len(kept)} test ids")
    return {
        "workload": f"perfbench dedup-lines generator, seed {SEED}, {TEST} test x {TRAIN} "
                    f"train texts of {CHARS[0]}-{CHARS[1]} chars, threshold {THRESHOLD}",
        "unit": "ms per dedup_filter call",
        "rows": [got],
        "kept": len(kept),
    }


# --- parse ---------------------------------------------------------------------------

PARSE_TEXTS = 200  # valid seeded texts per form, timed
MUTATED = 10_000  # seeded mutated texts per reader
# The characters the two grammars give meaning to, plus a few that neither uses,
# as in tests/test_parser_fuzz.py, which also has the four edit operations.
SYNTAX = "{}[]()'\":,;|=*.-+eE0123456789 \t\n\\drawplotcycle中é"
EDITS = ("insert", "delete", "replace", "truncate")
CHART_FORMS = ("dict", "table")
GENERATED = 4000  # seeds per generator configuration whose output bytes both trees must share


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to four seeded edits of ``tests/test_parser_fuzz.py``."""
    for _ in range(rng.randint(1, 4)):
        op, i = rng.choice(EDITS), rng.randrange(len(text) + 1)
        pick = rng.random()
        char = (rng.choice(SYNTAX) if pick < 0.5 else
                chr(rng.randrange(0x80) if pick < 0.75 else rng.randrange(0x80, 0xD800)))
        if op == "insert":
            text = text[:i] + char + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        elif op == "truncate":
            text = text[:i]
        else:
            text = text[:i] + char + text[i + 1 :]
    return text


def digest(parse: Callable[[str], object], errors: tuple, texts: list[str]):
    """A pass of ``parse`` over ``texts`` that returns the count of rejected texts and a
    digest of every result, or of every error's class, line, column and message."""
    def run() -> tuple[int, str]:
        sha, rejected = hashlib.sha256(), 0
        for text in texts:
            try:
                got = repr(parse(text))
            except errors as exc:
                got = repr((type(exc).__name__, exc.line, exc.column, exc.message, str(exc)))
                rejected += 1
            sha.update(got.encode() + b"\0")
        return rejected, sha.hexdigest()
    return run


def hashed(texts: Callable[[], object]):
    """A call of ``texts()`` that returns the digest of the texts it yields."""
    def run() -> str:
        sha = hashlib.sha256()
        for text in texts():
            sha.update(text.encode() + b"\0")
        return sha.hexdigest()
    return run


def parse(trees: dict[str, Path], tmp: Path) -> dict:
    """The chart and TikZ readers on seeded valid and mutated texts, and their generators.

    The valid texts are PARSE_TEXTS charts of ``gen_chart_struct`` in the
    dict form and in the table form, and PARSE_TEXTS scenes of ``gen_scene``
    emitted as TikZ, all from this checkout's generators. Both trees are
    loaded into this process. One row times ``parse_chart_output`` on each
    chart form and one ``parse_tikz_subset`` on the scenes. The ``answers``
    rows parse each reader's valid texts and MUTATED texts of its kind (the
    charts in the dict or the table form, at random), each edited one to
    four times by inserting, deleting or replacing a character or by cutting
    the text short. Both trees must return the same result, or the same
    error class, line, column and message, for every text. The ``generated``
    rows hash what each reader's generator writes for seeds 0 to GENERATED - 1
    (each chart in the dict and the table form; each scene under the default
    SceneConfig, bounds=(0, 1) and hyperbolas only), and both trees must
    write the same bytes.
    """
    charts, geometry = loaded(trees, "charts"), loaded(trees, "geometry")
    c, g = charts["after"], geometry["after"]

    def chart(seed: int, form: str) -> str:
        return c.serialize_chart_struct(c.gen_chart_struct(seed)[0], form)

    def scene(seed: int) -> str:
        return g.emit_tikz(g.gen_scene(seed)).source

    rng = random.Random(f"parse:{SEED}")
    valid = {"chart": {form: [chart(seed, form) for seed in range(PARSE_TEXTS)]
                       for form in CHART_FORMS},
             "tikz": {"tikz": [scene(seed) for seed in range(PARSE_TEXTS)]}}
    mutated = {"chart": [mutate(rng, chart(rng.randrange(2**31), rng.choice(CHART_FORMS)))
                         for _ in range(MUTATED)],
               "tikz": [mutate(rng, scene(rng.randrange(2**31))) for _ in range(MUTATED)]}

    def readers(side: str) -> dict:
        c, g = charts[side], geometry[side]
        # the TikZ reader through the package's public names, wherever the tree defines it
        package = sys.modules[f"ocrkit_{side}"]
        configs = (g.SceneConfig(), g.SceneConfig(bounds=(0, 1)),
                   g.SceneConfig(kinds=("hyperbola",)))
        seeds = range(GENERATED)
        return {
            "chart": (c.parse_chart_output, c.ChartParseError,
                      lambda: (c.serialize_chart_struct(c.gen_chart_struct(seed)[0], form)
                               for seed in seeds for form in CHART_FORMS)),
            "tikz": (package.parse_tikz_subset, package.TikzParseError,
                     lambda: (g.emit_tikz(g.gen_scene(seed, config)).source
                              for seed in seeds for config in configs)),
        }

    sides = {side: readers(side) for side in SIDES}
    rows, answer = [], {}
    for reader, forms in valid.items():
        for form, texts in forms.items():
            fns = {side: partial(lambda p, b: len([p(t) for t in b]), got[reader][0], texts)
                   for side, got in sides.items()}
            rows.append(calls(form, fns, 1e6 / len(texts))[0])
        texts = [t for form_texts in forms.values() for t in form_texts] + mutated[reader]
        fns = {side: digest(*got[reader][:2], texts) for side, got in sides.items()}
        timed, (rejected, sha) = calls(f"{reader} answers", fns, 1e6 / len(texts))
        rows.append(timed)
        fns = {side: hashed(got[reader][2]) for side, got in sides.items()}
        timed, generated = calls(f"{reader} generated", fns,
                                 1e6 / (GENERATED * (2 if reader == "chart" else 3)))
        rows.append(timed)
        answer[reader] = {"rejected": rejected, "sha256": sha, "generated_sha256": generated}
        print(f"same answer for all {len(texts)} {reader} texts: {rejected} rejected, sha256 "
              f"{sha[:16]}...; same generated bytes for seeds 0-{GENERATED - 1}, sha256 "
              f"{generated[:16]}...")
    return {
        "workload": f"seeds 0-{PARSE_TEXTS - 1} of gen_chart_struct (dict and table form) and "
                    f"of gen_scene; {MUTATED} mutated charts and {MUTATED} mutated scenes, seed "
                    f"{SEED}; generator digests of seeds 0-{GENERATED - 1}: gen_chart_struct in "
                    "both forms, gen_scene under SceneConfig(), bounds=(0, 1) and "
                    "kinds=('hyperbola',)",
        "unit": "us per text",
        "rows": rows,
        "answer": answer,
    }


BENCHES = {"scoring": scoring, "dedup": dedup, "parse": parse}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="bench", required=True)
    for name, bench in BENCHES.items():
        sub = subs.add_parser(name, description=inspect.cleandoc(bench.__doc__),
                              formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.add_argument("--before", required=True, help="git revision to compare with")
        sub.add_argument("--out", default=f"BENCH_{name}.json")
    args = parser.parse_args()
    # One CPU for this process, so both trees run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"before": export_src(args.before, Path(tmp)), "after": ROOT / "src"}
        result = BENCHES[args.bench](trees, Path(tmp))
    print_table(result["unit"], result["rows"])
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.before],
                         capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "before": f"src at {args.before} ({sha})",
        "after": "src of this checkout",
        "pairs": PAIRS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **result,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
