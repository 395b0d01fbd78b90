#!/usr/bin/env python3
"""Compare this checkout's ``src`` ("after") with the ``src`` of a git revision ("before").

The revision given by ``--before`` is exported to a temporary directory.
Every measurement is a fresh Python process with one tree's ``src`` on
``PYTHONPATH``. The rounds interleave the two trees, alternating which goes
first, so slow spells of the machine hit both alike, and both trees must
give the same answer in every round. The report, with the core count and
the Python version, is written as JSON to ``--out`` (``BENCH_<sub>.json``).

    python benchmarks/compare.py startup --before HEAD       # uncommitted work vs HEAD
    python benchmarks/compare.py scoring --before HEAD~1 --out /tmp/scoring.json
    python benchmarks/compare.py dedup --before HEAD~1
    python benchmarks/compare.py kernel --before HEAD~1
    python benchmarks/compare.py parse --before HEAD~1
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0   # of the perfbench/inputs.py corpora and the kernel's token pairs
ROUNDS = 5  # of scoring, dedup and kernel


def export_src(rev: str, dest: Path) -> Path:
    """Write the ``src`` tree of git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def run(src: Path, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process with ``src`` on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        what = " ".join(args[2:] if args[0] == "-c" else args)
        raise SystemExit(f"{src}: {what} exited {done.returncode}: {done.stderr}")
    return done


def interleave(trees: dict[str, Path], rounds: int, measure) -> tuple[dict[str, list], object]:
    """Each tree's figures per round, and the answer both trees gave.

    ``measure(src)`` returns (figures, answer) for one process of one tree.
    """
    order = list(trees.items())
    figures: dict[str, list[dict]] = {label: [] for label in trees}
    answers: dict[str, list] = {label: [] for label in trees}
    for k in range(rounds):
        for label, src in order if k % 2 == 0 else order[::-1]:
            got, answer = measure(src)
            figures[label].append(got)
            answers[label].append(answer)
    if answers["before"] != answers["after"]:
        raise SystemExit(f"the trees disagree: before {answers['before'][-1]!r}, "
                         f"after {answers['after'][-1]!r}")
    return figures, answers["after"][-1]


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0]}


def write_corpus(generator: str, size: dict, folder: Path) -> Path:
    """``folder`` filled by a generator of ``perfbench/inputs.py`` at ``SEED``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs

    folder.mkdir()
    getattr(inputs, generator.replace("-", "_"))(random.Random(f"{generator}:{SEED}"), size, folder)
    return folder


# --- startup -------------------------------------------------------------------------

RUNS = 11  # fresh processes per subcommand and tree

SUBCOMMANDS = (
    "score", "chart-score", "tile-plan", "stitch", "make-finegrained", "compose-pages",
    "paste-layout", "gen-geometry", "gen-chart", "validate-format", "dedup", "mix",
)

# Runs the CLI the way the installed ``ocrkit`` script does, then lists every
# loaded module, on stderr, when the process exits.
PROBE = """\
import atexit, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
sys.argv[0] = "ocrkit"
from ocrkit.cli import main
sys.exit(main())
"""
# Lists the modules a bare interpreter has loaded.
FLOOR_MODULES = "import sys; print(*sys.modules)"


def startup(trees: dict[str, Path], tmp: Path) -> tuple[dict, list]:
    """CLI startup: fresh ``python -m ocrkit.cli <sub> --help`` processes.

    For every subcommand this records the median wall time of RUNS fresh
    processes per tree, the ocrkit modules such a process loads, and the
    standard library modules it loads beyond those of ``python -c pass``.
    The median wall time of ``python -c pass`` is recorded as the
    interpreter's own floor. Without cached bytecode
    (``PYTHONDONTWRITEBYTECODE`` set and no ``__pycache__``) every imported
    module is compiled from source in every process; the setting is
    recorded with the results.
    """
    def wall_s(src: Path, *args: str) -> float:
        start = time.perf_counter()
        run(src, *args)
        return time.perf_counter() - start

    def measure(src: Path) -> tuple[dict, None]:
        times = {sub: wall_s(src, "-m", "ocrkit.cli", sub, "--help") for sub in SUBCOMMANDS}
        return {"floor": wall_s(src, "-c", "pass"), **times}, None

    figures, _ = interleave(trees, RUNS, measure)
    floors = {label: set(run(src, "-c", FLOOR_MODULES).stdout.split())
              for label, src in trees.items()}
    rows = []
    print(f"{'subcommand':<18}{'before':>10}{'after':>10}{'stdlib +':>10}  ocrkit modules after")
    for sub in SUBCOMMANDS:
        row = {"subcommand": sub}
        for label, src in trees.items():
            row[f"{label}_ms"] = statistics.median(f[sub] for f in figures[label]) * 1e3
            loaded = run(src, "-c", PROBE, sub, "--help").stderr.split()
            row[f"{label}_modules"] = [m for m in loaded if m.partition(".")[0] == "ocrkit"]
            row[f"{label}_stdlib_modules"] = [
                m for m in loaded if m.partition(".")[0] != "ocrkit" and m not in floors[label]
            ]
        rows.append(row)
        stdlib = f"{len(row['before_stdlib_modules'])}/{len(row['after_stdlib_modules'])}"
        print(f"{sub:<18}{row['before_ms']:>8.1f}ms{row['after_ms']:>8.1f}ms{stdlib:>10}  "
              f"{' '.join(row['after_modules'])}")
    floor_ms = statistics.median(f["floor"] for f in figures["after"]) * 1e3
    print(f"python -c pass: {floor_ms:.1f}ms")
    return {
        "command": "python -m ocrkit.cli <subcommand> --help",
        "runs": RUNS,
        "python_floor_ms": floor_ms,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }, rows


# --- scoring -------------------------------------------------------------------------

DOCS = 300
DOC_WORDS = 400
GRANULARITIES = ("word", "char")
LAYERS = ("tokenize", "edit_distance_norm", "prf", "bleu", "meteor")

# Times each layer over the corpus in argv[1] at granularity argv[2] and
# prints the times, in ms, with the corpus report as one JSON object.
SCORING_CHILD = """\
import json, sys, time
from ocrkit import metrics
from ocrkit.corpus import load_records, pair_by_id

folder, granularity = sys.argv[1:]
refs = load_records(folder + "/gt.jsonl")
hyps = load_records(folder + "/pred.jsonl")
texts = [(r.ground_truth, h.ground_truth) for r, h in pair_by_id(refs, hyps)]
for r, h in texts:
    metrics.tokenize(r, granularity), metrics.tokenize(h, granularity)

start = time.perf_counter()
pairs = [(metrics.tokenize(r, granularity), metrics.tokenize(h, granularity)) for r, h in texts]
ms = {"tokenize": (time.perf_counter() - start) * 1e3}
for layer in ("edit_distance_norm", "prf", "bleu", "meteor"):
    fn = getattr(metrics, layer)
    start = time.perf_counter()
    for ref, hyp in pairs:
        fn(ref, hyp)
    ms[layer] = (time.perf_counter() - start) * 1e3
start = time.perf_counter()
report = metrics.score_corpus(refs, hyps, granularity)
ms["score_corpus_per_sample"] = (time.perf_counter() - start) * 1e3 / len(texts)
print(json.dumps({"ms": ms, "report": report.as_dict()}))
"""


def scoring(trees: dict[str, Path], tmp: Path) -> tuple[dict, dict]:
    """The scoring layers on a seeded corpus of 300 documents of 400 words.

    The corpus comes from the ``score-docs`` generator of
    ``perfbench/inputs.py`` (one document in five is zh, one prediction in
    ten heavily garbled). For each granularity this records the time of
    every scoring layer over the whole corpus (``tokenize`` of both sides,
    then ``edit_distance_norm``, ``prf``, ``bleu`` and ``meteor`` on the
    tokenized pairs) and of one ``score_corpus`` call, given per sample.
    Each process tokenizes the corpus once untimed first, so the word-mode
    pattern is compiled outside the timed block in both trees. Every figure
    is the median over ROUNDS rounds with the interquartile range next to
    it. Both trees must return the same corpus report.
    """
    folder = write_corpus("score-docs", {"docs": DOCS, "doc_words": (DOC_WORDS, DOC_WORDS)},
                          tmp / "corpus")
    results = {}
    for granularity in GRANULARITIES:
        def measure(src: Path) -> tuple[dict, dict]:
            out = json.loads(run(src, "-c", SCORING_CHILD, str(folder), granularity).stdout)
            return out["ms"], out["report"]

        figures, _ = interleave(trees, ROUNDS, measure)
        results[granularity] = {
            label: {key: spread([ms[key] for ms in runs]) for key in runs[0]}
            for label, runs in figures.items()
        }
        print(f"{granularity} granularity, ms over {DOCS} pairs (median ± IQR of {ROUNDS})")
        print(f"  {'layer':<26}{'before':>20}{'after':>20}")
        for key in (*LAYERS, "score_corpus_per_sample"):
            cells = [results[granularity][label][key] for label in ("before", "after")]
            print(f"  {key:<26}" + "".join(f"{c['median']:>11.2f} ± {c['iqr']:<6.2f}" for c in cells))
    return {
        "corpus": f"perfbench score-docs generator, seed {SEED}, {DOCS} docs of {DOC_WORDS} words",
        "units": "ms over the whole corpus; score_corpus_per_sample in ms per sample; "
                 "median and interquartile range over rounds",
        "rounds": ROUNDS,
    }, results


# --- dedup ---------------------------------------------------------------------------

TEST = 100
TRAIN = 1000
CHARS = (20, 400)
THRESHOLD = 0.9

# Filters the corpus in argv[1] at threshold argv[2] and prints pairs/s and
# the kept ids as one JSON object.
DEDUP_CHILD = """\
import json, sys, time
from ocrkit.corpus import dedup_filter, load_records

folder, threshold = sys.argv[1], float(sys.argv[2])
test = load_records(folder + "/test.jsonl")
train = load_records(folder + "/train.jsonl")
start = time.perf_counter()
kept = dedup_filter(test, train, threshold)
seconds = time.perf_counter() - start
print(json.dumps({"pairs_per_s": len(test) * len(train) / seconds,
                  "kept": [s.id for s in kept.samples]}))
"""


def dedup(trees: dict[str, Path], tmp: Path) -> tuple[dict, dict]:
    """``dedup_filter`` on a seeded corpus of 100 test x 1000 training texts.

    The corpus comes from the ``dedup-lines`` generator of
    ``perfbench/inputs.py`` (texts of 20 to 400 characters, one test text in
    ten a light edit of a training text) and is filtered at threshold 0.9.
    Each process loads both files untimed and then times one
    ``dedup_filter`` call, tokenization included; the figure is test x train
    pairs per second, the median over ROUNDS rounds with the interquartile
    range next to it. Both trees must keep the same test ids.
    """
    folder = write_corpus("dedup-lines",
                          {"dedup_test": TEST, "dedup_train": TRAIN, "dedup_chars": CHARS},
                          tmp / "corpus")

    def measure(src: Path) -> tuple[dict, list]:
        out = json.loads(run(src, "-c", DEDUP_CHILD, str(folder), str(THRESHOLD)).stdout)
        return {"pairs_per_s": out["pairs_per_s"]}, out["kept"]

    figures, kept = interleave(trees, ROUNDS, measure)
    results = {label: {"pairs_per_s": spread([f["pairs_per_s"] for f in runs])}
               for label, runs in figures.items()}
    results["kept"] = len(kept)
    print(f"pairs/s over {TEST} x {TRAIN} pairs (median ± IQR of {ROUNDS})")
    for label in ("before", "after"):
        cell = results[label]["pairs_per_s"]
        print(f"  {label:<8}{cell['median']:>10.0f} ± {cell['iqr']:.0f}")
    return {
        "corpus": f"perfbench dedup-lines generator, seed {SEED}, {TEST} test x {TRAIN} "
                  f"train texts of {CHARS[0]}-{CHARS[1]} chars, threshold {THRESHOLD}",
        "units": "test x train pairs per second of one dedup_filter call; "
                 "median and interquartile range over rounds",
        "rounds": ROUNDS,
    }, results


# --- kernel --------------------------------------------------------------------------

SIZES = (10, 200, 1000, 5000)  # sequence lengths
ALPHABET = 64  # distinct tokens
REPEATS = 3  # timed batches per pair, best kept

# Times ``levenshtein`` on every pair of the JSON file in argv[1] and prints
# the per-call times, in ms, with the distances as one JSON object.
KERNEL_CHILD = """\
import json, sys, timeit
from ocrkit._kernels import levenshtein

ms, distances = [], []
for a, b in json.load(open(sys.argv[1], encoding="utf-8")):
    a, b = tuple(a), tuple(b)
    timer = timeit.Timer(lambda: levenshtein(a, b))
    number, _ = timer.autorange()
    ms.append(min(timer.repeat(int(sys.argv[2]), number)) / number * 1e3)
    distances.append(levenshtein(a, b))
print(json.dumps({"ms": ms, "distances": distances}))
"""


def kernel(trees: dict[str, Path], tmp: Path) -> tuple[dict, list]:
    """``_kernels.levenshtein`` on seeded pairs of random token tuples.

    At each length in SIZES there are two pairs over ALPHABET distinct
    tokens: one of equal lengths, and one whose short side has
    ``length // 20`` tokens, where the kernel reads the short side against
    the long side as its pattern. Each process times every pair: ``timeit``
    picks a batch of at least 0.2 s, and the best of REPEATS batches gives
    the time per call. Every figure is the median over ROUNDS rounds with
    the interquartile range next to it. Both trees must return the same
    distances.
    """
    rng = random.Random(SEED)
    vocab = [f"t{k}" for k in range(ALPHABET)]
    shapes = [(size, short) for size in SIZES for short in (size, size // 20)]
    pairs = [[[rng.choice(vocab) for _ in range(short)], [rng.choice(vocab) for _ in range(size)]]
             for size, short in shapes]
    path = tmp / "pairs.json"
    path.write_text(json.dumps(pairs), encoding="utf-8")

    def measure(src: Path) -> tuple[list, list]:
        out = json.loads(run(src, "-c", KERNEL_CHILD, str(path), str(REPEATS)).stdout)
        return out["ms"], out["distances"]

    figures, distances = interleave(trees, ROUNDS, measure)
    rows = []
    print(f"ms per call (median ± IQR of {ROUNDS})")
    print(f"  {'length':>8}{'short':>8}{'before':>20}{'after':>20}")
    for k, (size, short) in enumerate(shapes):
        row = {"length": size, "short": short, "distance": distances[k]}
        for label, runs in figures.items():
            row[f"{label}_ms"] = spread([ms[k] for ms in runs])
        rows.append(row)
        cells = [row[f"{label}_ms"] for label in ("before", "after")]
        print(f"  {size:>8}{short:>8}"
              + "".join(f"{c['median']:>11.3f} ± {c['iqr']:<6.3f}" for c in cells))
    return {
        "pairs": f"seed {SEED}, lengths {list(SIZES)}, each at equal length and with a short "
                 f"side of length // 20, {ALPHABET} distinct tokens",
        "units": "ms per levenshtein call, best of repeats; median and interquartile range "
                 "over rounds",
        "rounds": ROUNDS,
        "repeats": REPEATS,
    }, rows


# --- parse ---------------------------------------------------------------------------

PARSE_TEXTS = 200  # valid seeded texts per form, timed
MUTATED = 10_000  # seeded mutated texts per reader, parsed for the answer
PARSE_REPEATS = 20  # timed passes over the valid texts, best kept
PARSE_ROUNDS = 11  # a parse pass is short, so more rounds than the other benches
# The characters the two grammars give meaning to, plus a few that neither uses,
# as in tests/test_parser_fuzz.py, which also has the four edit operations.
SYNTAX = "{}[]()'\":,;|=*.-+eE0123456789 \t\n\\drawplotcycle中é"
EDITS = ("insert", "delete", "replace", "truncate")
READERS = {"chart": ("dict", "table"), "tikz": ("tikz",)}  # the forms each reader times

# Times reader argv[2] ("chart" or "tikz") on each valid form in the JSON file
# in argv[1] (best of argv[3] passes, in us per text), then parses every valid
# and mutated text, and prints the times with the count of rejected texts and a
# digest of every result or error as one JSON object.
PARSE_CHILD = """\
import hashlib, json, sys, time
from ocrkit.charts import ChartParseError, parse_chart_output
from ocrkit.geometry import TikzParseError, parse_tikz_subset

texts = json.load(open(sys.argv[1], encoding="utf-8"))
parse = parse_chart_output if sys.argv[2] == "chart" else parse_tikz_subset
us = {}
for form, batch in texts["valid"].items():
    best = float("inf")
    for _ in range(int(sys.argv[3])):
        start = time.perf_counter()
        for text in batch:
            parse(text)
        best = min(best, time.perf_counter() - start)
    us[form] = best / len(batch) * 1e6
digest, rejected = hashlib.sha256(), 0
for text in [*(t for batch in texts["valid"].values() for t in batch), *texts["mutated"]]:
    try:
        got = repr(parse(text))
    except (ChartParseError, TikzParseError) as exc:
        got = repr((type(exc).__name__, exc.line, exc.column, exc.message, str(exc)))
        rejected += 1
    digest.update(got.encode() + b"\\0")
print(json.dumps({"us": us, "answer": {"rejected": rejected, "sha256": digest.hexdigest()}}))
"""


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


def parse(trees: dict[str, Path], tmp: Path) -> tuple[dict, dict]:
    """The chart and TikZ readers on seeded valid and mutated texts.

    The valid texts are PARSE_TEXTS charts of ``gen_chart_struct`` in the
    dict form and in the table form, and PARSE_TEXTS scenes of ``gen_scene``
    emitted as TikZ, all from this checkout's generators. Each reader runs
    in its own process, as it does in the CLI: one times
    ``parse_chart_output`` on each chart form, the other
    ``parse_tikz_subset`` on the scenes, and the best of PARSE_REPEATS
    passes gives the time per text. Every figure is the median over
    PARSE_ROUNDS rounds with the interquartile range next to it. Each
    process then parses its valid texts and MUTATED texts of its kind (the
    charts in the dict or the table form, at random), each edited one to
    four times by inserting, deleting or replacing a character or by
    cutting the text short. Both trees must return the same result, or the
    same error class, line, column and message, for every text.
    """
    sys.path[:0] = [str(ROOT / "src")]
    from ocrkit.charts import gen_chart_struct, serialize_chart_struct
    from ocrkit.geometry import emit_tikz, gen_scene

    def chart(seed: int, form: str) -> str:
        return serialize_chart_struct(gen_chart_struct(seed)[0], form)

    def scene(seed: int) -> str:
        return emit_tikz(gen_scene(seed)).source

    rng = random.Random(f"parse:{SEED}")
    texts = {
        "chart": {
            "valid": {form: [chart(seed, form) for seed in range(PARSE_TEXTS)]
                      for form in READERS["chart"]},
            "mutated": [mutate(rng, chart(rng.randrange(2**31), rng.choice(READERS["chart"])))
                        for _ in range(MUTATED)],
        },
        "tikz": {
            "valid": {"tikz": [scene(seed) for seed in range(PARSE_TEXTS)]},
            "mutated": [mutate(rng, scene(rng.randrange(2**31))) for _ in range(MUTATED)],
        },
    }
    for reader, part in texts.items():
        (tmp / f"{reader}.json").write_text(json.dumps(part), encoding="utf-8")

    def measure(src: Path) -> tuple[dict, dict]:
        us, answer = {}, {}
        for reader in READERS:
            out = json.loads(run(src, "-c", PARSE_CHILD, str(tmp / f"{reader}.json"), reader,
                                 str(PARSE_REPEATS)).stdout)
            us.update(out["us"])
            answer[reader] = out["answer"]
        return us, answer

    figures, answer = interleave(trees, PARSE_ROUNDS, measure)
    results = {label: {form: spread([us[form] for us in runs]) for form in runs[0]}
               for label, runs in figures.items()}
    results["answer"] = answer
    print(f"us per text (median ± IQR of {PARSE_ROUNDS})")
    print(f"  {'form':<8}{'before':>20}{'after':>20}")
    for form in (*READERS["chart"], *READERS["tikz"]):
        cells = [results[label][form] for label in ("before", "after")]
        print(f"  {form:<8}" + "".join(f"{c['median']:>11.2f} ± {c['iqr']:<6.2f}" for c in cells))
    for reader, got in answer.items():
        print(f"same answer for all {PARSE_TEXTS * len(READERS[reader]) + MUTATED} {reader} texts: "
              f"{got['rejected']} rejected, sha256 {got['sha256'][:16]}...")
    return {
        "texts": f"seeds 0-{PARSE_TEXTS - 1} of gen_chart_struct (dict and table form) and of "
                 f"gen_scene; {MUTATED} mutated charts and {MUTATED} mutated scenes, seed {SEED}",
        "units": "us per text, best of repeats; median and interquartile range over rounds",
        "rounds": PARSE_ROUNDS,
        "repeats": PARSE_REPEATS,
    }, results


BENCHES = {"startup": startup, "scoring": scoring, "dedup": dedup, "kernel": kernel,
           "parse": parse}


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

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"before": export_src(args.before, Path(tmp)), "after": ROOT / "src"}
        fields, results = BENCHES[args.bench](trees, Path(tmp))
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.before],
                         capture_output=True, text=True, check=True).stdout.strip()
    report = {
        "before": f"src at {args.before} ({sha})",
        "after": "src of this checkout",
        **fields,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
