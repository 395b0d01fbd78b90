"""End-to-end benchmark of the ocrkit CLI, with a separate traced per-layer run.

    python3 perfbench/run.py --workload score-docs --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run it from the repository root. Inputs come from ``inputs.py`` under the
seed, taken modulo ``INPUT_SETS``. The load is a closed loop with one client:
each ocrkit command starts only after the previous one has exited, and a
pass is the workload's whole command sequence, repeated until ``--seconds``
have been measured.

``--trace 0`` runs every command as a fresh ``python -m ocrkit.cli``
subprocess (``PYTHONPATH=src``, started and measured by ``launch.py``) and
reports the end-to-end metrics:

- items_per_s: workload units per second of one pass, where each command's
  time is its median over passes of wall time;
- cpu_s: user plus system CPU time of one pass (per-command medians);
- peak_rss_mb: the highest max-RSS of any child;
- setup_s: median wall time of ``python -m ocrkit.cli <sub> --help``;
- ops_failed_frac (printed, and carried by ``attempted``/``failed``).

Times are in reference seconds: each child's wall and CPU time is scaled by
``REF_LOOP_S`` over the time ``launch.py``'s calibration loop took on the
child's CPU around it. On a shared VM other guests slow the CPU by a third
or more for minutes at a time; the scaling takes that out, and a reference
second is about a wall second on an unloaded core (Intel Xeon VM,
Python 3.11). Items per raw wall second are printed too.

``--trace 1`` runs the same sequence in-process through ``ocrkit.cli.main``,
alternating untraced and traced passes, and reports per-layer calls,
inclusive (busy) and self time, plus the tracing overhead.

Every output file and ``--json`` report must be byte-identical to the
digests recorded in ``digests.json`` for this size and input set. A plain
dynamic-programming Levenshtein cross-checks ``edit_distance_norm`` on a
sample of pairs. A nonzero exit or a mismatch counts as a failed operation.

Both modes run ocrkit's default configuration: ``OCRKIT_*`` variables are
removed from the environment before ocrkit is imported or started.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from spans import LAYERS, Tracer, calls_under, dump, layer_totals
from workloads import INPUT_SETS, SIZES, WORKLOADS, Command, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"
DIGESTS = HERE / "digests.json"

# Seconds launch.py's calibration loop takes on an unloaded core; see above.
REF_LOOP_S = 0.02
# Fresh-interpreter startups per run; setup_s is their median.
SETUP_SAMPLES = 9
# Pairs the plain-DP oracle recomputes, per workload that runs edit distance.
ORACLE_PAIRS = {"score-docs": ("word", 6), "dedup-lines": ("char", 24)}

# ops_failed_frac is printed but is no BENCHMARK.json metric: those must never be 0.
PRINTED_ONLY_UNITS = {"ops_failed_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Ops:
    """Operations attempted and failed: one per CLI invocation, plus the oracle."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@dataclass
class Pass:
    """Exit code per command and digest per output of one pass."""

    codes: list[int]
    digests: dict[str, str]


class Child(NamedTuple):
    """One child's measurements, as ``launch.py`` prints them."""

    code: int
    wall_s: float
    cpu_s: float   # user + system CPU time
    rss_kb: int
    loop_s: float  # the calibration loop's time on the child's CPU

    def ref_s(self, seconds: float) -> float:
        """``seconds`` of this child converted to reference seconds."""
        return seconds * REF_LOOP_S / self.loop_s


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child to exit, through the launcher, and return its measurements."""
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py"), "--", *argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(cwd / "stderr.log", "ab") as log:
        proc = subprocess.Popen(launcher, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=log, start_new_session=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"launcher exited {proc.returncode}; see {cwd / 'stderr.log'}")
    code, wall, cpu, rss, loop = out.split()
    return Child(int(code), float(wall), float(cpu), int(rss), float(loop))


def ocrkit(*args: str) -> list[str]:
    return [sys.executable, "-m", "ocrkit.cli", *args]


def digest(path: Path) -> str:
    if path.is_dir():
        h = hashlib.sha256()
        for item in sorted(path.rglob("*")):
            if item.is_file():
                h.update(f"{item.relative_to(path)}\0{digest(item)}\n".encode())
        return h.hexdigest()
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    return "missing"


def clear_outputs(run_dir: Path) -> None:
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    (run_dir / "out").mkdir()


def output_digests(run_dir: Path, cmds: list[Command]) -> dict[str, str]:
    return {out: digest(run_dir / out) for c in cmds for out in c.outputs}


@contextmanager
def working_dir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def subprocess_pass(cmds: list[Command], run_dir: Path) -> tuple[Pass, list[Child]]:
    clear_outputs(run_dir)
    children = [spawn(ocrkit(*c.argv), run_dir) for c in cmds]
    return Pass([c.code for c in children], output_digests(run_dir, cmds)), children


def in_process_pass(cmds: list[Command], run_dir: Path, ops: Ops,
                    tracer: Tracer | None = None) -> Pass:
    """Run the sequence through ocrkit.cli.main, optionally under ``tracer``."""
    cli = importlib.import_module("ocrkit.cli")
    clear_outputs(run_dir)
    codes = []
    sink = io.StringIO()
    with working_dir(run_dir), redirect_stdout(sink), redirect_stderr(sink):
        with tracer.instrument() if tracer else nullcontext():
            for c in cmds:
                with tracer.span("cli.main") if tracer else nullcontext():
                    try:
                        codes.append(cli.main(list(c.argv)))
                    except (Exception, SystemExit):  # one failed operation, not a crash
                        ops.problems.append(traceback.format_exc(limit=3))
                        codes.append(1)
    return Pass(codes, output_digests(run_dir, cmds))


def verify(passes: list[Pass], expected: dict[str, str], cmds: list[Command], ops: Ops,
           label: str) -> None:
    """One operation per command per pass: exit 0 and every output as expected."""
    for n, p in enumerate(passes):
        for c, code in zip(cmds, p.codes):
            bad = [out for out in c.outputs if p.digests[out] != expected.get(out)]
            ops.record(code == 0 and not bad,
                       f"{label} pass {n}: `ocrkit {c.argv[0]}` exited {code}, "
                       f"outputs differing: {bad}")


def timed_run(cmds: list[Command], run_dir: Path, seconds: float, ops: Ops):
    """Untraced subprocess passes; returns end-to-end metrics, passes and a note.

    Times are medians over passes, per command, in reference seconds.
    """
    setup = []
    for i in range(SETUP_SAMPLES):
        sub = cmds[i % len(cmds)].argv[0]
        child = spawn(ocrkit(sub, "--help"), run_dir)
        ops.record(child.code == 0, f"`ocrkit {sub} --help` exited {child.code}")
        setup.append(child.ref_s(child.wall_s))
    runs: list[list[Child]] = [[] for _ in cmds]
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        done, children = subprocess_pass(cmds, run_dir)
        passes.append(done)
        for i, child in enumerate(children):
            runs[i].append(child)

    def total(field: str) -> float:
        return sum(statistics.median(c.ref_s(getattr(c, field)) for c in r) for r in runs)

    units = sum(c.units for c in cmds)
    metrics = {
        "items_per_s": units / total("wall_s"),
        "cpu_s": total("cpu_s"),
        "peak_rss_mb": max(c.rss_kb for r in runs for c in r) / 1024,
        "setup_s": statistics.median(setup),
    }
    note = (f"{len(passes)} subprocess passes of {len(cmds)} command(s), {units} items each; "
            f"{units / sum(statistics.median(c.wall_s for c in r) for r in runs):.4g} "
            "items/s on raw wall time")
    return metrics, passes, note


def traced_run(workload: str, cmds: list[Command], run_dir: Path, seconds: float, ops: Ops):
    """Alternating untraced and traced in-process passes; returns per-layer metrics."""
    importer = Tracer(0)
    with importer.span("cli.import"):
        importlib.import_module("ocrkit.cli")
    tracers, passes, walls = [importer], [], {False: [], True: []}
    deadline = perf_counter() + seconds
    while not walls[True] or perf_counter() < deadline:
        for traced in (False, True):
            tracer = Tracer(len(tracers)) if traced else None
            start = perf_counter()
            passes.append(in_process_pass(cmds, run_dir, ops, tracer))
            walls[traced].append(perf_counter() - start)
            if tracer:
                tracers.append(tracer)
    per_pass = [layer_totals(t.spans) for t in tracers[1:]]
    imported = layer_totals(importer.spans)["cli.import"]

    def med(value) -> float:
        return statistics.median(value(p) for p in per_pass)

    metrics: dict[str, float] = {}
    for name in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{name}.{key}"] = (imported[key] if name == "cli.import"
                                        else med(lambda p: p[name][key]))
    metrics["cli.import_s"] = imported["busy_s"]
    for name in ("corpus.load_records", "corpus.dump_records"):
        metrics[f"{name}.mb_per_s"] = med(lambda p: rate(p[name]["work"] / 1e6, p[name]["busy_s"]))
    ed = "metrics.edit_distance_norm"
    metrics[f"{ed}.cells"] = med(lambda p: p[ed]["work"])
    metrics[f"{ed}.cells_per_s"] = med(lambda p: rate(p[ed]["work"], p[ed]["busy_s"]))
    metrics["corpus.dedup_filter.pair_eval_frac"] = statistics.median(
        rate(calls_under(t.spans, ed, "corpus.dedup_filter"),
             layer_totals(t.spans)["corpus.dedup_filter"]["work"]) for t in tracers[1:])
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    if workload == "score-docs":
        samples = sum(c.units for c in cmds)
        for n, p in enumerate(per_pass):
            calls = p["metrics.tokenize"]["calls"]
            ops.record(calls == 2 * samples, f"traced pass {n}: metrics.tokenize.calls is "
                       f"{calls}, expected 2 x {samples} samples")
    return metrics, passes, tracers, walls


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds else 0.0


def levenshtein(a, b) -> int:
    """Plain two-row dynamic programme, independent of ocrkit's kernels."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def oracle_check(workload: str, run_dir: Path, seed: int, ops: Ops) -> None:
    """Cross-check edit_distance_norm on a seeded sample of the workload's pairs."""
    if workload not in ORACLE_PAIRS:
        return
    from ocrkit.corpus import load_records
    from ocrkit.metrics import edit_distance_norm, tokenize

    granularity, k = ORACLE_PAIRS[workload]
    rng = random.Random(seed)
    if workload == "score-docs":
        refs = load_records(run_dir / "in/gt.jsonl").by_id()
        hyps = load_records(run_dir / "in/pred.jsonl").by_id()
        ids = rng.sample(sorted(refs), min(k, len(refs)))
        pairs = [(refs[i].ground_truth, hyps[i].ground_truth) for i in ids]
    else:
        test = load_records(run_dir / "in/test.jsonl").samples
        train = load_records(run_dir / "in/train.jsonl").samples
        pairs = [(rng.choice(test).ground_truth, rng.choice(train).ground_truth)
                 for _ in range(k)]
    wrong = 0
    for a, b in pairs:
        ta, tb = tokenize(a, granularity), tokenize(b, granularity)
        want = levenshtein(ta.tokens, tb.tokens) / max(len(ta), len(tb), 1)
        wrong += edit_distance_norm(ta, tb) != want
    ops.record(not wrong, f"edit_distance_norm disagrees with the plain DP on "
                          f"{wrong} of {len(pairs)} pairs")


def expected_digests(workload: str, size: str, seed: int) -> dict[str, str]:
    key = f"{size}:{seed}"
    try:
        return json.loads(DIGESTS.read_text())[workload][key]
    except (OSError, KeyError, ValueError):
        raise BenchError(f"no recorded digests for {workload} {key} in {DIGESTS}") from None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> tuple[dict[str, float], Ops, list[str]]:
    """One measured run; returns metrics, operations and report lines."""
    expected = expected_digests(workload, size, seed)
    cmds = commands(workload, seed, size)
    run_dir = WORK / f"{workload}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    ops = Ops()
    lines = []
    try:
        gen = spawn([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                     "--seed", str(seed), "--size", size, "--out", "in"], run_dir)
        if gen.code != 0:
            raise BenchError(f"input generation failed; see {run_dir / 'stderr.log'}")
        if trace:
            metrics, passes, tracers, walls = traced_run(workload, cmds, run_dir, seconds, ops)
            spans_file = WORK / f"spans-{workload}-{size}-{seed}.jsonl"
            dump(tracers, spans_file)
            lines.append(f"  passes: {len(walls[False])} untraced, {len(walls[True])} traced, "
                         f"median wall {statistics.median(walls[False]):.4f} s untraced, "
                         f"{statistics.median(walls[True]):.4f} s traced; spans in {spans_file}")
        else:
            metrics, passes, note = timed_run(cmds, run_dir, seconds, ops)
            lines.append(f"  passes: {note}")
        verify(passes, expected, cmds, ops, "traced" if trace else "timed")
        oracle_check(workload, run_dir, seed, ops)
        log = (run_dir / "stderr.log").read_text(errors="replace").strip()
        if ops.failed and log:
            lines.append("  stderr of the children, last lines:\n" + log[-2000:])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, ops, lines


def machine() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cores": cores, "python": platform.python_version(),
            "numpy_importable": find_spec("numpy") is not None,
            "numba_importable": find_spec("numba") is not None}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, so none inherits another's imports."""
    options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload, *options],
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0:
            print("\n".join(lines))
            return done.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{workload}/{name}", value) for name, value in result["metrics"].items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ocrkit" / "cli.py").is_file():
        print(f"error: no ocrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("OCRKIT_")]:
        del os.environ[name]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    seed = args.seed % INPUT_SETS
    print("machine: " + json.dumps(machine()))
    try:
        metrics, ops, lines = run_workload(args.workload, seed, args.seconds,
                                           bool(args.trace), args.size)
        units = declared_units(bool(args.trace))
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
                             f"BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} (seed {args.seed}, input set {seed}, size {args.size}, "
          f"{'traced' if args.trace else 'untraced'})")
    print("\n".join(lines))
    shown = dict(metrics)
    if not args.trace:
        shown["ops_failed_frac"] = ops.failed / ops.attempted
    for name, value in shown.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name) or PRINTED_ONLY_UNITS[name]}")
    for problem in ops.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
