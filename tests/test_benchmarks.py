"""The benchmark scripts start, their argument tables are sound, the paired
timer of ``benchmarks/compare.py`` pairs, alternates and checks answers, and
its ``dedup``, ``parse`` and ``scoring`` benches run both trees in this process."""

import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _help(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv, "--help"], env=env, capture_output=True,
                          text=True, cwd=ROOT)


def test_compare_help_lists_the_three_subcommands():
    done = _help(str(ROOT / "benchmarks" / "compare.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: compare.py [-h] {scoring,dedup,parse} ...\n")


@pytest.mark.parametrize("sub", ["scoring", "dedup", "parse"])
def test_compare_subcommand_help_exits_zero(sub):
    done = _help(str(ROOT / "benchmarks" / "compare.py"), sub)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: compare.py {sub} [-h] --before BEFORE [--out OUT]")


@pytest.fixture
def compare(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare", ROOT / "benchmarks" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PAIRS", 4)
    return module


def test_load_gives_two_packages_and_no_ocrkit_modules(compare):
    known = set(sys.modules)
    try:
        first = compare.load(ROOT / "src", "ocrkit_first")
        second = compare.load(ROOT / "src", "ocrkit_second")
        metrics = [importlib.import_module(f"{p.__name__}.metrics") for p in (first, second)]
        added = set(sys.modules) - known
    finally:
        for name in set(sys.modules) - known:
            del sys.modules[name]
    assert first is not second and metrics[0] is not metrics[1]
    assert metrics[0].score_texts is not metrics[1].score_texts
    assert {"ocrkit_first._kernels", "ocrkit_second._kernels"} <= added
    assert {n.partition(".")[0] for n in added} == {"ocrkit_first", "ocrkit_second"}
    reports = [m.score_texts("a b", "a c", "word").as_dict() for m in metrics]
    assert reports[0] == reports[1] and reports[0]["n_samples"] == 1


def test_paired_alternates_the_first_side_and_reports_ratios(compare):
    order = []

    def measure(side):
        order.append(side)
        return 2.0 if side == "before" else 1.0, "same"

    row, answer = compare.paired("t", measure)
    assert order == ["before", "after", "after", "before"] * 2
    assert answer == "same"
    assert row == {"name": "t", "before": 2.0, "after": 1.0, "ratio": 0.5,
                   "ratio_iqr": [0.5, 0.5], "after_faster": 4, "pairs": 4}


def test_paired_stops_when_the_trees_disagree(compare):
    # lists, such as dedup's kept ids, are shown where they first differ
    cases = [
        ((False, True), "after gave True in pair 0, before gave False in pair 0"),
        ((["a", "b", "c"], ["a", "x", "c"]),
         "after gave 'x' at index 1 in pair 0, before gave 'b' at index 1 in pair 0"),
        ((["a", "b"], ["a", "b", "c"]), "after gave 3 items in pair 0, before gave 2 in pair 0"),
    ]
    for answers, message in cases:
        with pytest.raises(SystemExit) as exc:
            compare.paired("t", lambda side: (1.0, answers[side == "after"]))
        assert str(exc.value) == f"the trees disagree: {message}"


def test_export_src_refuses_a_member_outside_its_folder(compare, monkeypatch, tmp_path):
    # tarfile's "data" filter; without a filter, Python 3.12 and 3.13 also warn
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        tar.addfile(tarfile.TarInfo("../outside"), io.BytesIO())
    monkeypatch.setattr(compare.subprocess, "run",
                        lambda *args, **kwargs: SimpleNamespace(stdout=archive.getvalue()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tarfile.OutsideDestinationError):
            compare.export_src("HEAD", tmp_path / "tree")
    assert not (tmp_path / "outside").exists()


def _run_in_this_process(compare, monkeypatch, bench, tmp_path):
    """``bench`` of both trees, each this checkout's ``src``, timed one call per batch."""
    monkeypatch.setattr(compare.timeit.Timer, "autorange", lambda self: (1, 0.0))
    monkeypatch.setattr(sys, "path", list(sys.path))  # write_corpus puts perfbench first
    known = set(sys.modules)
    try:
        return bench({side: ROOT / "src" for side in compare.SIDES}, tmp_path)
    finally:
        for name in set(sys.modules) - known:
            del sys.modules[name]


_ROW_KEYS = {"name", "before", "after", "ratio", "ratio_iqr", "after_faster", "pairs"}


def test_dedup_times_both_trees_in_this_process(compare, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(compare, "TEST", 10)
    monkeypatch.setattr(compare, "TRAIN", 30)
    monkeypatch.setattr(compare, "CHARS", (20, 60))
    result = _run_in_this_process(compare, monkeypatch, compare.dedup, tmp_path)
    assert set(result) == {"workload", "unit", "rows", "kept"}
    [row] = result["rows"]
    assert set(row) == _ROW_KEYS
    assert (row["name"], row["pairs"]) == ("dedup_filter", 4)
    # the one test text planted as a light edit of a training text is dropped
    assert result["kept"] == 9
    assert capsys.readouterr().out == "both trees keep the same 9 test ids\n"


def test_parse_times_both_trees_in_this_process(compare, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(compare, "PARSE_TEXTS", 2)
    monkeypatch.setattr(compare, "MUTATED", 6)
    monkeypatch.setattr(compare, "GENERATED", 2)
    result = _run_in_this_process(compare, monkeypatch, compare.parse, tmp_path)
    assert set(result) == {"workload", "unit", "rows", "answer"}
    assert [r["name"] for r in result["rows"]] == [
        "dict", "table", "chart answers", "chart generated", "tikz", "tikz answers",
        "tikz generated"]
    assert all(set(r) == _ROW_KEYS and r["pairs"] == 4 for r in result["rows"])
    assert set(result["answer"]) == {"chart", "tikz"}
    for answer in result["answer"].values():
        assert set(answer) == {"rejected", "sha256", "generated_sha256"}
        assert 0 <= answer["rejected"] <= 6  # only mutated texts may be rejected
    out = capsys.readouterr().out.splitlines()
    # two valid texts per chart form and two scenes, then six mutated texts of each kind
    assert [line.partition(":")[0] for line in out] == [
        "same answer for all 10 chart texts", "same answer for all 8 tikz texts"]


def test_scoring_times_both_trees_in_this_process(compare, monkeypatch, tmp_path):
    monkeypatch.setattr(compare, "DOCS", 3)
    monkeypatch.setattr(compare, "DOC_WORDS", 20)
    result = _run_in_this_process(compare, monkeypatch, compare.scoring, tmp_path)
    assert set(result) == {"workload", "unit", "rows"}
    layers = ["tokenize", *compare.LAYERS, "score_corpus"]
    assert [r["name"] for r in result["rows"]] == [
        f"{granularity} {layer}" for granularity in ("word", "char") for layer in layers]
    assert all(set(r) == _ROW_KEYS and r["pairs"] == 4 for r in result["rows"])
