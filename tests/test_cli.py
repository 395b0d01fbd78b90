"""CLI behaviour: exit codes, report shapes, atomic output, determinism."""

import argparse
import json

import pytest

from ocrkit import validators
from ocrkit.charts import ApReport
from ocrkit.cli import VALIDATE_KINDS, build_parser, main, render_report
from ocrkit.corpus import Corpus, Sample, TaskKind, load_records, save_records
from ocrkit.metrics import MetricReport


def _write_corpus(path, texts, kind=TaskKind.PLAIN_DOC, prefix="s"):
    corpus = Corpus(
        tuple(
            Sample(id=f"{prefix}{i}", task_kind=kind, ground_truth=t)
            for i, t in enumerate(texts)
        )
    )
    save_records(corpus, path)
    return corpus


# --- render_report ---------------------------------------------------------------


def test_render_metric_report_markdown_column_order():
    report = MetricReport(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4)
    text = render_report(report, "markdown")
    head, sep, row = text.strip().split("\n")
    assert head == "| Edit Distance | F1-score | Precision | Recall | BLEU | METEOR |"
    assert row == "| 0.000 | 1.000 | 1.000 | 1.000 | 1.000 | 1.000 |"


def test_render_ap_report():
    text = render_report(ApReport(1.0, 1.0, 1.0, 2), "text")
    assert text.splitlines()[0].startswith("AP@strict")
    assert "1.000" in text


def test_render_three_decimals_round_half_even():
    # 0.0625 and 0.1875 are exact binary halves: ties go to the even digit
    report = MetricReport(0.7474999, 0.0625, 0.1875, 1.0, 1.0, 1.0, 1)
    text = render_report(report, "markdown")
    assert "0.747" in text
    assert "| 0.062 |" in text
    assert "| 0.188 |" in text


def test_render_rejects_unknown_style():
    with pytest.raises(ValueError):
        render_report(MetricReport(0, 1, 1, 1, 1, 1, 1), "html")


# --- score -----------------------------------------------------------------------


def test_score_perfect_report_and_json_round_trip(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ["hello there world", "你好 世界"])
    out_json = tmp_path / "report.json"
    rc = main(
        ["score", "--gt", str(gt), "--pred", str(gt), "--granularity", "word",
         "--style", "markdown", "--json", str(out_json)]
    )
    assert rc == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "| Edit Distance | F1-score | Precision | Recall | BLEU | METEOR |"
    payload = json.loads(out_json.read_text())
    assert payload["edit_distance"] == 0.0
    assert payload["precision"] == 1.0
    assert payload["n_samples"] == 2


def test_score_missing_prediction_fails(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    pred = tmp_path / "pred.jsonl"
    _write_corpus(gt, ["a", "b"])
    _write_corpus(pred, ["a"])
    rc = main(["score", "--gt", str(gt), "--pred", str(pred)])
    assert rc == 1
    assert "missing prediction" in capsys.readouterr().err


def test_chart_score_cli(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ['{"values": {"s": {"a": 1, "b": 2}}}'], kind=TaskKind.CHART)
    rc = main(["chart-score", "--gt", str(gt), "--pred", str(gt)])
    assert rc == 0
    assert "AP@strict" in capsys.readouterr().out


def test_chart_score_empty_files_score_zero(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["chart-score", "--gt", str(empty), "--pred", str(empty)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["AP@strict", "0.000"]
    assert lines[-1].split() == ["samples", "0"]


def test_chart_score_parse_error_names_sample(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    pred = tmp_path / "pred.jsonl"
    _write_corpus(gt, ['{"values": {"s": {"a": 1}}}'], kind=TaskKind.CHART)
    _write_corpus(pred, ["{{{"], kind=TaskKind.CHART)
    rc = main(["chart-score", "--gt", str(gt), "--pred", str(pred)])
    assert rc == 1
    assert "s0" in capsys.readouterr().err


# --- planners ---------------------------------------------------------------------


def test_tile_plan_output(tmp_path, capsys):
    assert main(["tile-plan", "--width", "2048", "--height", "1024"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2x1 (+thumbnail)"
    assert main(["tile-plan", "--width", "800", "--height", "800"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1x1"
    out = tmp_path / "plan.json"
    assert main(["tile-plan", "--width", "1000", "--height", "4000", "--json", str(out)]) == 0
    capsys.readouterr()
    plan = json.loads(out.read_text())
    assert (plan["grid_cols"], plan["grid_rows"]) == (1, 4)
    assert len(plan["tile_rects"]) == 4


def test_stitch_output(capsys):
    assert main(["stitch", "--pages", "800x1100,800x1100", "--orientation", "horizontal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1600x1100"
    assert main(["stitch", "--pages", "800x1100", "--orientation", "vertical"]) == 1


# --- generators ---------------------------------------------------------------------


def test_gen_geometry_records_valid(tmp_path, capsys):
    out = tmp_path / "geom.jsonl"
    assert main(["gen-geometry", "--seed", "3", "--n", "5", "--out", str(out)]) == 0
    corpus = load_records(out)
    assert len(corpus) == 5
    assert all(s.task_kind == TaskKind.GEOMETRY for s in corpus.samples)
    assert all(s.ground_truth.startswith("\\draw") for s in corpus.samples)


def test_gen_chart_with_specs(tmp_path, capsys):
    out = tmp_path / "charts.jsonl"
    specs = tmp_path / "specs"
    assert main(
        ["gen-chart", "--seed", "2", "--n", "3", "--out", str(out), "--form", "table",
         "--specs-dir", str(specs)]
    ) == 0
    corpus = load_records(out)
    assert len(corpus) == 3
    spec_files = sorted(specs.glob("*.spec.txt"))
    assert len(spec_files) == 3
    assert spec_files[0].read_text().startswith("chartspec v1")


def test_compose_pages_cli(tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    pool.write_text(
        "\n".join(
            json.dumps({"page_id": f"p{i}", "text": " ".join(["tok"] * 120)})
            for i in range(10)
        )
        + "\n"
    )
    out = tmp_path / "mp.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "4", "--seed", "1",
                 "--count", "2", "--out", str(out)]) == 0
    corpus = load_records(out)
    assert len(corpus) == 2
    assert all(s.task_kind == TaskKind.MULTI_PAGE for s in corpus.samples)
    assert all("page_ids" in s.meta for s in corpus.samples)


def test_make_finegrained_color_mode(tmp_path, capsys):
    anno = tmp_path / "anno.jsonl"
    anno.write_text(
        json.dumps(
            {"id": "a1", "image_ref": "x.png", "width": 1000, "height": 500,
             "box": [10, 20, 400, 100], "text": "hello"}
        )
        + "\n"
    )
    out = tmp_path / "fg.jsonl"
    assert main(["make-finegrained", "--input", str(anno), "--out", str(out),
                 "--mode", "color", "--seed", "5"]) == 0
    [sample] = load_records(out).samples
    assert sample.task_kind == TaskKind.FINE_GRAINED_COLOR
    assert sample.meta["frame_color"] in ("red", "green", "blue")
    assert sample.meta["frame_color"] in sample.prompt


def test_dedup_and_mix_cli(tmp_path, capsys):
    test_p = tmp_path / "test.jsonl"
    train_p = tmp_path / "train.jsonl"
    _write_corpus(test_p, ["identical text", "completely different"], prefix="t")
    _write_corpus(train_p, ["identical text"], prefix="tr")
    out = tmp_path / "filtered.jsonl"
    assert main(["dedup", "--test", str(test_p), "--train", str(train_p),
                 "--threshold", "0.9", "--out", str(out)]) == 0
    assert len(load_records(out)) == 1

    mixed = tmp_path / "mixed.jsonl"
    assert main(["mix", "--previous", str(test_p), "--new", str(train_p),
                 "--ratio", "0.5", "--seed", "0", "--out", str(mixed)]) == 0
    assert len(load_records(mixed)) == 1 + 1


# --- validate-format ------------------------------------------------------------------


def test_validate_format_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("C1CCCCC1\n")
    assert main(["validate-format", "--kind", "smiles", str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("C1CC\n")
    assert main(["validate-format", "--kind", "smiles", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("1:2 RING_UNPAIRED")


def test_validate_format_issue_line_format(tmp_path, capsys):
    bad = tmp_path / "bad.kern"
    bad.write_text("**kern\n4c\n")
    assert main(["validate-format", "--kind", "kern", str(bad)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    parts = line.split(" ", 2)
    assert parts[1] == "SPINE_UNTERMINATED"
    lc = parts[0].split(":")
    assert len(lc) == 2 and all(p.isdigit() for p in lc)


# --- failure hygiene ---------------------------------------------------------------------


def test_error_leaves_no_partial_output(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ["text"])
    missing_dir_out = tmp_path / "nope" / "out.jsonl"
    rc = main(["dedup", "--test", str(gt), "--train", str(gt),
               "--threshold", "0.5", "--out", str(missing_dir_out)])
    assert rc == 1
    assert not missing_dir_out.exists()
    assert not list(tmp_path.glob("nope*"))


def test_unreadable_input_is_reported(tmp_path, capsys):
    rc = main(["score", "--gt", str(tmp_path / "ghost.jsonl"),
               "--pred", str(tmp_path / "ghost.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- import surface ----------------------------------------------------------------------


def test_cli_import_loads_only_the_scoring_modules(ocrkit_modules_after):
    assert ocrkit_modules_after("import ocrkit.cli") == [
        "ocrkit", "ocrkit._kernels", "ocrkit.cli", "ocrkit.corpus", "ocrkit.metrics",
    ]


def _subcommands():
    [action] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


@pytest.mark.parametrize("sub", _subcommands())
def test_every_subcommand_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ocrkit {sub} ")


def test_validate_kinds_are_the_validators():
    assert VALIDATE_KINDS == tuple(sorted(validators.VALIDATORS))
