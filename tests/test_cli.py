"""CLI behaviour: exit codes, report shapes, atomic output, determinism."""

import argparse
import ast
import contextlib
import io
import json
import math
import re
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit import charts, cli, corpus, geometry, metrics, pagecompose, validators
from ocrkit.charts import ApReport
from ocrkit.cli import COMMANDS, VALIDATE_KINDS, _add_flags, main
from ocrkit.commands import render_report
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


def test_score_calls_the_score_corpus_of_the_front_end(tmp_path, capsys, monkeypatch):
    # perfbench's tracer replaces ocrkit.cli.score_corpus to see the scoring call
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ["a b", "c"])
    report = MetricReport(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2)
    calls = []

    def score_corpus(gt_corpus, pred_corpus, granularity):
        calls.append((len(gt_corpus.samples), len(pred_corpus.samples), granularity))
        return report

    monkeypatch.setattr(cli, "score_corpus", score_corpus)
    assert main(["score", "--gt", str(gt), "--pred", str(gt), "--granularity", "char"]) == 0
    assert calls == [(2, 2, "char")]
    assert capsys.readouterr().out == render_report(report)


def test_front_end_score_corpus_forwards_the_tokenizer():
    texts = ["a b", "你好 世界", "c"]
    gt = Corpus(tuple(Sample(id=f"s{i}", task_kind=TaskKind.PLAIN_DOC, ground_truth=t)
                      for i, t in enumerate(texts)))
    pred = Corpus(tuple(Sample(id=f"s{i}", task_kind=TaskKind.PLAIN_DOC, ground_truth=t + " x")
                        for i, t in enumerate(texts)))
    calls = []

    def tokenizer(text, granularity):
        calls.append(text)
        return metrics.tokenize(text, granularity)

    report = cli.score_corpus(gt, pred, "word", tokenizer=tokenizer)
    assert len(calls) == 2 * len(texts)
    assert report == metrics.score_corpus(gt, pred, "word")


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


def test_chart_score_reports_the_first_bad_text_in_id_order_truth_first(tmp_path, capsys):
    # s0's texts are fine, s1's both bad, s2's truth bad: s1's ground truth is named
    good = '{"values": {"s": {"a": 1}}}'
    gt, pred, out = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl", tmp_path / "ap.json"
    _write_corpus(gt, [good, '{"values": x}', "{"], kind=TaskKind.CHART)
    _write_corpus(pred, [good, '{"title": 1}', good], kind=TaskKind.CHART)
    assert main(["chart-score", "--gt", str(gt), "--pred", str(pred), "--json", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: sample 's1': 1:12: expected '{'\n")
    assert not out.exists()


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


def test_tile_plan_json_bytes(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["tile-plan", "--width", "2048", "--height", "1024", "--json", str(out)]) == 0
    assert capsys.readouterr().out == "2x1 (+thumbnail)\n"
    expected = {"grid_cols": 2, "grid_rows": 1, "tile_px": 1024, "include_thumbnail": True,
                "tile_rects": [[0, 0, 1024, 1024], [1024, 0, 1024, 1024]]}
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_stitch_output(capsys):
    assert main(["stitch", "--pages", "800x1100,800x1100", "--orientation", "horizontal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1600x1100"
    assert main(["stitch", "--pages", "800x1100", "--orientation", "vertical"]) == 1


def test_stitch_json_bytes(tmp_path, capsys):
    out = tmp_path / "stitch.json"
    argv = ["stitch", "--pages", "800x1100,600x900", "--orientation", "vertical"]
    assert main([*argv, "--json", str(out)]) == 0
    assert capsys.readouterr().out == "800x2000\n0: x=0 y=0 800x1100\n1: x=0 y=1100 600x900\n"
    expected = {"orientation": "vertical", "canvas": [800, 2000],
                "placements": [[0, 0, 0, 800, 1100], [1, 0, 1100, 600, 900]]}
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_paste_layout_stdout_equals_its_out_file(tmp_path, capsys):
    argv = ["paste-layout", "--slices", "600x70,500x60,400x80,300x50,200x40,100x30",
            "--canvas", "1240x1754", "--seed", "3"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    expected = {"canvas": [1240, 1754], "placements": [
        [0, 283, 40, 600, 70], [1, 597, 157, 500, 60], [2, 418, 235, 400, 80],
        [3, 525, 363, 300, 50], [4, 634, 463, 200, 40], [5, 66, 517, 100, 30],
    ]}
    assert shown == json.dumps(expected, indent=2) + "\n"
    out = tmp_path / "layout.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote layout of 6 slices to {out}\n"
    assert out.read_text() == shown


@pytest.mark.parametrize(
    "argv, flag, text, message",
    [
        (["stitch", "--pages"], "--pages", "0x5,10x10", "image dims must be positive, got 0x5"),
        (["paste-layout", "--canvas"], "--canvas", "0x5", "image dims must be positive, got 0x5"),
        (["stitch", "--pages"], "--pages", "10x10,-3x4", "image dims must be positive, got -3x4"),
        (["stitch", "--pages"], "--pages", "800by600", "expected WIDTHxHEIGHT, got '800by600'"),
        (["paste-layout", "--canvas"], "--canvas", "1x2x3", "expected WIDTHxHEIGHT, got '1x2x3'"),
    ],
)
def test_dims_flags_tell_a_bad_shape_from_a_non_positive_size(capsys, argv, flag, text, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + [text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: argument {flag}: {message}")


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


def test_gen_chart_bad_specs_dir_leaves_no_out(tmp_path, capsys):
    out, specs = tmp_path / "charts.jsonl", tmp_path / "specs"
    specs.write_text("a file, not a directory")
    assert main(["gen-chart", "--n", "2", "--out", str(out), "--specs-dir", str(specs)]) == 1
    assert "File exists" in capsys.readouterr().err
    assert not out.exists()


def test_gen_chart_unwritable_spec_file_leaves_no_out(tmp_path, capsys):
    out, specs = tmp_path / "charts.jsonl", tmp_path / "specs"
    blocked = specs / "chart-00000001.spec.txt"
    blocked.mkdir(parents=True)
    assert main(["gen-chart", "--n", "2", "--out", str(out), "--specs-dir", str(specs)]) == 1
    assert str(blocked) in capsys.readouterr().err
    assert not out.exists()
    # spec files written before the failure stay
    assert (specs / "chart-00000000.spec.txt").is_file()


@pytest.mark.parametrize(
    "kinds, shown",
    [("point,,segment", "''"), ("point, segment", "' segment'"), ("zig,point,arc", "'arc', 'zig'")],
    ids=["empty", "spaced", "sorted"],
)
def test_gen_geometry_unknown_kinds_are_quoted(tmp_path, capsys, kinds, shown):
    out = tmp_path / "geom.jsonl"
    assert main(["gen-geometry", "--kinds", kinds, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown kinds: {shown}\n"
    assert not out.exists()


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


def test_compose_pages_lists_the_page_image_refs(tmp_path, capsys):
    rows = [{"page_id": f"p{i}", "text": "tok " * 50} for i in range(6)]
    for row in rows[:3]:
        row["image_ref"] = f"img/{row['page_id']}.png"
    rows[3]["image_ref"] = None
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "mp.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "2", "--seed", "0",
                 "--count", "8", "--out", str(out)]) == 0
    listed, gaps = 0, 0
    for sample in load_records(out).samples:
        # one slot per page, in page order, empty for a page without a ref
        refs = [f"img/{p}.png" if p < "p3" else "" for p in sample.meta["page_ids"].split(",")]
        if any(refs):
            listed += 1
            gaps += "" in refs
            assert sample.meta["page_image_refs"] == ",".join(refs)
        else:
            assert "page_image_refs" not in sample.meta
    assert 0 < listed < 8 and gaps > 0


def test_compose_pages_reads_a_null_image_ref_as_empty(tmp_path, capsys, monkeypatch):
    pool = tmp_path / "pool.jsonl"
    rows = [{"page_id": "p0", "text": "tok", "image_ref": None}, {"page_id": "p1", "text": "tok"}]
    pool.write_text("".join(json.dumps(row) + "\n" for row in rows))
    seen = []
    compose = pagecompose.compose_multipage

    def spy(pages, n, seed):
        seen.extend(pages)
        return compose(pages, n, seed)

    monkeypatch.setattr(pagecompose, "compose_multipage", spy)
    assert main(["compose-pages", "--pool", str(pool), "--n", "2",
                 "--out", str(tmp_path / "mp.jsonl")]) == 0
    assert [p.image_ref for p in seen] == ["", ""]


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


@pytest.mark.parametrize(
    "mode, line",
    [
        ("box",
         '{"id":"a1","task_kind":"FineGrainedBox","image_ref":"x.png",'
         '"prompt":"OCR the text in region [10,41,400,199]:","ground_truth":"hello",'
         '"lang":"en","meta":{"crop_rect":"10,20,400,100","image_height":"500",'
         '"image_width":"1000","norm_box":"[10,41,400,199]","source_box":"10,20.5,400,99.7"}}'),
        ("color",
         '{"id":"a1","task_kind":"FineGrainedColor","image_ref":"x.png",'
         '"prompt":"OCR the text in the green box:","ground_truth":"hello","lang":"en",'
         '"meta":{"frame_color":"green","frame_rgb":"0,255,0","frame_thickness":"4",'
         '"image_height":"500","image_width":"1000","source_box":"10,20.5,400,99.7"}}'),
    ],
)
def test_make_finegrained_writes_the_pinned_record_line(tmp_path, capsys, mode, line):
    anno = tmp_path / "anno.jsonl"
    anno.write_text(
        json.dumps(
            {"id": "a1", "image_ref": "x.png", "width": 1000, "height": 500,
             "box": [10, 20.5, 400, 99.7], "text": "hello"}
        )
        + "\n"
    )
    out = tmp_path / "fg.jsonl"
    assert main(["make-finegrained", "--input", str(anno), "--out", str(out), "--mode", mode,
                 "--seed", "0", "--thickness", "4"]) == 0
    assert out.read_text(encoding="utf-8") == line + "\n"
    assert capsys.readouterr().out == f"wrote 1 {mode}-guided records to {out}\n"


_ANNOTATION ={"id": "a1", "width": 1000, "height": 500, "box": [10, 20, 400, 100], "text": "hi"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["make-finegrained", "--input", "{input}", "--mode", "box", "--out", "{out}"],
         "--thickness"),
        (["make-finegrained", "--input", "{input}", "--mode", "color", "--out", "{out}"],
         "--thickness"),
        (["gen-geometry", "--out", "{out}"], "--n"),
        (["gen-chart", "--out", "{out}"], "--n"),
        (["compose-pages", "--pool", "{input}", "--n", "2", "--out", "{out}"], "--count"),
        (["tile-plan", "--width", "5", "--height", "5", "--json", "{out}"], "--max-tiles"),
    ],
    ids=["thickness-box", "thickness-color", "gen-geometry-n", "gen-chart-n", "compose-count",
         "tile-plan-max-tiles"],
)
@pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
def test_positive_int_flags_reject_bad_values_before_reading(tmp_path, capsys, argv, flag, value):
    # exit 2 from argparse: nothing is read or written
    source = tmp_path / "in.jsonl"
    source.write_text("")
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exc:
        main([a.format(input=source, out=out) for a in argv] + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(f"error: argument {flag}: expected a positive integer, got {value!r}")
    assert not out.exists()



@pytest.mark.parametrize(
    "line, where",
    [
        ("[1, 2]", "line 2: record is not an object"),
        (json.dumps({**_ANNOTATION, "width": None}), "line 2: field 'width' must be an integer"),
        (json.dumps({**_ANNOTATION, "text": 7}), "line 2: field 'text' must be a string"),
        (json.dumps({**_ANNOTATION, "image_ref": 7}), "line 2: field 'image_ref' must be"),
        (json.dumps({**_ANNOTATION, "width": 640.9}), "line 2: field 'width' must be an integer"),
        (json.dumps({**_ANNOTATION, "height": True}), "line 2: field 'height' must be an integer"),
        (json.dumps({**_ANNOTATION, "box": [True, 20, 400, 100]}), "line 2: field 'box' must be"),
        ('{"id": "a1", "width": 1000, "height": 500, "text": "hi"}', "line 2: missing field 'box'"),
        (json.dumps({**_ANNOTATION, "id": "a0"}), "line 2: duplicate id 'a0'"),
        (json.dumps({**_ANNOTATION, "lang": 5}), "line 2: field 'lang' must be a string"),
        (json.dumps({**_ANNOTATION, "lang": "xx"}), "line 2: sample 'a1': lang must be one of"),
        (json.dumps({**_ANNOTATION, "text": ""}), "line 2: sample 'a1': ground_truth must be"),
        (
            json.dumps({**_ANNOTATION, "box": [10, 20, 4000, 100]}),
            "line 2: box BBox(x1=10.0, y1=20.0, x2=4000.0, y2=100.0) outside image 1000x500",
        ),
        (
            json.dumps({**_ANNOTATION, "box": [10, 20, math.inf, 100]}),  # JSON's Infinity
            "line 2: box BBox(x1=10.0, y1=20.0, x2=inf, y2=100.0) outside image 1000x500",
        ),
    ],
    ids=[
        "array-line", "null-width", "int-text", "int-image-ref", "float-width", "bool-height",
        "bool-in-box", "missing-box", "duplicate-id", "int-lang", "unknown-lang", "empty-text",
        "box-outside-image", "infinite-box",
    ],
)
@pytest.mark.parametrize("mode", ["box", "color"])
def test_make_finegrained_rejects_bad_annotation(tmp_path, capsys, line, where, mode):
    anno = tmp_path / "anno.jsonl"
    anno.write_text(json.dumps({**_ANNOTATION, "id": "a0"}) + "\n" + line + "\n")
    out = tmp_path / "fg.jsonl"
    argv = ["make-finegrained", "--input", str(anno), "--out", str(out), "--mode", mode]
    assert main(argv) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {anno}: {where}")
    assert not out.exists()


def _page(page_id):
    return json.dumps({"page_id": page_id, "text": "one page"})


@pytest.mark.parametrize(
    "line, where",
    [
        ("5", "line 2: record is not an object"),
        (json.dumps({"page_id": "p1", "text": 5}), "line 2: field 'text' must be a string"),
        (_page(None), "line 2: field 'page_id' must be a string"),
        (_page("None") + "\n" + _page(None), "line 3: field 'page_id' must be a string"),
        (_page("p1") + "\n" + _page("p1"), "line 3: duplicate page_id 'p1'"),
        ("", "line 2: blank line"),
    ],
    ids=["number-line", "int-text", "null-id", "none-string-then-null-id", "repeated-id", "blank"],
)
def test_compose_pages_rejects_bad_pool_record(tmp_path, capsys, line, where):
    pool = tmp_path / "pool.jsonl"
    pool.write_text(_page("p0") + "\n" + line + "\n")
    out = tmp_path / "mp.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "2", "--out", str(out)]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {pool}: {where}")
    assert not out.exists()


@pytest.mark.parametrize(
    "ids, bad", [(("a,b", "c"), 1), (("a", "b,c"), 2)], ids=["first", "second"]
)
def test_compose_pages_refuses_a_page_id_with_a_comma(tmp_path, capsys, ids, bad):
    # the meta joins page_ids with commas: both pools would read "a,b,c"
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(_page(page_id) + "\n" for page_id in ids))
    out = tmp_path / "mp.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pool}: line {bad}: page_id {ids[bad - 1]!r} must not hold a comma\n"
    )
    assert not out.exists()


def _page_with_ref(page_id, image_ref):
    return json.dumps({"page_id": page_id, "text": "one page", "image_ref": image_ref})


@pytest.mark.parametrize(
    "refs, bad", [(("a,b", None), 1), (("a", "b,c"), 2)], ids=["first", "second"]
)
def test_compose_pages_refuses_an_image_ref_with_a_comma(tmp_path, capsys, refs, bad):
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(_page_with_ref(f"p{i}", ref) + "\n" for i, ref in enumerate(refs)))
    out = tmp_path / "mp.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pool}: line {bad}: image_ref {refs[bad - 1]!r} must not hold a comma\n"
    )
    assert not out.exists()


def test_compose_pages_tells_apart_pools_that_once_wrote_the_same_image_refs(tmp_path, capsys):
    # p0 "a,b" with p1 bare, and p0 "a" with p1 "b", both once wrote "a,b"
    out = tmp_path / "mp.jsonl"
    for name, refs in (("comma", ("a,b", None)), ("two", ("a", "b"))):
        pool = tmp_path / f"{name}.jsonl"
        pool.write_text("".join(_page_with_ref(f"p{i}", r) + "\n" for i, r in enumerate(refs)))
        code = main(["compose-pages", "--pool", str(pool), "--n", "2", "--out", str(out)])
        assert code == (1 if name == "comma" else 0)
        assert out.exists() is (name == "two")
    [sample] = load_records(out).samples
    assert (sample.meta["page_ids"], sample.meta["page_image_refs"]) == ("p0,p1", "a,b")


def test_aux_texts_keep_line_separator_characters(tmp_path, capsys):
    # json.dumps(ensure_ascii=False) writes U+2028 and U+0085 raw, as ocrkit's
    # own corpora do; only LF ends a line
    texts = ["one\u2028page", "two\u0085page"]
    pool = tmp_path / "pool.jsonl"
    pool.write_text(
        "".join(json.dumps({"page_id": f"p{i}", "text": t}, ensure_ascii=False) + "\n"
                for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    anno = tmp_path / "anno.jsonl"
    anno.write_text(
        "".join(json.dumps({**_ANNOTATION, "id": f"a{i}", "text": t}, ensure_ascii=False) + "\n"
                for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    mp, fg = tmp_path / "mp.jsonl", tmp_path / "fg.jsonl"
    assert main(["compose-pages", "--pool", str(pool), "--n", "2", "--out", str(mp)]) == 0
    assert main(["make-finegrained", "--input", str(anno), "--out", str(fg)]) == 0
    [composed] = load_records(mp).samples
    assert all(t in composed.ground_truth for t in texts)
    assert [s.ground_truth for s in load_records(fg).samples] == texts


@pytest.mark.parametrize(
    "command, good_flag, bad_flag",
    [
        ("score", "--gt", "--pred"),
        ("chart-score", "--gt", "--pred"),
        ("dedup", "--train", "--test"),
        ("mix", "--previous", "--new"),
    ],
)
def test_record_file_errors_name_the_file(tmp_path, capsys, command, good_flag, bad_flag):
    good = tmp_path / "good.jsonl"
    _write_corpus(good, ["text"])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n")
    argv = [command, good_flag, str(good), bad_flag, str(bad)]
    if command in ("dedup", "mix"):
        argv += ["--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {bad}: line 1: invalid JSON (")


def _record_row(sid, text):
    return json.dumps({"id": sid, "task_kind": "PlainDoc", "ground_truth": text})


def _annotation_row(sid, text):
    return json.dumps({**_ANNOTATION, "id": sid, "text": text})


def _page_row(sid, text):
    return json.dumps({"page_id": sid, "text": text})


_EVERY_JSONL_READER = pytest.mark.parametrize(
    "argv, row",
    [
        (["score", "--gt", "{good}", "--pred", "{bad}", "--json", "{out}"], _record_row),
        (["chart-score", "--gt", "{bad}", "--pred", "{good}", "--json", "{out}"], _record_row),
        (["dedup", "--train", "{good}", "--test", "{bad}", "--out", "{out}"], _record_row),
        (["mix", "--previous", "{bad}", "--new", "{good}", "--out", "{out}"], _record_row),
        (["make-finegrained", "--input", "{bad}", "--out", "{out}"], _annotation_row),
        (["compose-pages", "--n", "2", "--pool", "{bad}", "--out", "{out}"], _page_row),
    ],
    ids=["score", "chart-score", "dedup", "mix", "make-finegrained", "compose-pages"],
)


@_EVERY_JSONL_READER
def test_lone_surrogate_is_rejected_where_it_is_read(tmp_path, capsys, argv, row):
    good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "out"
    _write_corpus(good, ["text"])
    # json.dumps writes the lone surrogate as the escape \\ud800, which json.loads reads
    bad.write_text(row("s0", "text") + "\n" + row("s1", "x\ud800") + "\n")
    assert main([arg.format(good=good, bad=bad, out=out) for arg in argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"error: {bad}: line 2: lone surrogate U+D800 in a string"
    assert not out.exists()


@_EVERY_JSONL_READER
def test_undecodable_byte_is_rejected_naming_its_line(tmp_path, capsys, argv, row):
    good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "out"
    _write_corpus(good, ["text"])
    text = row("s0", "text") + "\n" + row("s1", "BAD") + "\n"
    bad.write_bytes(text.encode().replace(b"BAD", b"\xff"))
    assert main([arg.format(good=good, bad=bad, out=out) for arg in argv]) == 1
    assert capsys.readouterr() == (
        "", f"error: {bad}: line 2: invalid UTF-8 byte 0xff (invalid start byte)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "first, second, message",
    [("", _record_row("s0", "text"), "line 1: blank line"),
     (_record_row("s0", "text"), _record_row("s0", "text"), "line 2: duplicate sample id 's0'")],
    ids=["blank-line", "duplicate-id"],
)
def test_an_earlier_fault_is_reported_before_an_undecodable_byte(
    tmp_path, capsys, first, second, message
):
    good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "out"
    _write_corpus(good, ["text"])
    text = first + "\n" + second + "\n" + _record_row("s1", "BAD") + "\n"
    bad.write_bytes(text.encode().replace(b"BAD", b"\xff"))
    assert main(["mix", "--previous", str(bad), "--new", str(good), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    assert not out.exists()


def test_a_schema_version_line_is_an_unknown_field(tmp_path, capsys):
    # every line of a record file is one record; there is no header line
    good, old, out = tmp_path / "good.jsonl", tmp_path / "old.jsonl", tmp_path / "out"
    _write_corpus(good, ["text"])
    old.write_text('{"schema_version": 2}\n' + _record_row("s1", "text") + "\n")
    assert main(["mix", "--previous", str(old), "--new", str(good), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {old}: line 1: unknown field(s): schema_version\n"
    )
    assert not out.exists()


# Values of every JSON type, for the fields of the auxiliary inputs.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_HUGE = st.just(10**400)  # too large for a float
_SIZE = st.integers(-2, 2000) | _HUGE | _JSON
_COORD = st.integers(-5, 2000) | st.floats() | _HUGE
_DROP = object()  # the field is left out
_FIELD_VALUES = {
    "id": st.sampled_from(["a0", "a1"]) | _JSON,
    "page_id": st.sampled_from(["f0", "p0", "p1"]) | _JSON,
    "width": _SIZE,
    "height": _SIZE,
    "box": st.lists(_COORD, min_size=4, max_size=4) | _JSON,
    "text": st.text(max_size=5) | _JSON,
    "lang": st.sampled_from(["en", "zh", "other", "xx"]) | _JSON,
    "image_ref": st.none() | st.text(max_size=3) | _JSON,
}
# Lines that are not objects, or not JSON to the parser: nested past the recursion
# limit, or holding an integer past the str-conversion digit limit.
_RAW_LINES = st.sampled_from(
    ["5", "[]", "", "null", "{oops", "[" * 5000, '{"id": ' + "1" * 5000 + "}"]
)


def _edited_lines(fields):
    """Per line, a raw line or up to two of ``fields`` replaced by any value or left out."""
    edit = st.lists(st.sampled_from(fields), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: _FIELD_VALUES[k] | st.just(_DROP) for k in keys})
    )
    return st.lists(_RAW_LINES | edit, max_size=4)


def _jsonl(edited, base):
    lines = []
    for i, edit in enumerate(edited):
        if isinstance(edit, dict):
            row = {k: v for k, v in {**base(i), **edit}.items() if v is not _DROP}
            edit = json.dumps(row, ensure_ascii=False)
        lines.append(edit + "\n")
    return "".join(lines)


@given(
    st.sampled_from(["box", "color"]),
    _edited_lines(["id", "width", "height", "box", "text", "lang", "image_ref"]),
    _edited_lines(["page_id", "text", "image_ref"]),
)
@settings(max_examples=200, deadline=None)
def test_aux_commands_exit_cleanly_on_any_line(mode, annotations, pages):
    # two good pages up front, so a pool without line errors always composes
    pool = "".join(_page(f"f{i}") + "\n" for i in range(2))
    runs = [
        (
            ["make-finegrained", "--mode", mode, "--input"],
            _jsonl(annotations, lambda i: {**_ANNOTATION, "id": f"a{i}"}),
        ),
        (
            ["compose-pages", "--n", "2", "--pool"],
            pool + _jsonl(pages, lambda i: {"page_id": f"p{i}", "text": "one page"}),
        ),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, text in runs:
            path, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
            path.write_text(text, encoding="utf-8")
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv + [str(path), "--out", str(out)])
            if rc == 0:
                assert out.exists() and not err.getvalue()
            else:
                assert rc == 1 and not out.exists()
                pattern = rf"error: {re.escape(str(path))}: line \d+: [^\n]*\n"
                assert re.fullmatch(pattern, err.getvalue())


def test_output_files_get_the_plain_open_mode(tmp_path, capsys):
    plain = tmp_path / "plain.jsonl"
    _write_corpus(plain, ["some text"])
    out = tmp_path / "geom.jsonl"
    assert main(["gen-geometry", "--n", "1", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    # rewriting keeps the file's own mode, as open(path, "w") does
    out.chmod(0o640)
    assert main(["gen-geometry", "--n", "1", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


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


def test_validate_format_reads_stdin_in_process(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"C1CC\r\n")))
    assert main(["validate-format", "--kind", "smiles", "-"]) == 1
    assert capsys.readouterr().out == (
        "1:2 RING_UNPAIRED ring closure '1' appears 1 time(s), expected exactly 2\n"
    )


@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_validate_format_rejects_bad_utf8_naming_the_source(tmp_path, ocrkit_cli, from_stdin):
    data = b"C\xffC\n"
    path = tmp_path / "bad.smi"
    path.write_bytes(data)
    source = "<stdin>" if from_stdin else str(path)
    done = ocrkit_cli(
        ["validate-format", "--kind", "smiles", "-" if from_stdin else str(path)],
        data if from_stdin else b"",
    )
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.decode() == (
        f"error: {source}: 'utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte\n"
    )


def test_validate_format_crlf_gives_the_same_issues_from_file_and_stdin(tmp_path, ocrkit_cli):
    text = "é \\(x\n| a | b |\n| 1 |\n"
    crlf = text.replace("\n", "\r\n").encode()
    path = tmp_path / "page.md"
    path.write_bytes(crlf)
    argv = ["validate-format", "--kind", "markdown"]
    from_file = ocrkit_cli([*argv, str(path)], b"")
    from_stdin = ocrkit_cli([*argv, "-"], crlf)
    expected = "1:3 MATH_UNBALANCED unclosed \\(\n3:1 TABLE_ARITY row has 1 cells, header has 2\n"
    for done in (from_file, from_stdin):
        assert (done.returncode, done.stdout.decode(), done.stderr) == (1, expected, b"")


def test_gen_chart_pool_file_decode_error_names_the_file(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_bytes(b"alpha\nbe\xfata\n")
    out = tmp_path / "charts.jsonl"
    assert main(["gen-chart", "--pool-file", str(pool), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pool}: 'utf-8' codec can't decode byte 0xfa in position 8: "
        "invalid start byte\n"
    )
    assert not out.exists()


def test_gen_chart_dict_form_refuses_a_nul_the_table_form_writes_it(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("a\x00b\n", encoding="utf-8")
    out = tmp_path / "charts.jsonl"
    argv = ["gen-chart", "--pool-file", str(pool), "--n", "2", "--out", str(out)]
    assert main([*argv, "--form", "dict"]) == 1
    assert capsys.readouterr() == ("", "error: dict form cannot hold 'a\\x00b'\n")
    assert not out.exists()
    assert main([*argv, "--form", "table"]) == 0
    assert capsys.readouterr().out == f"wrote 2 chart records to {out}\n"
    texts = {s.ground_truth.split("\n")[0] for s in load_records(out).samples}
    assert texts == {"title: a\x00b"}


def test_gen_chart_pool_file_names_every_text(tmp_path, capsys):
    # entries are stripped and blank lines skipped; a repeated name gets a number
    pool = tmp_path / "pool.txt"
    pool.write_text("north\n  south \n\neast\n")
    out = tmp_path / "charts.jsonl"
    argv = ["gen-chart", "--pool-file", str(pool), "--seed", "1", "--form", "table",
            "--decimals", "0", "--out", str(out)]
    assert main([*argv, "--n", "1"]) == 0
    assert capsys.readouterr().out == f"wrote 1 chart records to {out}\n"
    table = (
        "title: east\nsource: north\nx_title: south\ny_title: north\n"
        "| label | south | east |\n| --- | --- | --- |\n| south | 893.0 | 266.0 |\n"
        "| north | 390.0 | 802.0 |\n| north 2 | 607.0 | 591.0 |\n"
        "| south 2 | 767.0 | 102.0 |\n| north 3 | 696.0 | 317.0 |\n"
    )
    assert out.read_text() == json.dumps(
        {"id": "chart-00000001", "task_kind": "Chart",
         "prompt": "Convert the chart to a markdown table:", "ground_truth": table,
         "lang": "en", "meta": {"chart_form": "table"}}, separators=(",", ":")
    ) + "\n"
    assert main([*argv, "--n", "6"]) == 0
    texts = set()
    for sample in load_records(out).samples:
        struct = charts.parse_chart_output(sample.ground_truth)
        texts |= {struct.title, struct.source, struct.x_title, struct.y_title}
        texts |= {text for s in struct.series for text in (s.name, *dict(s.points))}
    assert {re.sub(r" \d+$", "", text) for text in texts} == {"north", "south", "east"}


@pytest.mark.parametrize(
    "flags, shown", [(["--value-hi", "inf"], "(0.0, inf)"), (["--value-lo", "nan"], "(nan, 1000.0)")]
)
def test_gen_chart_non_finite_value_bound_names_value_range(tmp_path, capsys, flags, shown):
    out = tmp_path / "charts.jsonl"
    assert main(["gen-chart", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: value_range bounds must be finite, got {shown}\n"
    assert not out.exists()


def test_gen_chart_value_range_too_wide_to_draw_from_names_value_range(tmp_path, capsys):
    # each bound is finite, but hi - lo overflows to inf
    out = tmp_path / "charts.jsonl"
    argv = ["gen-chart", "--n", "3", "--value-lo=-1.7e308", "--value-hi=1.7e308", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: value_range width must be finite, got (-1.7e+308, 1.7e+308)\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("target", ["missing/x.json", "adir"], ids=["no-parent", "directory"])
def test_failed_write_names_the_requested_path(tmp_path, capsys, target):
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ["text"])
    (tmp_path / "adir").mkdir()
    path = tmp_path / target
    assert main(["score", "--gt", str(gt), "--pred", str(gt), "--json", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[Errno \d+\] [^:\n]+: '{re.escape(str(path))}'\n", err)
    # no temp file left beside the target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "gt.jsonl"]
    assert not any((tmp_path / "adir").iterdir())


def test_record_that_fails_mid_write_leaves_the_old_file(tmp_path, monkeypatch, capsys):
    # records are serialized while the temp file is being written; a failure on
    # the third one must still leave the target as it was and no temp file
    out = tmp_path / "g.jsonl"
    out.write_bytes(b"old bytes\n")
    original, written = corpus.record_line, []

    def record_line(sample):
        if len(written) == 2:
            raise ValueError("cannot write record 3")
        written.append(sample.id)
        return original(sample)

    monkeypatch.setattr(corpus, "record_line", record_line)
    assert main(["gen-geometry", "--n", "4", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: cannot write record 3\n")
    assert len(written) == 2
    assert out.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.jsonl"]


def test_unreadable_input_is_reported(tmp_path, capsys):
    rc = main(["score", "--gt", str(tmp_path / "ghost.jsonl"),
               "--pred", str(tmp_path / "ghost.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- argument contract -------------------------------------------------------------------

_ROOT_USAGE = (
    "usage: ocrkit [-h] {score,chart-score,tile-plan,stitch,make-finegrained,compose-pages,"
    "paste-layout,gen-geometry,gen-chart,validate-format,dedup,mix} ..."
)
_DEDUP_USAGE = (
    "usage: ocrkit dedup [-h] --test TEST --train TRAIN [--threshold THRESHOLD] --out OUT"
)
_HELP_USAGES = {
    "score": "usage: ocrkit score [-h] --gt GT --pred PRED [--granularity {word,char}] "
             "[--style {text,markdown}] [--json JSON]",
    "chart-score": "usage: ocrkit chart-score [-h] --gt GT --pred PRED [--style {text,markdown}] "
                   "[--json JSON]",
    "tile-plan": "usage: ocrkit tile-plan [-h] --width WIDTH --height HEIGHT "
                 "[--max-tiles MAX_TILES] [--no-thumbnail] [--json JSON]",
    "stitch": "usage: ocrkit stitch [-h] --pages PAGES --orientation {horizontal,vertical} "
              "[--json JSON]",
    "make-finegrained": "usage: ocrkit make-finegrained [-h] --input INPUT --out OUT "
                        "[--mode {box,color}] [--seed SEED] [--thickness THICKNESS]",
    "compose-pages": "usage: ocrkit compose-pages [-h] --pool POOL --n N [--count COUNT] "
                     "[--seed SEED] --out OUT",
    "paste-layout": "usage: ocrkit paste-layout [-h] --slices SLICES --canvas CANVAS "
                    "[--seed SEED] [--out OUT]",
    "gen-geometry": "usage: ocrkit gen-geometry [-h] [--seed SEED] [--n N] --out OUT "
                    "[--min-elements MIN_ELEMENTS] [--max-elements MAX_ELEMENTS] "
                    "[--bound-lo BOUND_LO] [--bound-hi BOUND_HI] [--kinds KINDS]",
    "gen-chart": "usage: ocrkit gen-chart [-h] [--seed SEED] [--n N] --out OUT "
                 "[--form {dict,table}] [--value-lo VALUE_LO] [--value-hi VALUE_HI] "
                 "[--decimals DECIMALS] [--pool-file POOL_FILE] [--specs-dir SPECS_DIR]",
    "validate-format": "usage: ocrkit validate-format [-h] --kind {kern,markdown,smiles,tikz} "
                       "[file]",
    "dedup": _DEDUP_USAGE,
    "mix": "usage: ocrkit mix [-h] --previous PREVIOUS --new NEW [--ratio RATIO] "
           "[--seed SEED] --out OUT",
}


def _listed_choices(names) -> str:
    """names as this interpreter's argparse lists the choices of an invalid-choice error:
    3.10-3.12 and 3.13.0 quote each name, later 3.13 patch releases do not."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("command", choices=("NAME",))
    with pytest.raises(argparse.ArgumentError) as exc:
        probe.parse_args(["nope"])
    listed = str(exc.value).rpartition(" (choose from ")[2].removesuffix(")")
    return ", ".join(listed.replace("NAME", name) for name in names)


_CHOICES = _listed_choices(_HELP_USAGES)
# argv, exit code, usage (whitespace folded), last stderr line (None: stderr is empty)
_CONTRACT = [
    pytest.param([], 2, _ROOT_USAGE,
                 "ocrkit: error: the following arguments are required: command", id="no-args"),
    pytest.param(["-h"], 0, _ROOT_USAGE, None, id="root-help"),
    *(pytest.param([sub, "--help"], 0, usage, None, id=f"{sub}-help")
      for sub, usage in _HELP_USAGES.items()),
    pytest.param(
        ["nope"], 2, _ROOT_USAGE,
        f"ocrkit: error: argument command: invalid choice: 'nope' (choose from {_CHOICES})",
        id="unknown-command",
    ),
    pytest.param(["--verbose", "score", "--gt", "a", "--pred", "b"], 2, _ROOT_USAGE,
                 "ocrkit: error: unrecognized arguments: --verbose", id="option-before-command"),
    pytest.param(["dedup", "--test", "a"], 2, _DEDUP_USAGE,
                 "ocrkit dedup: error: the following arguments are required: --train, --out",
                 id="missing-required-flag"),
    pytest.param(
        ["dedup", "--test", "a", "--train", "b", "--out", "c", "--threshold", "x"], 2,
        _DEDUP_USAGE, "ocrkit dedup: error: argument --threshold: invalid float value: 'x'",
        id="bad-flag-value",
    ),
]


@pytest.mark.parametrize("argv, code, usage, error", _CONTRACT)
def test_argument_contract(capsys, argv, code, usage, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    # help goes to stdout, usage first; a usage error to stderr, the error line last
    if error is None:
        assert err == ""
        shown = out.split("\n\n")[0]
    else:
        assert out == ""
        shown, _, last = err.rstrip("\n").rpartition("\n")
        assert last == error
    assert " ".join(shown.split()) == usage


# --- import surface ----------------------------------------------------------------------


_FRONT_END = {"ocrkit", "ocrkit.cli"}

_METRICS = {"ocrkit.metrics", "ocrkit._kernels"}
# what mix loads: the front end, the shared helpers and the record model;
# score and dedup load the metrics with their kernel as well
_RECORD_MODULES = _FRONT_END | {"ocrkit._record", "ocrkit.commands", "ocrkit.corpus"}


def test_cli_import_loads_only_the_front_end(ocrkit_modules_after):
    assert ocrkit_modules_after("import ocrkit.cli") == sorted(_FRONT_END)


def test_record_model_import_loads_no_metrics(ocrkit_modules_after):
    assert ocrkit_modules_after("import ocrkit.corpus") == [
        "ocrkit", "ocrkit._record", "ocrkit.corpus"
    ]


_ENGINES = {"ocrkit.charts", "ocrkit.finegrained", "ocrkit.geometry", "ocrkit.pagecompose",
            "ocrkit.tikz", "ocrkit.tiling", "ocrkit.validators"}


def _main_statements(argv, code=0):
    """Statements that run ``ocrkit *argv`` in process, which must exit with ``code``."""
    return (
        "import contextlib, io\n"
        "from ocrkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        assert main({argv!r}) == {code}\n"
        "    except SystemExit as exc:\n"
        f"        assert exc.code == {code}"
    )


def _modules_after_main(ocrkit_modules_after, argv, code=0):
    """The ocrkit modules a fresh process loads to run ``ocrkit *argv``."""
    return set(ocrkit_modules_after(_main_statements(argv, code)))


@pytest.mark.parametrize("sub", sorted(COMMANDS))
def test_subcommand_help_loads_only_the_front_end(ocrkit_modules_after, sub):
    assert _modules_after_main(ocrkit_modules_after, [sub, "--help"]) == _FRONT_END


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), ([], 2), (["nope"], 2), (["dedup", "--test", "a"], 2),
     (["tile-plan", "--width", "x", "--height", "1"], 2)],
    ids=["root-help", "no-command", "unknown-command", "missing-flag", "bad-flag-value"],
)
def test_root_help_and_usage_errors_load_only_the_front_end(ocrkit_modules_after, argv, code):
    assert _modules_after_main(ocrkit_modules_after, argv, code) == _FRONT_END


@pytest.mark.parametrize("argv", [["-h"], *([sub, "--help"] for sub in sorted(COMMANDS))],
                         ids=["root", *sorted(COMMANDS)])
def test_help_loads_neither_json_nor_unicodedata(stdlib_modules_after, argv):
    loaded = stdlib_modules_after(_main_statements(argv))
    assert "argparse" in loaded and not loaded & {"json", "unicodedata"}


_VALID_INPUTS = {  # file name -> a text that the subcommand reading it accepts
    "doc.jsonl": json.dumps({"id": "d0", "task_kind": "PlainDoc",
                             "ground_truth": "a few words"}) + "\n",
    "chart.jsonl": json.dumps({"id": "c0", "task_kind": "Chart",
                               "ground_truth": '{"values": {"s": {"a": 1}}}'}) + "\n",
    "annotations.jsonl": json.dumps(_ANNOTATION) + "\n",
    "pool.jsonl": "".join(json.dumps({"page_id": f"p{i}", "text": "tok"}) + "\n" for i in range(2)),
    "valid.kern": "**kern\n4c\n*-\n",
    "valid.markdown": "some \\(x\\) and a | table |\n",
    "valid.smiles": "C1CCCCC1\n",
    "valid.tikz": "\\draw (0,0) circle (1);\n",
}


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["chart-score", "--gt", "chart.jsonl", "--pred", "chart.jsonl"], {"charts"}),
        (["gen-chart", "--n", "2", "--out", "o"], {"charts"}),
        (["tile-plan", "--width", "2048", "--height", "1024"], {"tiling"}),
        (["stitch", "--pages", "80x110,60x90", "--orientation", "vertical"], {"tiling"}),
        (["compose-pages", "--pool", "pool.jsonl", "--n", "2", "--out", "o"], {"pagecompose"}),
        # these runs read image sizes, which are tiling.ImageDims, so they load tiling too
        (["make-finegrained", "--input", "annotations.jsonl", "--out", "o"],
         {"finegrained", "tiling"}),
        (["paste-layout", "--slices", "600x70,500x60,400x80,300x50,200x40,100x30",
          "--canvas", "1240x1754"],
         {"pagecompose", "tiling"}),
        (["gen-geometry", "--n", "2", "--out", "o"], {"geometry"}),
        *((["validate-format", "--kind", kind, f"valid.{kind}"], {"validators"})
          for kind in ("kern", "markdown", "smiles")),
        # the TikZ reader builds the geometry engine's scenes
        (["validate-format", "--kind", "tikz", "valid.tikz"], {"validators", "tikz", "geometry"}),
    ],
    ids=["chart-score-charts", "gen-chart-charts", "tile-plan-tiling", "stitch-tiling",
         "compose-pages-pagecompose", "make-finegrained-finegrained",
         "paste-layout-pagecompose", "gen-geometry-geometry", "validate-format-kern",
         "validate-format-markdown", "validate-format-smiles", "validate-format-tikz"],
)
def test_engine_run_loads_its_own_engine_only(ocrkit_modules_after, tmp_path, argv, engines):
    for name, text in _VALID_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {*_VALID_INPUTS, "o"}
    argv = [str(tmp_path / arg) if arg in paths else arg for arg in argv]
    loaded = _modules_after_main(ocrkit_modules_after, argv)
    assert "--out" not in argv or (tmp_path / "o").is_file()
    assert loaded & _ENGINES == {f"ocrkit.{engine}" for engine in engines}
    handlers = {f"ocrkit.commands.{COMMANDS[argv[0]][1]}"}
    assert {m for m in loaded if m.startswith("ocrkit.commands.")} == handlers
    # a run that reads and writes no record file loads neither the record model nor the metrics
    if argv[0] in {"tile-plan", "stitch", "validate-format"}:
        assert not loaded & {"ocrkit.corpus", *_METRICS}
    else:
        assert "ocrkit.corpus" in loaded
    # of the engines only the page composer tokenizes, so only its runs load the metrics
    assert loaded & _METRICS == (_METRICS if "pagecompose" in engines else set())
    # generating scenes compiles no text reader
    if argv[0] == "gen-geometry":
        assert not loaded & {"ocrkit.tikz", "ocrkit._scan"}


@pytest.mark.parametrize(
    "argv, metrics",
    [(["score", "--gt", "doc.jsonl", "--pred", "doc.jsonl"], _METRICS),
     (["dedup", "--test", "doc.jsonl", "--train", "chart.jsonl", "--out", "o"], _METRICS),
     (["mix", "--previous", "doc.jsonl", "--new", "chart.jsonl", "--out", "o"], set())],
    ids=["score", "dedup", "mix"],
)
def test_record_run_loads_the_record_model_and_the_metrics_only(
    ocrkit_modules_after, tmp_path, argv, metrics
):
    for name in ("doc.jsonl", "chart.jsonl"):
        (tmp_path / name).write_text(_VALID_INPUTS[name], encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in {"doc.jsonl", "chart.jsonl", "o"} else arg
            for arg in argv]
    assert _modules_after_main(ocrkit_modules_after, argv) == _RECORD_MODULES | metrics
    assert "--out" not in argv or (tmp_path / "o").is_file()


def test_run_as_main_module_executes_the_front_end_once(ocrkit_modules_after, tmp_path):
    # as ``python -m ocrkit.cli`` runs it, the front end is the __main__ module
    # only: no ocrkit module imports ocrkit.cli, so no second copy is loaded
    argv = ["ocrkit", "gen-geometry", "--n", "1", "--out", str(tmp_path / "o")]
    loaded = ocrkit_modules_after(
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('ocrkit.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0"
    )
    assert "ocrkit.cli" not in loaded
    assert "ocrkit.commands.geometry" in loaded and (tmp_path / "o").is_file()
    src = Path(main.__code__.co_filename).parent
    for path in src.rglob("*.py"):
        package = ["ocrkit", *path.parent.relative_to(src).parts]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                prefix = ".".join([*base, *filter(None, [node.module])])
                names = [prefix, *(f"{prefix}.{alias.name}" for alias in node.names)]
            else:
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            assert "ocrkit.cli" not in names, f"{path.name}:{node.lineno} imports ocrkit.cli"


def _counting(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so that each call is counted under ``name``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_handlers_look_engine_functions_up_at_call_time(tmp_path, monkeypatch, capsys):
    # wrappers set on the engine modules after import must see every call, as
    # the benchmark's per-layer spans do
    calls = {}
    for module, name in [(charts, "parse_chart_output"), (geometry, "gen_scene"),
                         (pagecompose, "compose_multipage"), (corpus, "corpus_lines")]:
        _counting(monkeypatch, module, name, calls)
    gt = tmp_path / "gt.jsonl"
    _write_corpus(gt, ['{"values": {"s": {"a": 1}}}'] * 3, kind=TaskKind.CHART)
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(_page(f"p{i}") + "\n" for i in range(4)))
    runs = [
        (["chart-score", "--gt", str(gt), "--pred", str(gt)], {"parse_chart_output": 6}),
        (["gen-geometry", "--n", "4", "--out", str(tmp_path / "g")],
         {"gen_scene": 4, "corpus_lines": 1}),
        (["gen-chart", "--n", "2", "--out", str(tmp_path / "c")], {"corpus_lines": 1}),
        (["compose-pages", "--pool", str(pool), "--n", "2", "--count", "3",
          "--out", str(tmp_path / "p")], {"compose_multipage": 3, "corpus_lines": 1}),
        (["dedup", "--test", str(gt), "--train", str(gt), "--out", str(tmp_path / "d")],
         {"corpus_lines": 1}),
    ]
    for argv, expected in runs:
        calls.clear()
        assert main(argv) == 0
        assert calls == expected, argv


def _subcommands():
    return sorted(COMMANDS)


@pytest.mark.parametrize("sub", _subcommands())
def test_every_subcommand_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ocrkit {sub} ")


@pytest.mark.parametrize("sub", _subcommands())
def test_every_subcommand_help_prints_its_defaults(sub, capsys):
    # argparse's ArgumentDefaultsHelpFormatter shows a default only after help text
    flags = argparse.ArgumentParser()
    _add_flags(flags, sub)
    # every flag that takes a value and has one by default; store_true flags take none
    defaults = [action for action in flags._actions if action.option_strings
                and action.nargs != 0 and action.default not in (None, argparse.SUPPRESS)]
    with pytest.raises(SystemExit):
        main([sub, "--help"])
    options = capsys.readouterr().out.split("\n\n")[-1]
    # one entry per flag: its line, and the wrapped lines indented below it
    entries = [" ".join(entry.split()) for entry in re.split(r"\n(?=  -)", options)[1:]]
    shown = {entry.split(" ")[0]: entry for entry in entries}
    for action in defaults:
        entry = shown[action.option_strings[0]]
        assert entry.endswith(f" (default: {action.default})"), entry


def test_validate_kinds_are_the_validators():
    assert VALIDATE_KINDS == tuple(sorted(validators.VALIDATORS))
