"""CLI behaviour: exit codes, report shapes, atomic output, determinism."""

import argparse
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


_ANNOTATION = {"id": "a1", "width": 1000, "height": 500, "box": [10, 20, 400, 100], "text": "hi"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["make-finegrained", "--input", "{input}", "--mode", "box"], "--thickness"),
        (["make-finegrained", "--input", "{input}", "--mode", "color"], "--thickness"),
        (["gen-geometry"], "--n"),
        (["gen-chart"], "--n"),
        (["compose-pages", "--pool", "{input}", "--n", "2"], "--count"),
    ],
    ids=["thickness-box", "thickness-color", "gen-geometry-n", "gen-chart-n", "compose-count"],
)
@pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
def test_positive_int_flags_reject_bad_values_before_reading(tmp_path, capsys, argv, flag, value):
    # exit 2 from argparse: nothing is read or written
    source = tmp_path / "in.jsonl"
    source.write_text("")
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exc:
        main([a.format(input=source) for a in argv] + ["--out", str(out), flag, value])
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


@pytest.mark.parametrize(
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
def test_lone_surrogate_is_rejected_where_it_is_read(tmp_path, capsys, argv, row):
    good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "out"
    _write_corpus(good, ["text"])
    # json.dumps writes the lone surrogate as the escape \\ud800, which json.loads reads
    bad.write_text(row("s0", "text") + "\n" + row("s1", "x\ud800") + "\n")
    assert main([arg.format(good=good, bad=bad, out=out) for arg in argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"error: {bad}: line 2: lone surrogate U+D800 in a string"
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


@pytest.mark.parametrize(
    "flags, shown", [(["--value-hi", "inf"], "(0.0, inf)"), (["--value-lo", "nan"], "(nan, 1000.0)")]
)
def test_gen_chart_non_finite_value_bound_names_value_range(tmp_path, capsys, flags, shown):
    out = tmp_path / "charts.jsonl"
    assert main(["gen-chart", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: value_range bounds must be finite, got {shown}\n"
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


def test_unreadable_input_is_reported(tmp_path, capsys):
    rc = main(["score", "--gt", str(tmp_path / "ghost.jsonl"),
               "--pred", str(tmp_path / "ghost.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- import surface ----------------------------------------------------------------------


def test_cli_import_loads_only_the_scoring_modules(ocrkit_modules_after):
    assert ocrkit_modules_after("import ocrkit.cli") == [
        "ocrkit", "ocrkit._kernels", "ocrkit._record", "ocrkit.cli", "ocrkit.corpus",
        "ocrkit.metrics",
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
