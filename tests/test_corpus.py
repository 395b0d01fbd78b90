"""Record model: round trips, format errors, dedup filtering, stage mixing."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.commands import save_corpus_atomic
from ocrkit.corpus import (
    Corpus,
    CorpusFormatError,
    Sample,
    TaskKind,
    dedup_filter,
    dump_records,
    load_records,
    mix_stages,
    pair_by_id,
    record_line,
    save_records,
)
from ocrkit.metrics import edit_distance_norm, tokenize

TEXT = st.text(min_size=1, max_size=30)
META = st.dictionaries(st.text(max_size=8), st.text(max_size=12), max_size=3)
# any code point but a surrogate, drawing the ones that end a line somewhere often
ANY_TEXT = st.text(
    st.characters(codec="utf-8") | st.sampled_from("\u2028\u2029\u0085\r\n\x1c你"),
    min_size=1,
    max_size=12,
)


def _sample(i, text="some text", kind=TaskKind.PLAIN_DOC, **kwargs):
    return Sample(id=f"s{i}", task_kind=kind, ground_truth=text, **kwargs)


def _corpus(*samples):
    return Corpus(tuple(samples))


# --- model invariants ---------------------------------------------------------


def test_sample_requires_id_and_ground_truth():
    with pytest.raises(ValueError):
        Sample(id="", task_kind=TaskKind.PLAIN_DOC, ground_truth="x")
    with pytest.raises(ValueError):
        Sample(id="a", task_kind=TaskKind.PLAIN_DOC, ground_truth="")


def test_sample_rejects_unknown_kind_and_lang():
    with pytest.raises(ValueError):
        Sample(id="a", task_kind="NotAKind", ground_truth="x")
    with pytest.raises(ValueError):
        Sample(id="a", task_kind=TaskKind.CHART, ground_truth="x", lang="fr")


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        _corpus(_sample(1), _sample(1))


def test_corpus_holds_only_its_samples():
    assert Corpus.__slots__ == ("samples",)
    with pytest.raises(TypeError):
        Corpus((), 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Sample(5, TaskKind.CHART, "x"), "field 'id' must be a string"),
        (lambda: Sample("a", None, "x"), "field 'task_kind' must be a string"),
        (lambda: Sample("a", "NotAKind", "x"), "'NotAKind' is not a valid TaskKind"),
        (lambda: Sample("a", "chart", "x"), "'chart' is not a valid TaskKind"),
        (lambda: Sample("a", TaskKind.CHART, b"x"), "field 'ground_truth' must be a string"),
        (lambda: Sample("a", TaskKind.CHART, "x", prompt=3), "field 'prompt' must be a string"),
        (lambda: Sample("a", TaskKind.CHART, "x", lang=True), "field 'lang' must be a string"),
        (lambda: Sample("a", TaskKind.CHART, "x", image_ref=0),
         "field 'image_ref' must be a string or null"),
        (lambda: Sample("a", TaskKind.CHART, "x", meta=None), "field 'meta' must be an object"),
        (lambda: Sample("a", TaskKind.CHART, "x\ud800"), "sample 'a': lone surrogate U+D800 in a string"),
        (lambda: Sample("a", TaskKind.CHART, "x", meta={"k": "\udfff"}),
         "sample 'a': lone surrogate U+DFFF in a string"),
        (lambda: Corpus((Sample("a", TaskKind.CHART, "x"), Sample("a", TaskKind.CHART, "y"))),
         "duplicate sample id 'a'"),
    ],
)
def test_constructors_reject_what_the_loader_rejects(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


# --- load/save ------------------------------------------------------------------


def test_empty_file_loads_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = load_records(path)
    assert len(corpus) == 0


def test_empty_corpus_saves_empty_file(tmp_path):
    path = tmp_path / "out.jsonl"
    save_records(_corpus(), path)
    assert path.read_bytes() == b""


def test_mixed_and_deduped_corpora_save_one_line_per_sample(tmp_path):
    previous = _corpus(_sample(1, "alpha beta"), _sample(2, "gamma delta"))
    new = _corpus(_sample(3, "epsilon zeta"))
    for i, corpus in enumerate([mix_stages(previous, new, 1.0, 0), dedup_filter(new, previous, 0.9)]):
        path = tmp_path / f"{i}.jsonl"
        save_records(corpus, path)
        assert path.read_text().splitlines() == [record_line(s) for s in corpus.samples]
        assert load_records(path) == corpus


def test_three_lines_in_order(tmp_path):
    corpus = _corpus(_sample(1), _sample(2), _sample(3))
    path = tmp_path / "c.jsonl"
    save_records(corpus, path)
    assert path.read_text().count("\n") == 3
    assert [s.id for s in load_records(path).samples] == ["s1", "s2", "s3"]


def test_missing_ground_truth_names_line(tmp_path):
    lines = [
        json.dumps({"id": "a", "task_kind": "PlainDoc", "ground_truth": "ok"}),
        json.dumps({"id": "b", "task_kind": "PlainDoc"}),
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 2") as exc:
        load_records(path)
    assert exc.value.line == 2


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "task_kind": "PlainDoc", "ground_truth": "x"}\n{oops\n')
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_records(path)


def test_duplicate_id_names_id(tmp_path):
    line = json.dumps({"id": "dup", "task_kind": "PlainDoc", "ground_truth": "x"})
    path = tmp_path / "dup.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(CorpusFormatError, match="dup"):
        load_records(path)


def test_unknown_top_level_field_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(
            {"id": "a", "task_kind": "PlainDoc", "ground_truth": "x", "extra": 1}
        )
        + "\n"
    )
    with pytest.raises(CorpusFormatError, match="extra"):
        load_records(path)


_OK = {"id": "a", "task_kind": "PlainDoc", "ground_truth": "x"}


def _line(**fields):
    return json.dumps({**_OK, **fields}) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n", "line 1: blank line"),
        ("{oops\n", "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
        ("[1]\n", "line 1: record is not an object"),
        (_line(extra=1, b=2), "line 1: unknown field(s): b, extra"),
        ('{"id": "a", "task_kind": "PlainDoc"}\n', "line 1: missing field 'ground_truth'"),
        (_line(id=1), "line 1: field 'id' must be a string"),
        (_line(task_kind=None), "line 1: field 'task_kind' must be a string"),
        (_line(lang=True), "line 1: field 'lang' must be a string"),
        (_line(image_ref=3), "line 1: field 'image_ref' must be a string or null"),
        (_line(meta=[]), "line 1: field 'meta' must be an object"),
        (_line(meta={"k": 1}), "line 1: sample 'a': meta must map strings to strings"),
        (_line(ground_truth=""), "line 1: sample 'a': ground_truth must be non-empty"),
        (_line(task_kind="Nope"), "line 1: 'Nope' is not a valid TaskKind"),
        ('{"schema_version": 2}\n', "line 1: unknown field(s): schema_version"),
        ('{"schema_version": 1}\n' + _line(), "line 1: unknown field(s): schema_version"),
        (_line() + _line(), "line 2: duplicate sample id 'a'"),
        (_line(ground_truth="x\ud800"), "line 1: lone surrogate U+D800 in a string"),
        (_line(meta={"\udfff": "v"}), "line 1: lone surrogate U+DFFF in a string"),
        (_line(meta={"k": "\ude00\ud83d"}), "line 1: lone surrogate U+DE00 in a string"),
        (json.dumps({**_OK, "meta": {"\udc00": "v"}, "prompt": "\ud801"}) + "\n",
         "line 1: lone surrogate U+DC00 in a string"),
    ],
)
def test_format_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(CorpusFormatError) as exc:
        load_records(path)
    assert str(exc.value) == message


def test_surrogate_pairs_and_escaped_backslashes_load(tmp_path):
    # json.dumps escapes U+1F600 as a surrogate pair, and the backslash before "ud800"
    # as a backslash: neither decodes to a lone surrogate
    path = tmp_path / "ok.jsonl"
    path.write_text(_line(ground_truth="\U0001F600 \\ud800"))
    [sample] = load_records(path).samples
    assert sample.ground_truth == "\U0001F600 \\ud800"


def test_overlong_integer_is_a_format_error(tmp_path):
    # past the int str-conversion digit limit json.loads raises a plain ValueError
    path = tmp_path / "long.jsonl"
    path.write_text(_line()[:-2] + ', "meta": ' + "9" * 5000 + "}\n")
    with pytest.raises(CorpusFormatError) as exc:
        load_records(path)
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "data, line, message",
    [
        (_line().encode() + b'{"id": "\xff"}\n', 2,
         "line 2: invalid UTF-8 byte 0xff (invalid start byte)"),
        (b"".join(_line(id=i).encode().replace(b"\n", b"\r\n") for i in "ab")
         + b'{"id": "\xe4x"}', 3,
         "line 3: invalid UTF-8 byte 0xe4 (invalid continuation byte)"),
        (b'{"id": "\xe4\xbd', 1, "line 1: invalid UTF-8 byte 0xe4 (unexpected end of data)"),
    ],
    ids=["start-byte", "crlf-continuation", "truncated"],
)
def test_undecodable_byte_names_its_line(tmp_path, data, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError) as exc:
        load_records(path)
    assert (exc.value.line, str(exc.value)) == (line, message)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\n" + _line(id="a").encode() + b'{"id": "\xff"}\n', "line 1: blank line"),
        (_line(id="a").encode() * 2 + b'{"id": "\xff"}\n', "line 2: duplicate sample id 'a'"),
    ],
    ids=["blank-line", "duplicate-id"],
)
def test_an_earlier_fault_is_reported_before_an_undecodable_byte(tmp_path, data, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError) as exc:
        load_records(path)
    assert str(exc.value) == message


_RECORD_LINES = [_line(id="a").encode(), _line(id="b", meta={"k": "你"}).encode(),
                 b'{"schema_version": 2}\n', b"\n"]


def _spliced(line: bytes, at: int, junk: bytes) -> bytes:
    return line[:at] + junk + line[at:]


@given(st.lists(
    st.binary(max_size=8)
    | st.builds(_spliced, st.sampled_from(_RECORD_LINES), st.integers(0, 60), st.binary(max_size=3)),
    max_size=4,
).map(b"".join))
@settings(max_examples=300, deadline=None)
def test_load_records_returns_a_corpus_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any_bytes.jsonl"
    path.write_bytes(data)
    try:
        assert type(load_records(path)) is Corpus
    except CorpusFormatError:
        pass


def test_bare_cr_between_json_tokens_loads(tmp_path):
    # CR is JSON whitespace, and only LF ends a line
    path = tmp_path / "cr.jsonl"
    path.write_bytes(b'{"id":"s1","task_kind":"PlainDoc",\r"ground_truth":"a"}')
    [sample] = load_records(path).samples
    assert (sample.id, sample.ground_truth) == ("s1", "a")


@pytest.mark.parametrize("last", ["{oops\n", "\n", _line(id="a"), _line(lang="xx")])
def test_crlf_corpus_loads_and_errors_name_the_same_line(tmp_path, last):
    good = _line(id="a") + _line(id="b")
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(good.replace("\n", "\r\n").encode())
    assert [s.id for s in load_records(path).samples] == ["a", "b"]
    errors = []
    for newline in ("\n", "\r\n"):
        path.write_bytes((good + last).replace("\n", newline).encode())
        with pytest.raises(CorpusFormatError) as exc:
            load_records(path)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("line 3: ")


def _raw_line(ground_truth, id="a"):
    """A record line with its non-ASCII text as raw UTF-8, not as JSON escapes."""
    line = json.dumps({**_OK, "id": id, "ground_truth": ground_truth}, ensure_ascii=False)
    return line.encode() + b"\n"


# the bytes of _raw_line before its ground truth's first character
_HEAD = len(_raw_line("")) - 3
# the file is read in 8 KiB blocks; this ground truth puts 你 at bytes 8191-8193
_ACROSS_8K = "x" * (8191 - _HEAD) + "你"


@pytest.mark.parametrize(
    "data, expected",
    [
        (_line(ground_truth="x" * 70_000).encode() + _line(id="b").encode(),
         [("a", "x" * 70_000), ("b", "x")]),
        (_line(ground_truth="x" * 70_000).encode()[:-2] + b"\n",
         "line 1: invalid JSON (Expecting ',' delimiter)"),
        (_raw_line(_ACROSS_8K) + _line(id="b").encode(), [("a", _ACROSS_8K), ("b", "x")]),
        (_raw_line(_ACROSS_8K)[:-4] + b"\n",  # 你 cut after two bytes
         "line 1: invalid UTF-8 byte 0xe4 (invalid continuation byte)"),
        ((_line(id="a") + _line(id="b")).encode()[:-1], [("a", "x"), ("b", "x")]),
        (_line(id="a").encode() + b'{"id": "b"', "line 2: invalid JSON (Expecting ',' delimiter)"),
        (_line(id="a").encode() + b'{"id": "b\n',
         "line 2: invalid JSON (Unterminated string starting at)"),
        (b'{"id": "\xe4\xbd\n', "line 1: invalid UTF-8 byte 0xe4 (invalid continuation byte)"),
    ],
    ids=["line-over-64k", "line-over-64k-error", "char-across-8k", "truncated-across-8k",
         "no-final-lf", "no-final-lf-error", "unterminated-string-before-lf",
         "truncated-before-lf"],
)
def test_reader_boundaries(tmp_path, data, expected):
    # the reader takes a line with its LF: a long line, a block boundary or a
    # missing final LF changes nothing, and a sequence cut short by the LF
    # is a bad continuation, where at the end of the file it is cut short
    path = tmp_path / "edge.jsonl"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(CorpusFormatError) as exc:
            load_records(path)
        assert str(exc.value) == expected
    else:
        assert [(s.id, s.ground_truth) for s in load_records(path).samples] == expected


def _big_corpus():
    """About 2 MB of records, a fifth of their text CJK."""
    texts = ("word " * 180, "字" * 300)
    return _corpus(*(_sample(i, f"{i} " + texts[i % 5 == 0]) for i in range(2200)))


def test_load_records_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "big.jsonl"
    save_records(_big_corpus(), path)
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        corpus = load_records(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 2200
    assert peak - held < size / 2


def test_load_records_keeps_one_copy_of_each_repeated_prompt_lang_and_meta_string(tmp_path):
    # prompts interleaved, so the copy kept is not just the previous record's
    corpus = Corpus(tuple(
        Sample(f"s{i}", TaskKind.CHART, f"text {i}", prompt=("Convert:", "Read:")[i % 2],
               lang=("en", "zh")[i % 3 == 0], meta={"form": ("dict", "table")[i % 2], f"k{i}": "v"})
        for i in range(6)
    ))
    path = tmp_path / "records.jsonl"
    save_records(corpus, path)
    loaded = load_records(path)
    assert loaded == corpus
    assert dump_records(loaded) == dump_records(corpus)
    first = {}
    for s in loaded.samples:
        strings = [s.prompt, s.lang, *s.meta, *s.meta.values()]
        for text in strings:
            assert first.setdefault(text, text) is text
    assert len({id(s.prompt) for s in loaded.samples}) == 2
    assert len({id(text) for s in loaded.samples for text in s.meta.values()}) == 3


def test_save_corpus_atomic_holds_one_line_at_a_time(tmp_path):
    corpus = _big_corpus()
    path = tmp_path / "big.jsonl"
    save_corpus_atomic(corpus, tmp_path / "warm.jsonl")  # the first call's imports are not traced
    tracemalloc.start()
    try:
        save_corpus_atomic(corpus, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == dump_records(corpus)
    assert path.stat().st_size > 2_000_000
    assert peak < 256 * 1024


@given(
    st.lists(
        st.tuples(
            ANY_TEXT,
            st.sampled_from(list(TaskKind)),
            ANY_TEXT,
            st.none() | ANY_TEXT,
            st.dictionaries(ANY_TEXT, ANY_TEXT, max_size=3),
        ),
        max_size=8,
        unique_by=lambda row: row[0],
    )
)
@settings(max_examples=100, deadline=None)
def test_dump_load_dump_byte_stable(tmp_path_factory, rows):
    corpus = Corpus(
        tuple(
            Sample(id=i, task_kind=k, ground_truth=t, prompt=t[::-1], image_ref=r, meta=m)
            for i, k, t, r, m in rows
        )
    )
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    save_records(corpus, path)
    assert load_records(path) == corpus
    assert dump_records(load_records(path)) == path.read_text(encoding="utf-8")


# Record fields drawn valid, then at most one of them replaced by an odd value:
# another JSON type, a type JSON lacks, a lone surrogate, an empty string.
_SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"])
_JUNK = (st.integers() | st.booleans() | st.none() | st.floats() | st.binary(max_size=2)
         | st.lists(st.integers(), max_size=2) | st.just(""))
_ODD_TEXT = st.text(st.characters(codec="utf-8") | _SURROGATES, max_size=6) | _JUNK
_VALID_FIELDS = {
    "id": ANY_TEXT,
    "task_kind": st.sampled_from([*TaskKind, *(k.value for k in TaskKind)]),
    "ground_truth": ANY_TEXT,
    "prompt": st.text(max_size=6),
    "lang": st.sampled_from(["en", "zh", "other"]),
    "image_ref": st.none() | ANY_TEXT,
    "meta": st.dictionaries(ANY_TEXT, ANY_TEXT, max_size=3),
}
_ODD_FIELDS = {
    **dict.fromkeys(["id", "task_kind", "ground_truth", "prompt", "lang", "image_ref"], _ODD_TEXT),
    "meta": _JUNK | st.dictionaries(_ODD_TEXT.filter(lambda key: type(key) is not list),
                                    _ODD_TEXT, min_size=1, max_size=2),
}


def _mostly(valid, odd):
    """Draws from ``valid``, or from ``odd`` half as often."""
    return st.integers(0, 2).flatmap(lambda k: odd if k == 0 else valid)


@st.composite
def _sample_kwargs(draw) -> dict:
    kwargs = draw(st.fixed_dictionaries(
        {name: _VALID_FIELDS[name] for name in ("id", "task_kind", "ground_truth")},
        optional={name: _VALID_FIELDS[name] for name in ("prompt", "lang", "image_ref", "meta")},
    ))
    name = draw(_mostly(st.none(), st.sampled_from(sorted(_ODD_FIELDS))))
    if name is not None:
        kwargs[name] = draw(_ODD_FIELDS[name])
    return kwargs


def _constructed(make):
    try:
        return make()
    except ValueError:
        return None


@given(st.lists(_sample_kwargs(), max_size=6))
@settings(max_examples=150, deadline=None)
def test_every_constructible_corpus_saves_and_loads_unchanged(tmp_path_factory, rows):
    """Whatever the constructors accept, the loader reads back as the same corpus."""
    samples = [s for s in (_constructed(lambda: Sample(**kwargs)) for kwargs in rows) if s]
    corpus = _constructed(lambda: Corpus(tuple(samples)))
    if corpus is None:
        return
    path = tmp_path_factory.getbasetemp() / "constructible.jsonl"
    save_records(corpus, path)
    assert load_records(path) == corpus


def test_cjk_round_trip_byte_identical(tmp_path):
    corpus = _corpus(
        _sample(1, "你好，世界。", lang="zh", meta={"来源": "测试"}),
        _sample(2, "newline\ninside", image_ref="img/002.png"),
    )
    path = tmp_path / "cjk.jsonl"
    save_records(corpus, path)
    first = path.read_bytes()
    assert load_records(path) == corpus
    save_records(load_records(path), path)
    assert path.read_bytes() == first


def test_unknown_meta_keys_preserved(tmp_path):
    corpus = _corpus(_sample(1, meta={"custom_key": "kept", "tile_grid": "2x1"}))
    path = tmp_path / "meta.jsonl"
    save_records(corpus, path)
    assert load_records(path).samples[0].meta == {"custom_key": "kept", "tile_grid": "2x1"}


@given(
    st.lists(
        st.tuples(TEXT, st.sampled_from(list(TaskKind)), st.sampled_from(["en", "zh", "other"]), META),
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(rows):
    samples = tuple(
        Sample(id=f"id{i}", task_kind=kind, ground_truth=text, lang=lang, meta=meta)
        for i, (text, kind, lang, meta) in enumerate(rows)
    )
    corpus = Corpus(samples)
    text = dump_records(corpus)
    lines = text.split("\n")
    assert lines[-1] == "" and all(line for line in lines[:-1])
    reparsed = Corpus(
        tuple(
            Sample(
                id=obj["id"],
                task_kind=obj["task_kind"],
                ground_truth=obj["ground_truth"],
                prompt=obj["prompt"],
                lang=obj["lang"],
                image_ref=obj.get("image_ref"),
                meta=obj["meta"],
            )
            for obj in map(json.loads, lines[:-1])
        )
    )
    assert reparsed == corpus


# JSON's hard cases: the two characters it escapes, the control characters, and text
# outside ASCII, which record_line writes as UTF-8
AWKWARD_TEXT = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\u2028你\U0001F600'),
    min_size=1,
    max_size=12,
)


@given(
    st.sampled_from(TaskKind),
    AWKWARD_TEXT,
    st.text(st.characters(codec="utf-8"), max_size=6),
    st.sampled_from(["en", "zh", "other"]),
    st.none() | AWKWARD_TEXT,
    st.dictionaries(AWKWARD_TEXT, AWKWARD_TEXT, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_record_line_is_compact_json_with_sorted_meta(kind, text, prompt, lang, image_ref, meta):
    sample = Sample(text, kind, text[::-1], prompt, lang, image_ref, meta)
    obj = {"id": text, "task_kind": kind.value}
    if image_ref is not None:
        obj["image_ref"] = image_ref
    obj.update(prompt=prompt, ground_truth=text[::-1], lang=lang, meta=dict(sorted(meta.items())))
    assert record_line(sample) == json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# --- pairing by id ------------------------------------------------------------------


def test_pair_by_id_in_sorted_id_order():
    refs = _corpus(_sample(2, "ref two"), _sample(1, "ref one"))
    hyps = _corpus(_sample(1, "hyp one"), _sample(2, "hyp two"))
    pairs = [(ref.ground_truth, hyp.ground_truth) for ref, hyp in pair_by_id(refs, hyps)]
    assert pairs == [("ref one", "hyp one"), ("ref two", "hyp two")]
    assert pair_by_id(_corpus(), _corpus()) == []


def test_pair_by_id_rejects_missing_and_unexpected_ids():
    refs = _corpus(_sample(1), _sample(2))
    with pytest.raises(ValueError, match="^missing prediction for id 's2'$"):
        pair_by_id(refs, _corpus(_sample(1)))
    with pytest.raises(ValueError, match="^unexpected prediction id 's3'$"):
        pair_by_id(refs, _corpus(_sample(1), _sample(2), _sample(3)))


# --- dedup ------------------------------------------------------------------------


def test_dedup_drops_identical():
    test = _corpus(_sample(1, "same text"))
    train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth="same text"))
    assert len(dedup_filter(test, train, 0.9)) == 0


def test_dedup_keeps_abcd_vs_abcf():
    # char edit distance 1 over max length 4 -> similarity 0.75 < 0.8
    test = _corpus(_sample(1, "abcd"))
    train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth="abcf"))
    assert len(dedup_filter(test, train, 0.8)) == 1
    assert len(dedup_filter(test, train, 0.75)) == 0


def test_dedup_similarity_equal_to_threshold_drops():
    # one substitution in ten chars gives similarity 1 - 1/10, which is 0.9
    # exactly; a sample survives only if every similarity is strictly below
    train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth="abcdefghij"))
    test = _corpus(_sample(1, "abcdefghiz"), _sample(2, "abcdefgyiz"))
    assert 1.0 - 1 / 10 == 0.9
    assert [s.id for s in dedup_filter(test, train, 0.9).samples] == ["s2"]
    assert [s.id for s in dedup_filter(test, train, 0.8).samples] == []


def test_dedup_at_the_length_gap_boundary():
    # threshold 0.9 over max length 10 allows distance 1: a length gap of 1
    # reaches the threshold, a gap of 2 cannot
    long = "abcdefghij"
    train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth=long))
    test = _corpus(_sample(1, long[:9]), _sample(2, long[:8]))
    assert [s.id for s in dedup_filter(test, train, 0.9).samples] == ["s2"]
    # mirrored: the test text is the longer one
    test = _corpus(_sample(1, long))
    for prefix, kept in ((long[:9], []), (long[:8], ["s1"])):
        train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth=prefix))
        assert [s.id for s in dedup_filter(test, train, 0.9).samples] == kept


# short texts over few characters, whitespace-only ones (no char tokens) included
DEDUP_TEXTS = st.lists(st.text(st.sampled_from("ab \n"), min_size=1, max_size=9), max_size=6)
# 0, 1 and thresholds equal to an achievable similarity 1 - k/n, where rounding decides
THRESHOLDS = (
    st.sampled_from([0.0, 1.0])
    | st.integers(1, 9).flatmap(lambda n: st.integers(0, n).map(lambda k: 1.0 - k / n))
    | st.floats(0.0, 1.0)
)


@settings(max_examples=200, deadline=None)
@given(DEDUP_TEXTS, DEDUP_TEXTS, THRESHOLDS)
def test_property_dedup_matches_exact_distance_reference(test_texts, train_texts, threshold):
    test = _corpus(*[_sample(i, t) for i, t in enumerate(test_texts)])
    train = _corpus(*[_sample(i, t) for i, t in enumerate(train_texts)])
    train_toks = [tokenize(s.ground_truth, "char") for s in train.samples]
    expected = [
        s.id for s in test.samples
        if all(1.0 - edit_distance_norm(t, tokenize(s.ground_truth, "char")) < threshold
               for t in train_toks)
    ]
    assert [s.id for s in dedup_filter(test, train, threshold).samples] == expected


def test_dedup_empty_train_keeps_all():
    test = _corpus(_sample(1), _sample(2))
    assert dedup_filter(test, _corpus(), 0.5) == test


def test_dedup_threshold_monotone():
    test = _corpus(*[_sample(i, t) for i, t in enumerate(["abcd", "abzz", "qqqq"])])
    train = _corpus(Sample(id="t", task_kind=TaskKind.PLAIN_DOC, ground_truth="abcd"))
    previous: set[str] = set()
    for threshold in (0.0, 0.3, 0.5, 0.75, 0.9, 1.0):
        kept = {s.id for s in dedup_filter(test, train, threshold).samples}
        assert previous <= kept
        previous = kept


def test_dedup_rejects_bad_threshold():
    with pytest.raises(ValueError):
        dedup_filter(_corpus(), _corpus(), 1.5)


def test_corpus_still_resolves_the_metrics_names_dedup_uses():
    import ocrkit.corpus

    assert ocrkit.corpus.tokenize is tokenize
    assert ocrkit.corpus.edit_distance_norm is edit_distance_norm
    with pytest.raises(AttributeError) as exc:
        ocrkit.corpus.levenshtein
    assert str(exc.value) == "module 'ocrkit.corpus' has no attribute 'levenshtein'"


# --- stage mixing --------------------------------------------------------------------


def test_mix_80_percent_of_ten():
    previous = _corpus(*[_sample(i) for i in range(10)])
    new = _corpus(Sample(id="new1", task_kind=TaskKind.CHART, ground_truth="x"))
    mixed = mix_stages(previous, new, 0.8, seed=0)
    assert len(mixed) == 1 + 8
    assert mixed.samples[0].id == "new1"


def test_mix_ratio_zero_is_new_only():
    previous = _corpus(*[_sample(i) for i in range(5)])
    new = _corpus(Sample(id="n", task_kind=TaskKind.CHART, ground_truth="x"))
    assert mix_stages(previous, new, 0.0, seed=3) == new


@pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
def test_mix_rejects_a_ratio_outside_0_1(ratio):
    with pytest.raises(ValueError) as exc:
        mix_stages(_corpus(), _corpus(), ratio, seed=0)
    assert str(exc.value) == "ratio must be within [0, 1]"


def test_mix_deterministic():
    previous = _corpus(*[_sample(i) for i in range(30)])
    new = _corpus(Sample(id="n", task_kind=TaskKind.CHART, ground_truth="x"))
    assert mix_stages(previous, new, 0.5, seed=7) == mix_stages(previous, new, 0.5, seed=7)
    assert mix_stages(previous, new, 0.5, seed=7) != mix_stages(previous, new, 0.5, seed=8)


@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_mix_size_property(n_prev, ratio, seed):
    previous = _corpus(*[_sample(i) for i in range(n_prev)])
    new = _corpus(Sample(id="n", task_kind=TaskKind.CHART, ground_truth="x"))
    mixed = mix_stages(previous, new, ratio, seed)
    assert len(mixed) == 1 + int(ratio * n_prev + 1e-9)
