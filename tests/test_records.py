"""Value semantics of every public record type: construction, equality, hash,
repr, immutability, pickling and copying."""

import copy
import importlib
import inspect
import pickle
from decimal import Decimal
from enum import Enum
from types import SimpleNamespace

import pytest

from ocrkit._record import Record
from ocrkit import validators
from ocrkit.charts import (
    DEFAULT_TEXT_POOL,
    ApReport,
    ChartGenConfig,
    ChartStruct,
    Series,
    ap_report,
    gen_chart_struct,
    parse_chart_output,
    serialize_chart_struct,
)
from ocrkit.corpus import Corpus, Sample, TaskKind, load_records, save_records
from ocrkit.finegrained import (
    BBox,
    ColorPrompt,
    CropSpec,
    NormBox,
    crop_regions,
    denormalize_box,
    normalize_box,
)
from ocrkit.geometry import (
    ALL_KINDS,
    Circle,
    Curve,
    GeomScene,
    Point,
    Rectangle,
    SceneConfig,
    Segment,
    Triangle,
    emit_tikz,
    gen_scene,
)
from ocrkit.metrics import MetricReport, TokenSeq, score_texts, tokenize
from ocrkit.pagecompose import (
    MultiPageSample,
    PageSpec,
    PasteLayout,
    compose_multipage,
    token_count,
)
from ocrkit.tiling import ImageDims, StitchSpec, TilePlan, plan_tiles
from ocrkit.validators import Issue, ValidationReport

MODULES = ("charts", "corpus", "finegrained", "geometry", "metrics", "pagecompose", "tikz",
           "tiling", "validators")

P0, P1, P2 = Point(0, 0), Point(1, 0), Point(0, 1)
DIMS = ImageDims(2, 3)
PAGE = PageSpec("p1", "one", 1)
SLICE = ImageDims(100, 20)
SAMPLE = Sample("s1", TaskKind.PLAIN_DOC, "gt", "p", "zh", "img.png", {"k": "v"})

# (class, every field value in order, the exact repr); a record holding a dict is unhashable
CASES = [
    (Sample, ("s1", TaskKind.PLAIN_DOC, "gt", "p", "zh", "img.png", {"k": "v"}),
     "Sample(id='s1', task_kind=<TaskKind.PLAIN_DOC: 'PlainDoc'>, ground_truth='gt', "
     "prompt='p', lang='zh', image_ref='img.png', meta={'k': 'v'})"),
    (Corpus, ((SAMPLE,),), f"Corpus(samples=({SAMPLE!r},))"),
    (TokenSeq, (("a", "b"), "word"), "TokenSeq(tokens=('a', 'b'), granularity='word')"),
    (MetricReport, (0.5, 0.25, 0.125, 1.0, 0.0, 0.75, 2),
     "MetricReport(edit_distance=0.5, f1=0.25, precision=0.125, recall=1.0, bleu=0.0, "
     "meteor=0.75, n_samples=2)"),
    (Point, (Decimal("1.5"), Decimal("-2")), "Point(x=Decimal('1.5'), y=Decimal('-2'))"),
    (Segment, (P0, P1),
     "Segment(p1=Point(x=Decimal('0'), y=Decimal('0')), p2=Point(x=Decimal('1'), y=Decimal('0')))"),
    (Circle, (P0, Decimal("2.5")),
     "Circle(center=Point(x=Decimal('0'), y=Decimal('0')), radius=Decimal('2.5'))"),
    (Rectangle, (P1, P2),
     "Rectangle(corner1=Point(x=Decimal('1'), y=Decimal('0')), "
     "corner2=Point(x=Decimal('0'), y=Decimal('1')))"),
    (Triangle, (P0, P1, P2),
     "Triangle(p1=Point(x=Decimal('0'), y=Decimal('0')), p2=Point(x=Decimal('1'), "
     "y=Decimal('0')), p3=Point(x=Decimal('0'), y=Decimal('1')))"),
    (Curve, ("line", (Decimal("1"), Decimal("0"), Decimal("-1"), Decimal("1"))),
     "Curve(kind='line', params=(Decimal('1'), Decimal('0'), Decimal('-1'), Decimal('1')))"),
    (GeomScene, ((P0,),), "GeomScene(elements=(Point(x=Decimal('0'), y=Decimal('0')),))"),
    (SceneConfig, ((1, 2), (0, 5), ("point",)),
     "SceneConfig(n_elements=(1, 2), bounds=(0, 5), kinds=('point',))"),
    (Series, ("s", (("a", 1.0),)), "Series(name='s', points=(('a', 1.0),))"),
    (ChartStruct, ((Series("s", ()),), "T", None, "x", None),
     "ChartStruct(series=(Series(name='s', points=()),), title='T', source=None, x_title='x', "
     "y_title=None)"),
    (ApReport, (0.25, 0.5, 0.5, 4), "ApReport(ap_strict=0.25, ap_slight=0.5, ap_high=0.5, n_samples=4)"),
    (ChartGenConfig, ((0.0, 10.0), 1, ("a", "b")),
     "ChartGenConfig(value_range=(0.0, 10.0), decimals=1, text_pool=('a', 'b'))"),
    (ImageDims, (2, 3), "ImageDims(width=2, height=3)"),
    (TilePlan, (1, 1, False, ((0, 0, 2, 3),)),
     "TilePlan(grid_cols=1, grid_rows=1, include_thumbnail=False, tile_rects=((0, 0, 2, 3),))"),
    (StitchSpec, ("horizontal", (DIMS, DIMS)),
     "StitchSpec(orientation='horizontal', pages=(ImageDims(width=2, height=3), "
     "ImageDims(width=2, height=3)))"),
    (BBox, (1.0, 2.0, 3.5, 4.0), "BBox(x1=1.0, y1=2.0, x2=3.5, y2=4.0)"),
    (NormBox, (1, 2, 3, 4), "NormBox(x1=1, y1=2, x2=3, y2=4)"),
    (ColorPrompt, ("blue", 5), "ColorPrompt(color='blue', frame_thickness=5)"),
    (CropSpec, (1, 2, 3, 4), "CropSpec(x1=1, y1=2, x2=3, y2=4)"),
    (PageSpec, ("p1", "one two", 2, "p1.png"),
     "PageSpec(page_id='p1', text='one two', token_count=2, image_ref='p1.png')"),
    (MultiPageSample, ((PAGE, PAGE),), f"MultiPageSample(pages=({PAGE!r}, {PAGE!r}))"),
    (PasteLayout, (ImageDims(300, 600), (SLICE,) * 6, 7),
     f"PasteLayout(canvas=ImageDims(width=300, height=600), slices={(SLICE,) * 6!r}, seed=7)"),
    (Issue, (1, 2, "E1", "bad"), "Issue(line=1, column=2, code='E1', message='bad')"),
    (ValidationReport, ((Issue(1, 1, "E", "m"),),),
     "ValidationReport(issues=(Issue(line=1, column=1, code='E', message='m'),))"),
]
UNHASHABLE = {Sample, Corpus}  # Sample holds its meta dict; this Corpus holds a Sample

# (class, the required arguments, the same record with every default spelled out)
DEFAULTS = [
    (Sample, ("s1", TaskKind.CHART, "gt"), ("s1", TaskKind.CHART, "gt", "", "en", None, {})),
    (Corpus, (), ((),)),
    (GeomScene, (), ((),)),
    (SceneConfig, (), ((1, 6), (-10, 10), ALL_KINDS)),
    (ChartStruct, (), ((), None, None, None, None)),
    (ChartGenConfig, (), ((0.0, 1000.0), 2, DEFAULT_TEXT_POOL)),
    (ColorPrompt, ("red",), ("red", 3)),
    (PageSpec, ("p1", "one", 1), ("p1", "one", 1, "")),
]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def _field_names(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


def test_the_table_covers_every_public_record_type():
    records = set()
    for name in MODULES:
        module = importlib.import_module(f"ocrkit.{name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and not obj.__name__.startswith("_") and obj.__eq__ is not object.__eq__
                    and not issubclass(obj, (Enum, BaseException))):
                records.add(obj)
    assert records == {cls for cls, _, _ in CASES}
    assert len(CASES) == 28


def test_the_page_rows_hold_their_texts_token_counts():
    # a PageSpec stores the count a caller gives, so the table gives the true one
    pages = [PAGE, *(PageSpec(*values) for cls, values, _ in CASES if cls is PageSpec)]
    assert len(pages) == 2
    assert all(page.token_count == token_count(page.text) for page in pages)


def _corpus_file(tmp_path):
    path = tmp_path / "c.jsonl"
    save_records(Corpus((SAMPLE, Sample("s2", TaskKind.CHART, "gt"))), path)
    return path


_CHART = gen_chart_struct(3)[0]
_BOX = BBox(10.5, 20.0, 400.0, 100.25)

# each producer that returns a record, given tmp_path
PRODUCERS = {
    "gen_scene": lambda _: gen_scene(11, SceneConfig((6, 8))),
    "gen_chart_struct": lambda _: gen_chart_struct(3)[0],
    "parse_chart_output-dict": lambda _: parse_chart_output(serialize_chart_struct(_CHART)),
    "parse_chart_output-table": lambda _: parse_chart_output(
        serialize_chart_struct(_CHART, "table")
    ),
    "plan_tiles": lambda _: plan_tiles(ImageDims(2048, 1000)),
    "crop_regions": lambda _: crop_regions(ImageDims(1000, 500), [_BOX])[0],
    "normalize_box": lambda _: normalize_box(_BOX, ImageDims(1000, 500)),
    "denormalize_box": lambda _: denormalize_box(NormBox(1, 2, 300, 400), ImageDims(1000, 500)),
    "tokenize": lambda _: tokenize("你好 world", "word"),
    "score_texts": lambda _: score_texts("one two three", "one three", "word"),
    "ap_report": lambda _: ap_report([(_CHART, _CHART), (_CHART, ChartStruct())]),
    "validate_mathpix_markdown": lambda _: validators.validate_mathpix_markdown("$x\n```"),
    "validate_smiles": lambda _: validators.validate_smiles("C(C[Xx"),
    "validate_kern": lambda _: validators.validate_kern("**kern\nbad"),
    "validate_tikz": lambda _: validators.validate_tikz(
        emit_tikz(gen_scene(2)) + "\\draw (0,0) - - (1,1);"
    ),
    "load_records": lambda tmp_path: load_records(_corpus_file(tmp_path)),
    "compose_multipage": lambda _: compose_multipage(
        [PageSpec.from_text(f"p{i}", "tok " * i) for i in range(6)], 4, 1
    ),
    "PageSpec.from_text": lambda _: PageSpec.from_text("p1", "one 二", "p1.png"),
    "PasteLayout": lambda _: PasteLayout(ImageDims(1240, 1754), (ImageDims(900, 70),) * 8, 5),
}


def _rebuilt(value):
    """The value with every record in it built again from its own fields."""
    if isinstance(value, Record):
        return type(value)(*map(_rebuilt, value.as_dict().values()))
    if isinstance(value, tuple):
        return tuple(map(_rebuilt, value))
    return value


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
def test_a_produced_record_rebuilds_from_its_own_fields(produce, tmp_path):
    # a record that stores a value no constructor would accept back fails here
    record = produce(tmp_path)
    assert isinstance(record, Record)
    rebuilt = _rebuilt(record)
    assert type(rebuilt) is type(record) and rebuilt == record
    assert type(record)(*record.as_dict().values()) == record


@pytest.mark.parametrize("cls, values, text", CASES, ids=_ids(CASES))
def test_positional_and_keyword_construction_agree(cls, values, text):
    by_keyword = cls(**dict(zip(_field_names(cls), values)))
    assert by_keyword == cls(*values)
    assert [getattr(by_keyword, name) for name in _field_names(cls)] == list(values)
    assert cls.__match_args__ == tuple(_field_names(cls))


@pytest.mark.parametrize("cls, required, spelled_out", DEFAULTS, ids=_ids(DEFAULTS))
def test_defaults(cls, required, spelled_out):
    assert cls(*required) == cls(*spelled_out)


def test_each_sample_gets_its_own_meta():
    first, second = Sample("a", TaskKind.CHART, "x"), Sample("b", TaskKind.CHART, "x")
    assert first.meta == {} and first.meta is not second.meta


def test_a_sample_copies_the_meta_it_is_given(tmp_path):
    # a loop that reuses one meta dict gives each sample that row's values
    meta, samples = {"a": "b"}, []
    for i in range(2):
        meta["row"] = str(i)
        samples.append(Sample(f"s{i}", TaskKind.PLAIN_DOC, "x", meta=meta))
    meta["k"] = 5
    assert [s.meta for s in samples] == [{"a": "b", "row": "0"}, {"a": "b", "row": "1"}]
    corpus = Corpus(tuple(samples))
    save_records(corpus, tmp_path / "c.jsonl")
    assert load_records(tmp_path / "c.jsonl") == corpus


@pytest.mark.parametrize("cls, values, text", CASES, ids=_ids(CASES))
def test_equality_and_hash(cls, values, text):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
    # another class with the same fields and values, or the bare values, are not equal
    assert record.__eq__(SimpleNamespace(**dict(zip(_field_names(cls), values)))) is NotImplemented
    assert record != SimpleNamespace(**dict(zip(_field_names(cls), values)))
    assert record != values and record != list(values)


def test_records_with_the_same_fields_differ_by_class():
    boxes = [BBox(1, 2, 3, 4), NormBox(1, 2, 3, 4), CropSpec(1, 2, 3, 4)]
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            assert (a == b) is (i == j)
    assert ImageDims(2, 3) != Point(2, 3)


def test_unequal_values_are_unequal():
    assert Point(1, 2) != Point(2, 1)
    assert MetricReport(0, 0, 0, 0, 0, 0, 1) != MetricReport(0, 0, 0, 0, 0, 0, 2)
    assert Sample("a", TaskKind.CHART, "x") != Sample("a", TaskKind.CHART, "x", meta={"k": "v"})


@pytest.mark.parametrize("cls, values, text", CASES, ids=_ids(CASES))
def test_repr(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=_ids(CASES))
def test_immutable(cls, values, text):
    record = cls(*values)
    for name in _field_names(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=_ids(CASES))
def test_pickle_and_copy_round_trip(cls, values, text):
    record = cls(*values)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text


def test_report_dicts_are_in_column_order():
    report = MetricReport(0.5, 0.25, 0.125, 1.0, 0.0, 0.75, 2)
    assert list(report.as_dict().items()) == [
        ("edit_distance", 0.5), ("f1", 0.25), ("precision", 0.125), ("recall", 1.0),
        ("bleu", 0.0), ("meteor", 0.75), ("n_samples", 2),
    ]
    assert list(ApReport(0.25, 0.5, 0.5, 4).as_dict().items()) == [
        ("ap_strict", 0.25), ("ap_slight", 0.5), ("ap_high", 0.5), ("n_samples", 4),
    ]


class _Pair(Record):
    __slots__ = ("first", "second")


def test_record_init_stores_values_in_slot_order():
    pair = _Pair("one", 2)
    assert list(pair.as_dict().items()) == [("first", "one"), ("second", 2)]
    assert (pair.first, pair.second) == ("one", 2)


@pytest.mark.parametrize("values", [(), ("one",), ("one", 2, 3)], ids=["none", "few", "many"])
def test_record_init_takes_exactly_one_value_per_field(values):
    with pytest.raises(ValueError, match="zip"):
        _Pair(*values)


def test_record_init_leaves_the_record_immutable():
    pair = _Pair("one", 2)
    with pytest.raises(AttributeError):
        pair.first = "two"
    with pytest.raises(AttributeError):
        del pair.second
    with pytest.raises(AttributeError):
        pair.third = 3
    assert pair == _Pair("one", 2)


_META_CHANGES = {
    "setitem": lambda meta: meta.__setitem__("k", 5),
    "delitem": lambda meta: meta.__delitem__("a"),
    "ior": lambda meta: meta.__ior__({"k": "v"}),
    "clear": lambda meta: meta.clear(),
    "pop": lambda meta: meta.pop("a"),
    "popitem": lambda meta: meta.popitem(),
    "setdefault": lambda meta: meta.setdefault("k", "v"),
    "update": lambda meta: meta.update(k="v"),
}


@pytest.mark.parametrize("change", _META_CHANGES.values(), ids=_META_CHANGES)
def test_a_sample_meta_is_read_only(change, tmp_path):
    sample = Sample("s1", TaskKind.PLAIN_DOC, "x", meta={"a": "b"})
    copies = (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample)),
              Sample(**sample.as_dict()))
    for record in (sample, *copies):
        with pytest.raises(TypeError) as exc:
            change(record.meta)
        assert str(exc.value) == "a sample's meta is read-only; build a new Sample to change it"
        assert record.meta == {"a": "b"} and record == sample
    save_records(Corpus((sample,)), tmp_path / "c.jsonl")
    assert load_records(tmp_path / "c.jsonl") == Corpus((sample,))
