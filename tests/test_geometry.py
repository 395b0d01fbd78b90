"""Geometry scene generation, TikZ emission and parsing."""

from decimal import Decimal

import pytest

from ocrkit.geometry import (
    ALL_KINDS,
    Circle,
    Curve,
    GeomScene,
    Point,
    Rectangle,
    SceneConfig,
    Segment,
    TikzDoc,
    TikzParseError,
    Triangle,
    canon_decimal,
    emit_tikz,
    fmt_decimal,
    gen_scene,
    parse_tikz_subset,
    wrap_document,
)


def test_decimal_canonicalization():
    assert fmt_decimal(canon_decimal("2.50")) == "2.5"
    assert fmt_decimal(canon_decimal("-0.00")) == "0"
    assert fmt_decimal(canon_decimal(100)) == "100"
    assert canon_decimal("2") == canon_decimal("2.0")
    with pytest.raises(ValueError):
        canon_decimal("1.234")
    with pytest.raises(ValueError):
        canon_decimal("nan")


def test_element_invariants():
    with pytest.raises(ValueError):
        Circle(Point(0, 0), Decimal("-1"))
    with pytest.raises(ValueError):
        Rectangle(Point(0, 0), Point(0, 5))
    with pytest.raises(ValueError):
        Triangle(Point(0, 0), Point(1, 1), Point(2, 2))
    with pytest.raises(ValueError):
        Curve("ellipse", ("0", "0", "-1", "2"))
    with pytest.raises(ValueError):
        Curve("line", ("1", "0", "5", "2"))  # domain must increase
    with pytest.raises(ValueError):
        Curve("spiral", ("1",))


def test_emit_templates():
    assert emit_tikz(GeomScene((Circle(Point(0, 0), Decimal(2)),))).source == (
        "\\draw (0,0) circle (2);\n"
    )
    assert emit_tikz(GeomScene((Triangle(Point(0, 0), Point(1, 0), Point(0, 1)),))).source == (
        "\\draw (0,0) -- (1,0) -- (0,1) -- cycle;\n"
    )
    assert emit_tikz(GeomScene((Segment(Point(0, 0), Point("1.5", "-2")),))).source == (
        "\\draw (0,0) -- (1.5,-2);\n"
    )
    assert emit_tikz(GeomScene((Point("0.25", "-3"),))).source == (
        "\\draw plot[mark=*] coordinates {(0.25,-3)};\n"
    )
    assert emit_tikz(GeomScene((Rectangle(Point(0, 0), Point(2, 3)),))).source == (
        "\\draw (0,0) rectangle (2,3);\n"
    )


def test_emit_curve_templates_with_sign_folding():
    line = Curve("line", ("-0.5", "-2", "0", "4"))
    assert emit_tikz(GeomScene((line,))).source == (
        "\\draw plot[domain=0:4] (\\x, {-0.5*\\x - 2});\n"
    )
    parabola = Curve("parabola", ("1.25", "-3", "0.75", "-1", "2"))
    assert emit_tikz(GeomScene((parabola,))).source == (
        "\\draw plot[domain=-1:2] (\\x, {1.25*\\x*\\x - 3*\\x + 0.75});\n"
    )
    ellipse = Curve("ellipse", ("1", "-2", "3", "0.5"))
    assert emit_tikz(GeomScene((ellipse,))).source == (
        "\\draw (1,-2) ellipse (3 and 0.5);\n"
    )
    hyperbola = Curve("hyperbola", ("-1.5", "2", "1", "0.75", "-2", "2"))
    assert emit_tikz(GeomScene((hyperbola,))).source == (
        "\\draw plot[domain=-2:2, variable=\\t] "
        "({-1.5 + 1*cosh(\\t)}, {2 + 0.75*sinh(\\t)});\n"
    )


def test_empty_scene_empty_document():
    assert emit_tikz(GeomScene()).source == ""
    assert parse_tikz_subset(TikzDoc("")) == GeomScene()


def test_parse_rejects_unknown_command_at_start():
    with pytest.raises(TikzParseError) as exc:
        parse_tikz_subset(TikzDoc("\\drow (0,0) circle (1);\n"))
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_parse_rejects_negative_radius():
    with pytest.raises(TikzParseError, match="radius"):
        parse_tikz_subset(TikzDoc("\\draw (0,0) circle (-1);\n"))


def test_parse_rejects_missing_semicolon():
    with pytest.raises(TikzParseError, match=";"):
        parse_tikz_subset(TikzDoc("\\draw (0,0) circle (1)\n"))


def test_parse_rejects_trailing_garbage_and_blank_lines():
    with pytest.raises(TikzParseError):
        parse_tikz_subset(TikzDoc("\\draw (0,0) circle (1); extra\n"))
    with pytest.raises(TikzParseError, match="blank"):
        parse_tikz_subset(TikzDoc("\\draw (0,0) circle (1);\n\n\\draw (0,0) circle (1);\n"))


def test_parse_rejects_overlong_decimals():
    with pytest.raises(TikzParseError, match="fraction digits"):
        parse_tikz_subset(TikzDoc("\\draw (0.123,0) circle (1);\n"))


def test_parse_error_positions_are_reported():
    try:
        parse_tikz_subset(TikzDoc("\\draw (0,0) -- (zz);\n"))
    except TikzParseError as exc:
        assert exc.line == 1
        assert exc.column == 17
    else:
        pytest.fail("expected a parse error")


def test_parse_head_mutations_rejected():
    base = "\\draw (0,0) circle (1);"
    for i in range(len("\\draw")):
        mutated = base[:i] + base[i + 1 :]
        with pytest.raises(TikzParseError):
            parse_tikz_subset(TikzDoc(mutated + "\n"))


def test_round_trip_examples():
    for seed in (0, 7, 123, 999):
        scene = gen_scene(seed)
        assert parse_tikz_subset(emit_tikz(scene)) == scene


def test_round_trip_each_kind():
    for kind in ALL_KINDS:
        config = SceneConfig(n_elements=(3, 3), kinds=(kind,))
        for seed in range(40):
            scene = gen_scene(seed, config)
            assert parse_tikz_subset(emit_tikz(scene)) == scene, (kind, seed)


def test_gen_scene_deterministic():
    assert gen_scene(41) == gen_scene(41)
    assert gen_scene(41) != gen_scene(42)


def test_gen_scene_single_circle_config():
    scene = gen_scene(3, SceneConfig(n_elements=(1, 1), kinds=("circle",)))
    assert len(scene.elements) == 1
    circle = scene.elements[0]
    assert isinstance(circle, Circle)
    assert circle.radius > 0


def test_gen_scene_coordinates_within_bounds():
    config = SceneConfig(bounds=(-5, 5))
    for seed in range(100):
        for el in gen_scene(seed, config).elements:
            if isinstance(el, Point):
                assert -5 <= el.x <= 5 and -5 <= el.y <= 5


def test_gen_scene_rejects_empty_kinds():
    with pytest.raises(ValueError):
        SceneConfig(kinds=())


def test_emit_injective_on_sample():
    seen = {}
    for seed in range(300):
        scene = gen_scene(seed)
        text = emit_tikz(scene).source
        if text in seen:
            assert seen[text] == scene
        else:
            seen[text] = scene


def test_combined_scenes_share_points():
    config = SceneConfig(n_elements=(6, 6), kinds=("segment", "triangle"))
    shared = False
    for seed in range(50):
        scene = gen_scene(seed, config)
        points = []
        for el in scene.elements:
            points.extend(
                [el.p1, el.p2] if isinstance(el, Segment) else [el.p1, el.p2, el.p3]
            )
        if len(points) != len(set(points)):
            shared = True
            break
    assert shared


def test_wrap_document_contains_source():
    doc = emit_tikz(gen_scene(1))
    wrapped = wrap_document(doc)
    assert doc.source in wrapped
    assert wrapped.startswith("\\documentclass")
