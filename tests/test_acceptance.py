"""Acceptance suite: ten oracle/property criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value is either computed by an independent in-test
oracle (naive recursion, Fraction brute force) or follows from a closed-form
identity.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ocrkit.charts import ChartStruct, Series, ap_report, gen_chart_struct
from ocrkit.cli import main
from ocrkit.corpus import Corpus, Sample, TaskKind, save_records
from ocrkit.finegrained import BBox, denormalize_box, normalize_box
from ocrkit.geometry import emit_tikz, gen_scene
from ocrkit.metrics import TokenSeq, bleu, edit_distance_norm, meteor, prf, score_corpus, tokenize
from ocrkit.pagecompose import PageSpec, compose_multipage, token_count
from ocrkit.tikz import parse_tikz_subset
from ocrkit.tiling import ImageDims, plan_tiles
from ocrkit.validators import VALIDATORS, _lines_of


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


# --- 1. edit-distance oracle equivalence --------------------------------------


def _naive_lev(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return _naive_lev(a[1:], b[1:])
    return 1 + min(_naive_lev(a[1:], b), _naive_lev(a, b[1:]), _naive_lev(a[1:], b[1:]))


def test_criterion_1_edit_distance_oracle():
    with criterion("1 edit-distance DP equals naive recursion, all {a,b} pairs len<=6"):
        start = time.perf_counter()
        strings = ["".join(p) for n in range(7) for p in itertools.product("ab", repeat=n)]
        mismatches = 0
        for a in strings:
            ref = tokenize(a, "char")
            for b in strings:
                dp = edit_distance_norm(ref, tokenize(b, "char"))
                naive = _naive_lev(a, b) / max(len(a), len(b), 1)
                if dp != naive:
                    mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert len(strings) ** 2 == 16129
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- 2. metric identities -------------------------------------------------------


def test_criterion_2_metric_identities():
    with criterion("2 metric identities on 500 random token sequences"):
        rng = random.Random(20)
        vocab = ["cat", "dog", "run", "ocr", "page", "你", "好", "字", "α", "x1"]
        for _ in range(500):
            n = rng.randint(1, 50)
            x = TokenSeq(tuple(rng.choice(vocab) for _ in range(n)), "word")
            assert bleu(x, x) == 1.0
            assert abs(meteor(x, x) - (1 - 0.5 * n**-3)) < 1e-12
            assert prf(x, x) == (1.0, 1.0, 1.0)
            assert edit_distance_norm(x, x) == 0.0


# --- 3. scoring pipeline smoke test ----------------------------------------------


def test_criterion_3_pipeline_smoke():
    with criterion("3 perfect corpus scores all-perfect; corruption worsens all metrics"):
        start = time.perf_counter()
        rng = random.Random(30)
        words = ["alpha", "beta", "gamma", "delta", "page", "text", "你", "好"]
        texts = [
            " ".join(rng.choice(words) for _ in range(rng.randint(20, 40))) for _ in range(20)
        ]
        refs = Corpus(
            tuple(
                Sample(id=f"s{i:02d}", task_kind=TaskKind.PLAIN_DOC, ground_truth=t)
                for i, t in enumerate(texts)
            )
        )
        perfect = score_corpus(refs, refs, "word")
        assert perfect.edit_distance == 0.0
        assert perfect.f1 == perfect.precision == perfect.recall == perfect.bleu == 1.0
        expected_meteor = sum(
            1 - 0.5 * len(tokenize(t, "word")) ** -3 for t in texts
        ) / len(texts)
        assert abs(perfect.meteor - expected_meteor) < 1e-12

        corrupted_texts = list(texts)
        tokens = corrupted_texts[7].split()
        half = len(tokens) // 2
        corrupted_texts[7] = " ".join(tokens[:half] + [f"junk{i}" for i in range(half)])
        hyps = Corpus(
            tuple(
                Sample(id=f"s{i:02d}", task_kind=TaskKind.PLAIN_DOC, ground_truth=t)
                for i, t in enumerate(corrupted_texts)
            )
        )
        worse = score_corpus(refs, hyps, "word")
        assert worse.edit_distance > perfect.edit_distance
        assert worse.precision < perfect.precision
        assert worse.recall < perfect.recall
        assert worse.f1 < perfect.f1
        assert worse.bleu < perfect.bleu
        assert worse.meteor < perfect.meteor
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


# --- 4. tiling oracle equivalence --------------------------------------------------


def _oracle_grid(w, h, max_tiles=12):
    target = Fraction(w, h)
    best = None
    for cols in range(1, max_tiles + 1):
        for rows in range(1, max_tiles // cols + 1):
            key = (abs(target - Fraction(cols, rows)), cols * rows, cols)
            if best is None or key < best[0]:
                best = (key, (cols, rows))
    return best[1]


def test_criterion_4_tiling_oracle():
    with criterion("4 plan_tiles matches Fraction brute force on 10,000 dims; exact partition"):
        rng = random.Random(40)
        for _ in range(10_000):
            dims = ImageDims(rng.randint(1, 8192), rng.randint(1, 8192))
            plan = plan_tiles(dims)
            assert (plan.grid_cols, plan.grid_rows) == _oracle_grid(dims.width, dims.height)
            assert plan.grid_cols * plan.grid_rows <= 12
            rects = plan.tile_rects
            assert len(rects) == plan.grid_cols * plan.grid_rows
            assert sum(w * h for _, _, w, h in rects) == dims.width * dims.height
            assert plan.include_thumbnail == (len(rects) > 1)
            for x, y, w, h in rects:
                assert 0 <= x and 0 <= y
                assert x + w <= dims.width and y + h <= dims.height
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    (ax, ay, aw, ah), (bx, by, bw, bh) = rects[i], rects[j]
                    ow = min(ax + aw, bx + bw) - max(ax, bx)
                    oh = min(ay + ah, by + bh) - max(ay, by)
                    assert ow <= 0 or oh <= 0


# --- 5. fine-grained quantization ----------------------------------------------------


def test_criterion_5_quantization_bound():
    with criterion("5 normalize/denormalize within ceil(dim/2000)px; full boxes exact"):
        rng = random.Random(50)
        checked = 0
        while checked < 10_000:
            dims = ImageDims(rng.randint(1, 4096), rng.randint(1, 4096))
            x1, x2 = sorted(rng.uniform(0, dims.width) for _ in range(2))
            y1, y2 = sorted(rng.uniform(0, dims.height) for _ in range(2))
            if x1 == x2 or y1 == y2:
                continue
            checked += 1
            box = BBox(x1, y1, x2, y2)
            back = denormalize_box(normalize_box(box, dims), dims)
            x_bound = math.ceil(dims.width / 2000)
            y_bound = math.ceil(dims.height / 2000)
            assert abs(back.x1 - box.x1) <= x_bound and abs(back.x2 - box.x2) <= x_bound
            assert abs(back.y1 - box.y1) <= y_bound and abs(back.y2 - box.y2) <= y_bound
        for _ in range(200):
            dims = ImageDims(rng.randint(1, 8192), rng.randint(1, 8192))
            full = normalize_box(BBox(0, 0, dims.width, dims.height), dims)
            assert (full.x1, full.y1, full.x2, full.y2) == (0, 0, 1000, 1000)


# --- 6. composer budget invariants ------------------------------------------------------


def test_criterion_6_composer_budgets():
    with criterion("6 10,000 compose runs obey page count/650/8192 budgets"):
        start = time.perf_counter()
        rng = random.Random(60)
        pool = [
            PageSpec.from_text(f"page{i}", " ".join(f"w{j}" for j in range(rng.randint(80, 640))))
            for i in range(40)
        ]
        pool += [
            PageSpec.from_text("big650", " ".join(["w"] * 650)),
            PageSpec.from_text("big700", " ".join(["w"] * 700)),
        ]
        oversized = {"big650", "big700"}
        for run in range(10_000):
            n = rng.randint(2, 8)
            sample = compose_multipage(pool, n, seed=run)
            assert 2 <= len(sample.pages) <= 8
            assert len(sample.pages) == n
            for page in sample.pages:
                assert page.page_id not in oversized
                assert page.token_count < 650
                assert token_count(page.text) == page.token_count
            recount = token_count(sample.joined_text)
            assert recount == sample.total_tokens
            assert recount <= 8192
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# --- 7. geometry round trip ---------------------------------------------------------------


def test_criterion_7_geometry_round_trip():
    with criterion("7 parse(emit(gen_scene(seed))) == scene for 10,000 seeds"):
        start = time.perf_counter()
        for seed in range(10_000):
            scene = gen_scene(seed)
            assert parse_tikz_subset(emit_tikz(scene)) == scene
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# --- 8. chart AP monotonicity and bounds ------------------------------------------------------


def _perturb(struct: ChartStruct, rng: random.Random) -> ChartStruct:
    series = []
    for s in struct.series:
        points = []
        for label, value in s.points:
            if rng.random() < 0.25:
                continue
            if rng.random() < 0.5:
                value = value * (1 + rng.uniform(-0.12, 0.12))
            points.append((label, value))
        name = s.name if rng.random() > 0.1 else s.name + "_renamed"
        series.append(Series(name, tuple(points)))
    return ChartStruct(series=tuple(series), title=struct.title)


def test_criterion_8_chart_ap_ordering():
    with criterion("8 AP@strict <= AP@slight <= AP@high on 1,000 pairs; identity is 1"):
        rng = random.Random(80)
        preds, gts = [], []
        for seed in range(1_000):
            gt, _ = gen_chart_struct(seed)
            gts.append(gt)
            preds.append(_perturb(gt, rng))
        report = ap_report(zip(gts, preds))
        assert 0.0 <= report.ap_strict <= report.ap_slight <= report.ap_high <= 1.0
        per_sample = [ap_report([pair]) for pair in zip(gts[:100], preds[:100])]
        for r in per_sample:
            assert 0.0 <= r.ap_strict <= r.ap_slight <= r.ap_high <= 1.0
        identical = ap_report(zip(gts[:50], gts[:50]))
        assert (identical.ap_strict, identical.ap_slight, identical.ap_high) == (1.0, 1.0, 1.0)


# --- 9. validator totality fuzz ------------------------------------------------------------


def _fuzz_alphabet():
    blocks = [
        (0x20, 0x7E),
        (0x09, 0x0A),
        (0x00, 0x08),
        (0xA0, 0xFF),
        (0x4E00, 0x4E2F),
        (0x0300, 0x030F),
        (0x1F600, 0x1F60F),
        (0x2028, 0x2029),
    ]
    chars = []
    for lo, hi in blocks:
        chars.extend(chr(c) for c in range(lo, hi + 1))
    chars.extend("(){}[]|$\\*=#%-.:;\"'`\t\r\n")
    return chars


def test_criterion_9_validator_totality():
    with criterion("9 validators never crash on 10,000 fuzz strings; positions in bounds"):
        rng = random.Random(90)
        alphabet = _fuzz_alphabet()
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 160)))
            for validator in VALIDATORS.values():
                report = validator(text)
                assert report.ok == (not report.issues)
                lines = _lines_of(text)
                for issue in report.issues:
                    assert 1 <= issue.line <= max(len(lines), 1)
                    width = len(lines[issue.line - 1]) + 1 if lines else 1
                    assert 1 <= issue.column <= width


# --- 10. end-to-end determinism -----------------------------------------------------------------


def _run(argv):
    assert main(argv) == 0, argv


def test_criterion_10_generator_determinism(tmp_path, capsys):
    with criterion("10 every generator subcommand is byte-identical across reruns"):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(
            "\n".join(
                json.dumps({"page_id": f"p{i}", "text": " ".join(["tok"] * (90 + i))})
                for i in range(12)
            )
            + "\n",
            encoding="utf-8",
        )
        anno = tmp_path / "anno.jsonl"
        anno.write_text(
            "\n".join(
                json.dumps(
                    {
                        "id": f"a{i}",
                        "image_ref": f"im{i}.png",
                        "width": 1200,
                        "height": 900,
                        "box": [10 * i, 5 * i, 400 + i, 300 + i],
                        "text": f"region {i}",
                    }
                )
                for i in range(4)
            )
            + "\n",
            encoding="utf-8",
        )
        prev = tmp_path / "prev.jsonl"
        new = tmp_path / "new.jsonl"
        save_records(
            Corpus(
                tuple(
                    Sample(id=f"p{i}", task_kind=TaskKind.PLAIN_DOC, ground_truth=f"text {i}")
                    for i in range(9)
                )
            ),
            prev,
        )
        save_records(
            Corpus((Sample(id="n0", task_kind=TaskKind.CHART, ground_truth="new"),)), new
        )

        runs = {
            "gen-geometry": lambda out: ["gen-geometry", "--seed", "7", "--n", "10", "--out", out],
            "gen-chart": lambda out: ["gen-chart", "--seed", "7", "--n", "8", "--out", out],
            "compose-pages": lambda out: [
                "compose-pages", "--pool", str(pool), "--n", "4", "--count", "3",
                "--seed", "5", "--out", out,
            ],
            "paste-layout": lambda out: [
                "paste-layout", "--slices", ",".join(["600x70"] * 7),
                "--canvas", "1240x1754", "--seed", "3", "--out", out,
            ],
            "make-finegrained": lambda out: [
                "make-finegrained", "--input", str(anno), "--out", out,
                "--mode", "color", "--seed", "11",
            ],
            "mix": lambda out: [
                "mix", "--previous", str(prev), "--new", str(new),
                "--ratio", "0.8", "--seed", "2", "--out", out,
            ],
        }
        for name, build in runs.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            _run(build(str(first)))
            _run(build(str(second)))
            assert first.read_bytes() == second.read_bytes(), name
            assert first.stat().st_size > 0

        specs1 = tmp_path / "specs1"
        specs2 = tmp_path / "specs2"
        for out, specs in ((tmp_path / "c1.jsonl", specs1), (tmp_path / "c2.jsonl", specs2)):
            _run(
                ["gen-chart", "--seed", "4", "--n", "5", "--out", str(out),
                 "--form", "table", "--specs-dir", str(specs)]
            )
        files1 = sorted(p.name for p in specs1.iterdir())
        assert files1 == sorted(p.name for p in specs2.iterdir()) and files1
        for name in files1:
            assert (specs1 / name).read_bytes() == (specs2 / name).read_bytes()
