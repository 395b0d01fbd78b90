"""gen-geometry."""

from __future__ import annotations

from .. import geometry
from ..corpus import Corpus, Sample, TaskKind
from . import save_corpus_atomic

GEOMETRY_PROMPT = "Transcribe the figure as TikZ:"


def cmd_gen_geometry(args) -> int:
    config = geometry.SceneConfig(
        n_elements=(args.min_elements, args.max_elements),
        bounds=(args.bound_lo, args.bound_hi),
        kinds=tuple(args.kinds.split(",")) if args.kinds else geometry.ALL_KINDS,
    )
    samples = []
    for i in range(args.n):
        scene = geometry.gen_scene(args.seed + i, config)
        samples.append(
            Sample(
                id=f"geom-{args.seed + i:08d}",
                task_kind=TaskKind.GEOMETRY,
                ground_truth=geometry.emit_tikz(scene),
                prompt=GEOMETRY_PROMPT,
                meta={"n_elements": str(len(scene.elements))},
            )
        )
    save_corpus_atomic(Corpus(tuple(samples)), args.out)
    print(f"wrote {len(samples)} geometry records to {args.out}")
    return 0
