#!/usr/bin/env python3
"""Seeded input generation for the benchmark workloads.

run.py starts this script as a child process, so rendering and record
synthesis stay out of the measuring process's peak RSS:

    python3 perfbench/inputs.py --workload query-10k --seed 1 --out DIR

The same workload and seed always write the same files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from tir.imaging import rotate, save_pgm  # noqa: E402
from tir.index import (  # noqa: E402
    ExtractionConfig,
    FeatureDatabase,
    FeatureRecord,
    Manifest,
    extract_features,
    save_index,
    write_manifest,
)
from tir.moments import HuVector  # noqa: E402
from tir.shapes import benchmark_shapes, filled_polygon  # noqa: E402

INDEX_SIZE = 512
INDEX_IMAGES = 16
INDEX_SUPERSAMPLE = 2  # 2x2 antialiasing renders a 512-px image 6x faster than the default 4x4

QUERY_DB_RECORDS = 10_000
QUERY_REAL_ANGLES = range(0, 360, 10)
QUERY_ROUNDS = 12  # each round holds every base shape once: 216 queries
QUERY_HU_JITTER = 0.05
QUERY_COUNT_JITTER = 3


def star_polygon(rng: np.random.Generator, size: int) -> list[tuple[float, float]]:
    """5-14 vertices at sorted random angles, radius 18-42 % of the side."""
    n = int(rng.integers(5, 15))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    radii = rng.uniform(0.18, 0.42, n) * size
    c = (size - 1) / 2.0
    return [(c + r * math.cos(a), c + r * math.sin(a)) for r, a in zip(radii, angles)]


def index_inputs(out: Path, seed: int) -> None:
    # shapes.benchmark_shapes(size=512) keeps 128-px coordinates (the shape
    # lands in the top-left corner), so this workload renders its own polygons.
    rng = np.random.default_rng(seed)
    img_dir = out / "img"
    img_dir.mkdir(parents=True)
    names = []
    for i in range(INDEX_IMAGES):
        vertices = star_polygon(rng, INDEX_SIZE)
        name = f"poly{i:02d}.pgm"
        save_pgm(filled_polygon(vertices, size=INDEX_SIZE, supersample=INDEX_SUPERSAMPLE), img_dir / name)
        names.append((name, f"v{len(vertices)}"))
    write_manifest(Manifest(tuple(names)), out / "manifest.tsv")


def query_inputs(out: Path, seed: int) -> None:
    config = ExtractionConfig()
    shapes = benchmark_shapes()
    records = []
    for name, image in shapes:
        for angle in QUERY_REAL_ANGLES:
            count, hu = extract_features(rotate(image, angle), config.edge, config.corners)
            records.append(FeatureRecord(len(records), f"real/{name}_rot{angle}.pgm", name, count, hu))
    real = list(records)

    rng = np.random.default_rng(seed)
    n_syn = QUERY_DB_RECORDS - len(real)
    sources = rng.integers(0, len(real), n_syn)
    scales = 1.0 + rng.normal(0.0, QUERY_HU_JITTER, (n_syn, 7))
    shifts = rng.integers(-QUERY_COUNT_JITTER, QUERY_COUNT_JITTER + 1, n_syn)
    for src, scale, shift in zip(sources, scales, shifts):
        base = real[src]
        hu = HuVector(tuple(float(v) for v in np.array(base.hu.phi) * scale))
        count = max(0, base.corner_count + int(shift))
        records.append(FeatureRecord(len(records), f"syn/{len(records):05d}.pgm", base.class_label, count, hu))
    save_index(FeatureDatabase(tuple(records), config), out / "db.tsv")

    q_dir = out / "q"
    q_dir.mkdir(parents=True)
    entries = []
    # Every seed gets the same mix of shapes, so that only the angles and the
    # synthetic records change the work from seed to seed.
    for _ in range(QUERY_ROUNDS):
        for s in rng.permutation(len(shapes)):
            name, image = shapes[s]
            rel = f"q/q{len(entries):03d}.pgm"
            save_pgm(rotate(image, float(rng.uniform(0.0, 360.0))), out / rel)
            entries.append((rel, name))
    write_manifest(Manifest(tuple(entries)), out / "queries.tsv")


def eval_inputs(out: Path, seed: int) -> None:
    # The paper's protocol is the quality reference, so the seed is unused.
    # Layout and names match scripts/run_benchmark.py, so the PR CSVs and the
    # database are byte-comparable with its output.
    base_dir = out / "base"
    base_dir.mkdir(parents=True)
    entries = []
    for name, image in benchmark_shapes():
        save_pgm(image, base_dir / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    write_manifest(Manifest(tuple(entries)), out / "base_manifest.tsv")


GENERATORS = {"index-512": index_inputs, "query-10k": query_inputs, "eval-rotated": eval_inputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
