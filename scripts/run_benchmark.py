#!/usr/bin/env python3
"""End-to-end retrieval benchmark on the synthetic 18-class dataset.

Generates the 18 base shapes, writes their six rotated copies each, indexes
the 108 images, evaluates corner-only, moments-only and hybrid retrieval,
emits one PR CSV per mode and prints a comparison table.

Usage:
    python3 scripts/run_benchmark.py --out-dir runs/bench
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tir.cli import _angle_list, _Parser, _positive_int
from tir.evaluation import EvalMode, emit_pr_csv, evaluate, generate_rotated_dataset
from tir.imaging import save_pgm
from tir.index import ExtractionConfig, Manifest, build_index, write_manifest
from tir.matching import ThresholdConfig
from tir.shapes import benchmark_shapes


def parse_args() -> argparse.Namespace:
    # tir's parser: a usage error exits 1, as in tir, which keeps 2 for data errors.
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("bench_out"))
    parser.add_argument("--k", type=_positive_int, default=6, help="results per query (default: 6)")
    parser.add_argument(
        "--angles",
        type=_angle_list,
        default="0,60,120,180,240,300",
        help="comma-separated rotation angles in degrees",
    )
    parser.add_argument("--exclude-self", action="store_true",
                        help="drop each query's own record (stricter protocol)")
    parser.add_argument("--jobs", type=_positive_int, default=1)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    angles = args.angles
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    base_dir = out / "base"
    base_dir.mkdir(exist_ok=True)

    started = time.perf_counter()
    entries = []
    for name, img in benchmark_shapes():
        save_pgm(img, base_dir / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    base = Manifest(tuple(entries))
    write_manifest(base, out / "base_manifest.tsv")

    rotated = generate_rotated_dataset(base, base_dir, angles, out / "dataset")
    write_manifest(rotated, out / "dataset_manifest.tsv")
    print(f"dataset: {len(rotated.entries)} images "
          f"({len(entries)} classes x {len(angles)} angles)", file=sys.stderr)

    db = build_index(rotated, out / "dataset", ExtractionConfig(), out=out / "features.tsv",
                     jobs=args.jobs)
    print(f"indexed {len(db.paths)} records in {time.perf_counter() - started:.1f}s",
          file=sys.stderr)

    threshold_cfg = ThresholdConfig()
    rows = []
    for mode in (EvalMode.CORNER_ONLY, EvalMode.MOMENTS_ONLY, EvalMode.HYBRID):
        # The query manifest is the index manifest, so the database is its own query set.
        report = evaluate(db, db, mode, threshold_cfg, k=args.k, exclude_self=args.exclude_self)
        emit_pr_csv(report, out / f"pr_{mode.value}.csv")
        combined = (report.mean.precision + report.mean.recall) / 2.0
        rows.append((mode.value, report.mean.precision, report.mean.recall, combined))

    print(f"{'mode':<10} {'precision':>10} {'recall':>10} {'combined':>10}")
    for mode, p, r, c in rows:
        print(f"{mode:<10} {p:>10.4f} {r:>10.4f} {c:>10.4f}")
    print(f"total {time.perf_counter() - started:.1f}s; CSVs in {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
