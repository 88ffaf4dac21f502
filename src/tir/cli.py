"""Command-line entry point.

Subcommands: `index` (offline feature extraction), `query` (online retrieval),
`eval` (precision/recall harness) and `gen-rotations` (rotated test-set
generation). Results go to stdout or the named output files; diagnostics go
to stderr. Exit codes: 0 success, 1 usage error, 2 data or processing error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .corners import CornerConfig
from .edge import EdgeConfig
from .evaluation import EvalMode, MetricUndefinedError, emit_pr_csv, evaluate, generate_rotated_dataset
from .imaging import PnmError, load_image
from .index import (
    ExtractionConfig,
    IndexBuildError,
    IndexFormatError,
    build_index,
    load_index,
    query,
    read_manifest,
    write_manifest,
)
from .matching import ThresholdConfig
from .moments import DegenerateImageError
from .parallel import usable_cpus

_MODES = {"hybrid": EvalMode.HYBRID, "corner": EvalMode.CORNER_ONLY, "moments": EvalMode.MOMENTS_ONLY}


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _angle_list(text: str) -> list[float]:
    angles = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not angles or not all(map(math.isfinite, angles)):
        raise argparse.ArgumentTypeError("expected a comma-separated list of finite angles in degrees")
    return angles


def _add_window_options(parser: argparse.ArgumentParser) -> None:
    """The adaptive-window options that `query` and `eval` share."""
    parser.add_argument("--band-width", type=int, default=ThresholdConfig.band_width, metavar="R")
    parser.add_argument("--base-threshold", type=float, default=ThresholdConfig.base_threshold, metavar="T0")
    parser.add_argument("--multiplier", type=float, default=ThresholdConfig.multiplier, metavar="M")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tir", description="Shape-based trademark image retrieval.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_index = sub.add_parser("index", help="extract features for a dataset and write the database")
    p_index.add_argument("--manifest", required=True, help="dataset manifest (path<TAB>class per line)")
    p_index.add_argument("--root", required=True, help="directory manifest paths are relative to")
    p_index.add_argument("--out", required=True, help="feature database output path")
    p_index.add_argument("--edge-threshold", type=int, default=EdgeConfig.threshold, metavar="T")
    p_index.add_argument("--harris-kappa", type=float, default=CornerConfig.kappa, metavar="K")
    p_index.add_argument("--harris-sigma", type=float, default=CornerConfig.window_sigma, metavar="S")
    p_index.add_argument("--harris-window", type=int, default=CornerConfig.window_radius, metavar="R")
    p_index.add_argument("--peak-threshold", type=float, default=CornerConfig.peak_rel_threshold, metavar="F")
    p_index.add_argument("--nms-radius", type=int, default=CornerConfig.nms_radius, metavar="R")
    p_index.add_argument("--jobs", type=_positive_int, default=usable_cpus(), metavar="N")

    p_query = sub.add_parser("query", help="rank database images against one query image")
    p_query.add_argument("--db", required=True, help="feature database path")
    p_query.add_argument("--image", required=True, help="query image (P2/P3/P5/P6)")
    p_query.add_argument("--top", type=_positive_int, default=10, metavar="K")
    _add_window_options(p_query)
    p_query.add_argument("--raw-moment-distance", action="store_true",
                         help="rank on raw invariants instead of log-scaled ones")

    p_eval = sub.add_parser("eval", help="precision/recall evaluation over a query manifest")
    p_eval.add_argument("--db", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--root", required=True)
    p_eval.add_argument("--mode", required=True, choices=sorted(_MODES))
    p_eval.add_argument("--out", required=True, help="output CSV path")
    p_eval.add_argument("--top", type=_positive_int, default=6, metavar="K")
    p_eval.add_argument("--exclude-self", action="store_true",
                        help="drop the query's own record from candidates and relevant set")
    _add_window_options(p_eval)
    p_eval.add_argument("--jobs", type=_positive_int, default=usable_cpus(), metavar="N")

    p_gen = sub.add_parser("gen-rotations", help="write rotated copies of every manifest image")
    p_gen.add_argument("--manifest", required=True)
    p_gen.add_argument("--root", required=True)
    p_gen.add_argument("--angles", type=_angle_list, default=[0.0, 60.0, 120.0, 180.0, 240.0, 300.0],
                       metavar="A,B,...", help="rotation angles in degrees (default: 0,60,...,300)")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--out-manifest", required=True)
    return parser


def _extraction_config(args) -> ExtractionConfig:
    return ExtractionConfig(
        edge=EdgeConfig(threshold=args.edge_threshold),
        corners=CornerConfig(
            kappa=args.harris_kappa,
            window_sigma=args.harris_sigma,
            window_radius=args.harris_window,
            peak_rel_threshold=args.peak_threshold,
            nms_radius=args.nms_radius,
        ),
    )


def _threshold_config(args) -> ThresholdConfig:
    return ThresholdConfig(
        band_width=args.band_width,
        base_threshold=args.base_threshold,
        multiplier=args.multiplier,
    )


def _cmd_index(args) -> int:
    manifest = read_manifest(args.manifest)
    db = build_index(manifest, args.root, args.config, out=args.out, jobs=args.jobs)
    print(f"indexed {len(db.paths)} records -> {args.out}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    db = load_index(args.db)
    image = load_image(args.image)
    matches = query(db, image, args.config, k=args.top,
                    log_scale=not args.raw_moment_distance)
    for rank, match in enumerate(matches, start=1):
        row = db.row(match.record_id)
        print(f"{rank}\t{db.paths[row]}\t{db.labels[row]}\t{match.corner_difference}\t{match.moment_distance:.6g}")
    return 0


def _cmd_eval(args) -> int:
    db = load_index(args.db)
    manifest = read_manifest(args.manifest)
    report = evaluate(
        db,
        manifest,
        args.root,
        _MODES[args.mode],
        args.config,
        k=args.top,
        exclude_self=args.exclude_self,
        jobs=args.jobs,
    )
    emit_pr_csv(report, args.out)
    print(
        f"mode={report.mode.value} queries={len(report.per_query)} "
        f"mean_precision={report.mean.precision:.6f} mean_recall={report.mean.recall:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_rotations(args) -> int:
    base = read_manifest(args.manifest)
    rotated = generate_rotated_dataset(base, args.root, args.angles, args.out_dir)
    write_manifest(rotated, args.out_manifest)
    print(f"wrote {len(rotated.entries)} images -> {args.out_dir}", file=sys.stderr)
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "query": _cmd_query,
    "eval": _cmd_eval,
    "gen-rotations": _cmd_gen_rotations,
}

# The settings object each command builds from its options.
_CONFIGS = {"index": _extraction_config, "query": _threshold_config, "eval": _threshold_config}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # an option value the settings reject is a usage error
        args.config = _CONFIGS[args.command](args) if args.command in _CONFIGS else None
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        return _COMMANDS[args.command](args)
    except (
        PnmError,
        IndexFormatError,
        IndexBuildError,
        DegenerateImageError,
        MetricUndefinedError,
        RuntimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"tir {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
