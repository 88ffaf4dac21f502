"""Command-line entry point.

Subcommands: `index` (offline feature extraction), `query` (online retrieval),
`eval` (precision/recall harness) and `gen-rotations` (rotated test-set
generation). Results go to stdout or the named output files; diagnostics go
to stderr.

Each subparser carries its handler and the function that makes its
settings. A detector or window option's `dest` is the name of the config
field it sets, so one helper builds `ExtractionConfig` or `ThresholdConfig`
from the parsed options. Exit codes: 0 success; 1 usage error, including an option value the
settings reject; 2 data or processing error, that is any `ValueError`,
`RuntimeError` or `OSError` a command raises (every error tir lets reach a
caller derives from one of them).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, is_dataclass
from functools import partial

from ._shown import shown
from .corners import CornerConfig
from .edge import EdgeConfig
from .evaluation import EvalMode, emit_pr_csv, evaluate, generate_rotated_dataset
from .imaging import load_image
from .index import ExtractionConfig, build_index, load_index, query, read_manifest, write_manifest
from .matching import ThresholdConfig
from .parallel import usable_cpus


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ascii_int(text: str, expected: str, sign: str = "") -> int:
    # At most 18 ASCII digits after `sign`: int() also takes "1_0", " 7 ", "+5", "\u0663", and fails past 4300.
    digits = text.removeprefix(sign)
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {shown(text)}")
    if len(digits) > 18:
        raise argparse.ArgumentTypeError(f"expected {expected} of at most 18 digits, got {len(digits)} digits")
    return int(text)


def _positive_int(text: str) -> int:
    value = _ascii_int(text, "an integer >= 1")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _integer(text: str) -> int:
    return _ascii_int(text, "an integer", sign="-")  # the settings check the range


def _real(text: str) -> float:
    # ASCII, no '_', no padding (float() takes "1_0", "\u0663", " 7 "); the settings check range, nan and inf.
    if text.isascii() and "_" not in text and text == text.strip():
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"expected a real number, got {shown(text)}")


def _mode(text: str) -> str:  # argparse checks the choices after this, and would echo a long value whole
    if shown(text) != repr(text):
        raise argparse.ArgumentTypeError(f"invalid choice: {shown(text)}")
    return text


def _angle_list(text: str) -> list[float]:
    try:
        angles = [_real(tok.strip()) for tok in text.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError:
        angles = []
    if not angles or not all(map(math.isfinite, angles)):
        raise argparse.ArgumentTypeError("expected a comma-separated list of finite angles in degrees")
    return angles


def _settings(cls, args):
    """`cls` built from the options named after its fields; a nested config field is built the same way."""
    return cls(**{
        f.name: _settings(type(f.default), args) if is_dataclass(f.default) else getattr(args, f.name)
        for f in fields(cls)
    })


def _add_window_options(parser: argparse.ArgumentParser) -> None:
    """The adaptive-window options that `query` and `eval` share, and the `ThresholdConfig` they build."""
    parser.add_argument("--band-width", type=_integer, default=ThresholdConfig.band_width, metavar="R")
    parser.add_argument("--base-threshold", type=_real, default=ThresholdConfig.base_threshold, metavar="T0")
    parser.add_argument("--multiplier", type=_real, default=ThresholdConfig.multiplier, metavar="M")
    parser.set_defaults(settings=partial(_settings, ThresholdConfig))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tir", description="Shape-based trademark image retrieval.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_index = sub.add_parser("index", help="extract features for a dataset and write the database")
    p_index.set_defaults(handler=_cmd_index, settings=partial(_settings, ExtractionConfig))
    p_index.add_argument("--manifest", required=True, help="dataset manifest (path<TAB>class per line)")
    p_index.add_argument("--root", required=True, help="directory manifest paths are relative to")
    p_index.add_argument("--out", required=True, help="feature database output path")
    p_index.add_argument("--edge-threshold", dest="threshold", type=_integer, default=EdgeConfig.threshold, metavar="T")
    p_index.add_argument("--harris-kappa", dest="kappa", type=_real, default=CornerConfig.kappa, metavar="K")
    p_index.add_argument("--harris-sigma", dest="window_sigma", type=_real, default=CornerConfig.window_sigma,
                         metavar="S")
    p_index.add_argument("--harris-window", dest="window_radius", type=_integer, default=CornerConfig.window_radius,
                         metavar="R")
    p_index.add_argument("--peak-threshold", dest="peak_rel_threshold", type=_real,
                         default=CornerConfig.peak_rel_threshold, metavar="F")
    p_index.add_argument("--nms-radius", type=_integer, default=CornerConfig.nms_radius, metavar="R")
    p_index.add_argument("--jobs", type=_positive_int, default=usable_cpus(), metavar="N")

    p_query = sub.add_parser("query", help="rank database images against one query image")
    p_query.set_defaults(handler=_cmd_query)
    p_query.add_argument("--db", required=True, help="feature database path")
    p_query.add_argument("--image", required=True, help="query image (P2/P3/P5/P6)")
    p_query.add_argument("--top", type=_positive_int, default=10, metavar="K")
    _add_window_options(p_query)
    p_query.add_argument("--raw-moment-distance", action="store_true",
                         help="rank on raw invariants instead of log-scaled ones")

    p_eval = sub.add_parser("eval", help="precision/recall evaluation over a query manifest")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("--db", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--root", required=True)
    p_eval.add_argument("--mode", required=True, type=_mode, choices=sorted(m.value for m in EvalMode))
    p_eval.add_argument("--out", required=True, help="output CSV path")
    p_eval.add_argument("--top", type=_positive_int, default=6, metavar="K")
    p_eval.add_argument("--exclude-self", action="store_true",
                        help="drop the query's own record from candidates and relevant set")
    _add_window_options(p_eval)
    p_eval.add_argument("--jobs", type=_positive_int, default=usable_cpus(), metavar="N")

    p_gen = sub.add_parser("gen-rotations", help="write rotated copies of every manifest image")
    p_gen.set_defaults(handler=_cmd_gen_rotations, settings=lambda args: None)
    p_gen.add_argument("--manifest", required=True)
    p_gen.add_argument("--root", required=True)
    p_gen.add_argument("--angles", type=_angle_list, default=[0.0, 60.0, 120.0, 180.0, 240.0, 300.0],
                       metavar="A,B,...", help="rotation angles in degrees (default: 0,60,...,300)")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--out-manifest", required=True)
    return parser


def _cmd_index(args, config: ExtractionConfig) -> int:
    manifest = read_manifest(args.manifest)
    db = build_index(manifest, args.root, config, out=args.out, jobs=args.jobs)
    print(f"indexed {len(db.paths)} records -> {args.out}", file=sys.stderr)
    return 0


def _cmd_query(args, config: ThresholdConfig) -> int:
    db = load_index(args.db)
    image = load_image(args.image)
    matches = query(db, image, config, k=args.top, log_scale=not args.raw_moment_distance)
    entries = db.entries([db.row(match.record_id) for match in matches])  # decodes only the rows printed
    for rank, (match, (path, label)) in enumerate(zip(matches, entries), start=1):
        print(f"{rank}\t{path}\t{label}\t{match.corner_difference}\t{match.moment_distance:.6g}")
    return 0


def _cmd_eval(args, config: ThresholdConfig) -> int:
    db = load_index(args.db)
    manifest = read_manifest(args.manifest)
    if db._digest_block is None:
        print(f"tir eval: {args.db} carries no image digests, so every query is extracted", file=sys.stderr)
    # A query image the database holds byte for byte takes its record's features; build_index counts those.
    queries = build_index(manifest, args.root, db.extraction_config, jobs=args.jobs, reuse=db)
    reused = queries._reused
    # The mode goes by keyword: perfbench/tracing.py names the eval span from args[3] or kwargs["mode"].
    report = evaluate(db, queries, mode=EvalMode(args.mode), threshold_cfg=config, k=args.top,
                      exclude_self=args.exclude_self)
    emit_pr_csv(report, args.out)
    print(
        f"mode={report.mode.value} queries={len(report.per_query)} "
        f"reused={reused} extracted={len(report.per_query) - reused} "
        f"mean_precision={report.mean.precision:.6f} mean_recall={report.mean.recall:.6f} "
        f"survivors={report.mean_survivors:g}/{len(db.paths)}",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_rotations(args, config: None) -> int:
    base = read_manifest(args.manifest)
    rotated = generate_rotated_dataset(base, args.root, args.angles, args.out_dir)
    write_manifest(rotated, args.out_manifest)
    print(f"wrote {len(rotated.entries)} images -> {args.out_dir}", file=sys.stderr)
    return 0


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # an option value the settings reject is a usage error
        config = args.settings(args)
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        return args.handler(args, config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"tir {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
