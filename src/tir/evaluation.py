"""Precision/recall computation, rotated-dataset generation and the
three-mode evaluation harness (corner-only, moments-only, hybrid).

Evaluation scores query features that `build_index` or `load_index` made,
and extracts nothing. It ranks the whole query set in one
`tir.matching.rank_queries` call, the batched form of the core that `query`
runs for one image, then scores each query's top-k. Per query, the relevant
set is every database record sharing the query's class label; under the
default leave-in protocol that includes the query's own record (matched by
path). Hits and relevant-set sizes are counted over integer class codes, not
built as sets. Results are reported per query plus an unweighted arithmetic
mean.
The rotated images and PR CSVs are written by `tir.imaging._write_bytes`.
"""

from __future__ import annotations

import csv
import enum
import io
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ._shown import shown
from .imaging import RgbImage, _check_angle, _tmp_name, _write_bytes, load_image, rgb_to_gray, rotate, save_pgm
from .index import FeatureDatabase, Manifest
from .index import extract_features  # noqa: F401  not called here; kept for perfbench/tracing.py
from .matching import ThresholdConfig, rank_queries
from .matching import corner_filter, rank_by_moments  # noqa: F401  not called here; kept for perfbench/tracing.py
from .parallel import map_ordered  # noqa: F401  not called here; kept for perfbench/tracing.py


class MetricUndefinedError(ValueError):
    """Precision with an empty retrieved list or recall with an empty relevant set."""


class EvalMode(enum.Enum):
    CORNER_ONLY = "corner"
    MOMENTS_ONLY = "moments"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class PRPoint:
    precision: float
    recall: float

    def __post_init__(self):
        for name, value in (("precision", self.precision), ("recall", self.recall)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one evaluated query."""

    path: str
    class_label: str
    point: PRPoint


@dataclass(frozen=True)
class EvalReport:
    """All per-query points of one mode, their arithmetic mean, and the mean
    number of database rows a query ranked: the rows in its corner window
    (every row in moments-only mode), less its own under `exclude_self`."""

    mode: EvalMode
    per_query: tuple[QueryResult, ...]
    mean: PRPoint
    mean_survivors: float


def precision(retrieved, relevant) -> float:
    """N_r / T_r: fraction of retrieved records that are relevant."""
    retrieved = list(retrieved)
    return _precision(len(set(retrieved) & set(relevant)), len(retrieved))


def recall(retrieved, relevant) -> float:
    """N_r / T_s: fraction of relevant records that were retrieved."""
    relevant = set(relevant)
    return _recall(len(set(retrieved) & relevant), len(relevant))


def _precision(hits: int, retrieved: int) -> float:
    if not retrieved:
        raise MetricUndefinedError("precision is undefined for an empty retrieved list")
    return hits / retrieved


def _recall(hits: int, relevant: int) -> float:
    if not relevant:
        raise MetricUndefinedError("recall is undefined for an empty relevant set")
    return hits / relevant


def _class_hits(rows: np.ndarray, lengths: list[int], row_codes: np.ndarray, query_codes: np.ndarray) -> np.ndarray:
    """Per query i, how many of its `lengths[i]` rows (the next ones in `rows`) hold class `query_codes[i]`."""
    owner = np.repeat(np.arange(len(query_codes)), lengths)
    return np.bincount(owner[row_codes[rows] == query_codes[owner]], minlength=len(query_codes))


def _name_max(directory: Path) -> int:
    """The most bytes a file name may have in `directory`, or in its nearest existing ancestor when it is
    not made yet: the file system's `PC_NAME_MAX`, or 255 if it does not say."""
    for parent in (directory, *directory.parents):
        if os.path.isdir(parent):
            try:
                limit = os.pathconf(parent, "PC_NAME_MAX")
            except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit here
                break
            return limit if limit > 0 else 255
    return 255


def generate_rotated_dataset(base_manifest: Manifest, root, angles, out_dir) -> Manifest:
    """Rotate every base image by every angle and write binary P5 files.

    Output names are `<stem>_rot<angle-in-integer-degrees>.pgm`; class labels
    are inherited from the base entry. Returns the combined manifest with
    len(base) * len(angles) entries, base-major order. Every angle and name
    is checked and every base image read before any file is written: an
    angle that is not finite (a ValueError), a collision, a name too long
    for the output directory's file system (counted with the temporary name
    it is written through) or an unreadable base image writes nothing.
    """
    angles = list(angles)
    if not angles:
        raise ValueError("angles must be non-empty")
    for angle in angles:
        _check_angle(angle)
    names = [[f"{Path(rel_path).stem}_rot{int(round(angle))}.pgm" for angle in angles]
             for rel_path, _ in base_manifest.entries]
    out_dir = Path(out_dir)
    name_max = _name_max(out_dir)
    extra = len(_tmp_name(""))  # the writer's temporary file has the longest name
    seen: set[str] = set()
    for name in chain.from_iterable(names):
        if name in seen:
            raise RuntimeError(f"output name collision: {shown(name)}")
        size = len(os.fsencode(name))
        if size + extra > name_max:
            raise RuntimeError(f"output name too long: {shown(name)} is {size} bytes; names of at most "
                               f"{name_max - extra} bytes fit here ({name_max} less {extra} for the temporary "
                               f"file written first)")
        seen.add(name)
    root = Path(root)
    images = []
    for rel_path, _ in base_manifest.entries:
        try:
            image = load_image(root / rel_path)
        except Exception as exc:
            raise RuntimeError(f"base image {rel_path!r}: {exc}") from exc
        images.append(rgb_to_gray(image) if isinstance(image, RgbImage) else image)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, str]] = []
    for (_, label), image, row in zip(base_manifest.entries, images, names):
        for angle, name in zip(angles, row):
            try:
                save_pgm(rotate(image, angle), out_dir / name)
            except OSError as exc:  # its message would name the file again, whole
                raise RuntimeError(f"writing {shown(name)}: {exc.strerror or exc}") from exc
            entries.append((name, label))
    return Manifest(tuple(entries))


def evaluate(
    db: FeatureDatabase,
    queries: FeatureDatabase,
    mode: EvalMode,
    threshold_cfg: ThresholdConfig = ThresholdConfig(),
    k: int = 6,
    *,
    exclude_self: bool = False,
) -> EvalReport:
    """Evaluate each record of `queries`, extracted under the database's config, against the database in one mode.

    With `exclude_self` every record whose path is the query's exact path
    string is dropped from both the candidate pool and the relevant set.
    Any failing query aborts the evaluation with its path named, the first
    in query order if several fail. An empty query set or a `k` below 1 is a
    ValueError.
    """
    if queries.extraction_config != db.extraction_config:
        raise ValueError("query features were extracted under a different config than the database's")
    if not queries.paths:
        raise ValueError("the query set is empty: there is nothing to evaluate")
    columns = db.columns
    excluded = None
    if exclude_self:
        # Python strings compare exactly; a numpy str array would drop trailing NULs.
        rows_of: dict[str, list[int]] = {}
        for row, path in enumerate(db.paths):
            rows_of.setdefault(path, []).append(row)
        excluded = [rows_of.get(path, []) for path in queries.paths]
    counts = queries.columns.corner_counts
    window = None if mode is EvalMode.MOMENTS_ONLY else threshold_cfg
    hu_blocks = None if mode is EvalMode.CORNER_ONLY else (queries.columns.log_hu, columns.log_hu)
    ranked, survivors = rank_queries(columns, counts, hu_blocks, k, threshold_cfg=window, excluded=excluded)

    # Record ids are unique, so a query's relevant set is its class's rows less its excluded ones of that
    # class, and its hits are its ranked rows of its class: counts of rows by integer class code.
    codes: dict[str, int] = {}
    row_codes = np.array([codes.setdefault(label, len(codes)) for label in db.labels], dtype=np.intp)
    query_codes = np.array([codes.setdefault(label, len(codes)) for label in queries.labels], dtype=np.intp)
    retrieved = [len(rows) for rows in ranked]
    hits = _class_hits(np.concatenate(ranked), retrieved, row_codes, query_codes)
    relevant = np.bincount(row_codes, minlength=len(codes))[query_codes]
    if excluded is not None:
        own = np.fromiter(chain.from_iterable(excluded), dtype=np.intp)
        relevant -= _class_hits(own, [len(rows) for rows in excluded], row_codes, query_codes)

    results = []
    for rel_path, label, n_hits, n_retrieved, n_relevant in zip(
            queries.paths, queries.labels, hits.tolist(), retrieved, relevant.tolist()):
        try:
            point = PRPoint(_precision(n_hits, n_retrieved), _recall(n_hits, n_relevant))
        except MetricUndefinedError as exc:
            raise RuntimeError(f"query {rel_path!r}: {exc}") from exc
        results.append(QueryResult(rel_path, label, point))
    mean_p = sum(r.point.precision for r in results) / len(results)
    mean_r = sum(r.point.recall for r in results) / len(results)
    return EvalReport(mode, tuple(results), PRPoint(mean_p, mean_r), float(survivors.mean()))


def emit_pr_csv(report: EvalReport, path) -> None:
    """Write per-query precision/recall rows plus a final MEAN row.

    Header `query_path,class,mode,precision,recall`; reals carry 6 decimal
    places; LF line endings. A field holding a comma or a quote is quoted,
    so every row reads back through `csv.reader` as five fields. Reruns on
    identical results are byte-identical, and the CSV replaces the file whole.
    """
    if not report.per_query:
        raise ValueError("cannot emit an empty evaluation report")
    mode = report.mode.value
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["query_path", "class", "mode", "precision", "recall"])
    for result in report.per_query:
        writer.writerow([result.path, result.class_label, mode,
                         f"{result.point.precision:.6f}", f"{result.point.recall:.6f}"])
    writer.writerow(["MEAN", "", mode, f"{report.mean.precision:.6f}", f"{report.mean.recall:.6f}"])
    _write_bytes(path, out.getvalue().encode("utf-8"))
