"""Precision/recall computation, rotated-dataset generation and the
three-mode evaluation harness (corner-only, moments-only, hybrid).

Per query, the relevant set is every database record sharing the query's
class label; under the default leave-in protocol that includes the query's
own record (matched by path). Results are reported per query plus an
unweighted arithmetic mean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .imaging import GrayImage, RgbImage, load_image, rgb_to_gray, rotate, save_pgm
from .index import FeatureDatabase, Manifest, _image_features
from .index import extract_features  # noqa: F401  not called here; kept for perfbench/tracing.py
from .matching import FeatureColumns, ThresholdConfig, corner_filter, rank_by_moments
from .parallel import ItemError, map_ordered


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
    """All per-query points of one mode plus their arithmetic mean."""

    mode: EvalMode
    per_query: tuple[QueryResult, ...]
    mean: PRPoint


def precision(retrieved, relevant) -> float:
    """N_r / T_r: fraction of retrieved records that are relevant."""
    retrieved = list(retrieved)
    if not retrieved:
        raise MetricUndefinedError("precision is undefined for an empty retrieved list")
    hits = len(set(retrieved) & set(relevant))
    return hits / len(retrieved)


def recall(retrieved, relevant) -> float:
    """N_r / T_s: fraction of relevant records that were retrieved."""
    relevant = set(relevant)
    if not relevant:
        raise MetricUndefinedError("recall is undefined for an empty relevant set")
    hits = len(set(retrieved) & relevant)
    return hits / len(relevant)


def generate_rotated_dataset(base_manifest: Manifest, root, angles, out_dir) -> Manifest:
    """Rotate every base image by every angle and write binary P5 files.

    Output names are `<stem>_rot<angle-in-integer-degrees>.pgm`; class labels
    are inherited from the base entry. Returns the combined manifest with
    len(base) * len(angles) entries, base-major order.
    """
    angles = list(angles)
    if not angles:
        raise ValueError("angles must be non-empty")
    root = Path(root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for rel_path, label in base_manifest.entries:
        try:
            image = load_image(root / rel_path)
        except Exception as exc:
            raise RuntimeError(f"base image {rel_path!r}: {exc}") from exc
        if isinstance(image, RgbImage):
            image = rgb_to_gray(image)
        stem = Path(rel_path).stem
        for angle in angles:
            name = f"{stem}_rot{int(round(angle))}.pgm"
            if name in seen:
                raise RuntimeError(f"output name collision: {name!r}")
            seen.add(name)
            try:
                save_pgm(rotate(image, angle), out_dir / name)
            except OSError as exc:
                raise RuntimeError(f"writing {name!r}: {exc}") from exc
            entries.append((name, label))
    return Manifest(tuple(entries))


def _retrieved_ids(
    candidates: FeatureColumns,
    query_count: int,
    query_hu,
    mode: EvalMode,
    threshold_cfg: ThresholdConfig,
    k: int,
) -> list[int]:
    """Record ids of the top-k candidates in one mode.

    Corner-only mode orders the window's survivors by corner-count
    difference, ties broken on record_id.
    """
    if mode is EvalMode.MOMENTS_ONLY:
        return [m.record_id for m in rank_by_moments(query_hu, candidates, k)]
    passing = corner_filter(query_count, candidates, threshold_cfg)
    if mode is EvalMode.HYBRID:
        return [m.record_id for m in rank_by_moments(query_hu, passing, k)]
    order = np.lexsort((passing.record_ids, np.abs(passing.corner_counts - query_count)))
    return passing.record_ids[order[:k]].tolist()


def evaluate(
    db: FeatureDatabase,
    query_manifest: Manifest,
    root,
    mode: EvalMode,
    threshold_cfg: ThresholdConfig = ThresholdConfig(),
    k: int = 6,
    *,
    exclude_self: bool = False,
    jobs: int = 1,
) -> EvalReport:
    """Evaluate every manifest query against the database in one mode.

    With `exclude_self` the query's own record (same path) is dropped from
    both the candidate pool and the relevant set. Query images are loaded
    and their features extracted on up to `jobs` worker processes; ranking
    and scoring run here. Any failing query aborts the evaluation with its
    path named, the first in manifest order if several fail.
    """
    root = Path(root)
    cfg = db.extraction_config
    columns = db.columns
    ids = columns.record_ids.tolist()
    by_class: dict[str, set[int]] = {}
    for record_id, label in zip(ids, db.labels):
        by_class.setdefault(label, set()).add(record_id)
    paths = np.array(db.paths, dtype=str)

    query_paths = [rel_path for rel_path, _ in query_manifest.entries]
    try:
        features, failed = map_ordered(partial(_image_features, root, cfg), query_paths, jobs), None
    except ItemError as err:
        # Rank the queries before the failing one first: the first query to
        # fail in manifest order, at either step, is the one reported.
        features, failed = err.results, err
    results = []
    for (rel_path, label), (count, hu) in zip(query_manifest.entries, features):
        try:
            relevant = by_class.get(label, set())
            candidates = columns
            if exclude_self:
                own = paths == rel_path
                candidates = columns.select(~own)
                relevant = relevant - set(columns.record_ids[own].tolist())
            retrieved = _retrieved_ids(candidates, count, hu, mode, threshold_cfg, k)
            point = PRPoint(precision(retrieved, relevant), recall(retrieved, relevant))
        except Exception as exc:
            raise RuntimeError(f"query {rel_path!r}: {exc}") from exc
        results.append(QueryResult(rel_path, label, point))
    if failed is not None:
        raise RuntimeError(f"query {query_paths[failed.index]!r}: {failed.__cause__}") from failed.__cause__
    mean_p = sum(r.point.precision for r in results) / len(results)
    mean_r = sum(r.point.recall for r in results) / len(results)
    return EvalReport(mode, tuple(results), PRPoint(mean_p, mean_r))


def emit_pr_csv(report: EvalReport, path) -> None:
    """Write per-query precision/recall rows plus a final MEAN row.

    Header `query_path,class,mode,precision,recall`; reals carry 6 decimal
    places; LF line endings. Reruns on identical results are byte-identical.
    """
    if not report.per_query:
        raise ValueError("cannot emit an empty evaluation report")
    lines = ["query_path,class,mode,precision,recall"]
    for result in report.per_query:
        lines.append(
            f"{result.path},{result.class_label},{report.mode.value},"
            f"{result.point.precision:.6f},{result.point.recall:.6f}"
        )
    lines.append(f"MEAN,,{report.mode.value},{report.mean.precision:.6f},{report.mean.recall:.6f}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
