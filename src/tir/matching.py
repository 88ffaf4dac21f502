"""Similarity measurement: Euclidean distance, the adaptive corner-count
window, corner-band candidate filtering and moment-based ranking.

The window around a query's corner count widens multiplicatively with the
count band: Threshold = base_threshold * multiplier^floor(count / band_width),
a step function that keeps the acceptance window proportional to the count.

Filtering and ranking take `FeatureColumns`, a columnar view of feature
records, and run as numpy operations over whole columns. `rank_queries` is
the one ranking function: it ranks a block of queries, and
`rank_by_moments` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._shown import shown
from .moments import HuVector

# Added inside the log before scaling; keeps zero invariants finite.
LOG_EPSILON = 1e-30

# rank_queries ranks max(1, BLOCK_CELLS // rows) queries at a time, so each
# (queries x rows) temporary of one chunk stays near 0.5 MB however many
# queries there are (a single query's row is as long as the database).
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ThresholdConfig:
    """Adaptive window settings: band width R, base threshold T0, per-band growth."""

    band_width: int = 20
    base_threshold: float = 5.0
    multiplier: float = 1.5

    def __post_init__(self):
        if not (type(self.band_width) is int and self.band_width >= 1):  # not a bool
            raise ValueError(f"band_width must be an integer >= 1, got {shown(self.band_width)}")
        if not self.base_threshold > 0.0:
            raise ValueError(f"base_threshold must be positive, got {shown(self.base_threshold, str)}")
        if not self.multiplier > 1.0:
            raise ValueError(f"multiplier must exceed 1, got {shown(self.multiplier, str)}")


@dataclass(frozen=True)
class ThresholdWindow:
    """Inclusive corner-count acceptance interval [min_t, max_t]."""

    min_t: float
    max_t: float

    def __post_init__(self):
        if self.min_t > self.max_t:
            raise ValueError(f"window is inverted: ({self.min_t}, {self.max_t})")

    def contains(self, count):
        """Whether `count` lies in the window; element-wise for an array of counts."""
        return (self.min_t <= count) & (count <= self.max_t)


@dataclass(frozen=True)
class RankedMatch:
    """One retrieval result: database record id, corner-count difference, moment distance."""

    record_id: int
    corner_difference: int
    moment_distance: float

    def __post_init__(self):
        if self.corner_difference < 0:
            raise ValueError("corner_difference must be >= 0")
        if not math.isfinite(self.moment_distance) or self.moment_distance < 0.0:
            raise ValueError("moment_distance must be finite and >= 0")


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """sqrt of the summed squared component differences: the one cell of `moment_distances` for `a` and `b`."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 1:
        raise ValueError("vectors must have at least one component")
    return float(moment_distances(np.array([a], np.float64), np.array([b], np.float64))[0, 0])


def adaptive_threshold(count: int, config: ThresholdConfig = ThresholdConfig()) -> ThresholdWindow:
    """Window for a query corner count; min_t is clamped at 0, and a threshold past the largest float is infinite."""
    if count < 0:
        raise ValueError(f"corner count must be >= 0, got {count}")
    band = count // config.band_width
    try:
        threshold = config.base_threshold * config.multiplier**band
    except OverflowError:
        return ThresholdWindow(0.0, math.inf)
    return ThresholdWindow(max(0.0, count - threshold), count + threshold)


def corner_filter(
    query_count: int,
    columns: FeatureColumns,
    config: ThresholdConfig = ThresholdConfig(),
) -> FeatureColumns:
    """The rows whose corner count falls in the query's window, in view order."""
    rows = np.flatnonzero(adaptive_threshold(query_count, config).contains(columns.corner_counts))
    return FeatureColumns(columns.record_ids.take(rows), columns.corner_counts.take(rows),
                          columns.hu.take(rows, axis=0), columns.log_hu.take(rows, axis=0))


def log_magnitude(values: Iterable[float]) -> tuple[float, ...]:
    """`log_magnitude_array` of an iterable of floats, as a tuple."""
    return tuple(log_magnitude_array(np.fromiter(values, np.float64)).tolist())


def log_magnitude_array(values: np.ndarray) -> np.ndarray:
    """Per-element sign(v) * log10(|v| + eps) of a float64 array; 0 stays 0.

    Hu invariants span many orders of magnitude (phi1 ~ 1e-1, phi7 ~ 1e-15 for
    typical shapes); without this rescaling a Euclidean distance is dominated
    by phi1 alone. The log runs per element through `math.log10`, since
    `np.log10` differs from it in the last bit for some inputs; the absolute
    value, the epsilon sum and the sign are exact in numpy as in Python.
    """
    shifted = (np.abs(values) + LOG_EPSILON).ravel().tolist()
    logs = np.fromiter(map(math.log10, shifted), np.float64, len(shifted)).reshape(values.shape)
    return np.where(values != 0.0, np.copysign(1.0, values) * logs, 0.0)


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Columnar view of feature records: row i of every column is one record.

    `hu` holds the raw invariants and `log_hu` their `log_magnitude_array`;
    both are (n, 7) float64, the other two int64 of length n. All are read-only.
    """

    record_ids: np.ndarray
    corner_counts: np.ndarray
    hu: np.ndarray
    log_hu: np.ndarray

    def __post_init__(self):
        for column in (self.record_ids, self.corner_counts, self.hu, self.log_hu):
            column.setflags(write=False)

    @classmethod
    def from_records(cls, records: Iterable) -> "FeatureColumns":
        """Columns of `records` (`tir.index.FeatureRecord`s), in input order."""
        records = list(records)
        hu = np.array([r.hu.phi for r in records], dtype=np.float64).reshape(-1, 7)
        return cls(
            record_ids=np.array([r.record_id for r in records], dtype=np.int64),
            corner_counts=np.array([r.corner_count for r in records], dtype=np.int64),
            hu=hu,
            log_hu=log_magnitude_array(hu),
        )

    def __len__(self) -> int:
        return len(self.record_ids)


def moment_distances(query_vectors: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(queries x rows) Euclidean distances between the rows of two (., d) float64 blocks.

    Each squared difference is a product (`** 2` goes through the C library's
    pow, which is not always correctly rounded), added to the running sums one
    component at a time from the left (Python 3.12's `sum` would compensate
    rounding). So each cell has the same bits in any block: `euclidean_distance`
    is one cell.
    """
    total = np.zeros((len(query_vectors), len(vectors)))
    for j in range(vectors.shape[1]):
        difference = vectors[:, j] - query_vectors[:, j, None]
        difference *= difference
        total += difference
    return np.sqrt(total, out=total)


def _top_k(keys: np.ndarray, record_ids: np.ndarray, k: int, valid: np.ndarray) -> list[np.ndarray]:
    """Per row of the (queries x rows) `keys`, the columns of its k smallest
    `valid` keys in ascending (key, record_id) order."""
    if k < keys.shape[1]:
        # Everything as close as the k-th smallest valid key stays, so ties
        # reach the sort. A masked key reads as the block's largest, which
        # leaves that k-th smallest unchanged.
        kth = np.partition(np.where(valid, keys, keys.max()), k - 1, axis=1)[:, k - 1:k]
        valid = valid & (keys <= kth)
    rows, cols = np.nonzero(valid)
    cols = cols[np.lexsort((record_ids[cols], keys[rows, cols], rows))]
    ends = np.cumsum(valid.sum(axis=1)).tolist()
    return [cols[start:min(start + k, end)] for start, end in zip([0] + ends[:-1], ends)]


def rank_queries(
    columns: FeatureColumns,
    query_counts: np.ndarray,
    hu_blocks: tuple[np.ndarray, np.ndarray] | None,
    k: int,
    *,
    threshold_cfg: ThresholdConfig | None = None,
    excluded: Sequence[Sequence[int]] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each query's top-k rows of `columns`, and how many rows it ranked.

    Query i ranks the rows in the window `adaptive_threshold(query_counts[i],
    threshold_cfg)` (every row when `threshold_cfg` is None), less the rows
    `excluded[i]`. It orders them by distance between row i of the query
    block and the record block, the pair `hu_blocks` on one scale, or, when
    `hu_blocks` is None, by |count difference|; ties break on record_id.
    The queries are ranked BLOCK_CELLS cells at a time.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(columns)
    step = max(1, BLOCK_CELLS // max(n, 1))
    ranked: list[np.ndarray] = []
    survivors = np.zeros(len(query_counts), dtype=np.int64)
    for start in range(0, len(query_counts), step):
        block = slice(start, start + step)
        counts = query_counts[block]
        if threshold_cfg is None:
            valid = np.ones((len(counts), n), dtype=bool)
        else:
            windows = [adaptive_threshold(c, threshold_cfg) for c in counts.tolist()]
            lo, hi = np.array([(w.min_t, w.max_t) for w in windows], dtype=np.float64).T
            valid = (lo[:, None] <= columns.corner_counts) & (columns.corner_counts <= hi[:, None])
        for i, rows in enumerate(excluded[block] if excluded is not None else ()):
            valid[i, rows] = False
        if hu_blocks is None:
            keys = np.abs(columns.corner_counts - counts[:, None])
        else:
            keys = moment_distances(hu_blocks[0][block], hu_blocks[1])
        survivors[block] = valid.sum(axis=1)
        ranked += _top_k(keys, columns.record_ids, k, valid)
    return ranked, survivors


def rank_by_moments(
    query_hu: HuVector,
    columns: FeatureColumns,
    k: int,
    *,
    query_corner_count: int | None = None,
    log_scale: bool = True,
) -> list[RankedMatch]:
    """Top-k candidates by ascending moment distance, ties on record_id: one windowless `rank_queries` row.

    Distances are Euclidean over log-scaled invariants unless `log_scale` is
    off. `query_corner_count`, when given, fills each match's
    corner_difference for inspection.
    """
    query_vec = log_magnitude_array(query_hu.as_array()) if log_scale else query_hu.as_array()
    vectors = columns.log_hu if log_scale else columns.hu
    [rows], _ = rank_queries(columns, np.zeros(1, dtype=np.int64), (query_vec[None], vectors), k)  # count unread
    differences = (np.abs(columns.corner_counts[rows] - query_corner_count).tolist()
                   if query_corner_count is not None else [0] * len(rows))
    distances = moment_distances(query_vec[None], vectors[rows])[0].tolist()  # cell by cell: the ranking's bits
    return [RankedMatch(*match) for match in zip(columns.record_ids[rows].tolist(), differences, distances)]
