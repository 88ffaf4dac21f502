"""Similarity measurement: Euclidean distance, the adaptive corner-count
window, corner-band candidate filtering and moment-based ranking.

The window around a query's corner count widens multiplicatively with the
count band: Threshold = base_threshold * multiplier^floor(count / band_width),
a step function that keeps the acceptance window proportional to the count.

Filtering and ranking take `FeatureColumns`, a columnar view of feature
records, and run as numpy operations over whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .moments import HuVector

# Added inside the log before scaling; keeps zero invariants finite.
LOG_EPSILON = 1e-30


@dataclass(frozen=True)
class ThresholdConfig:
    """Adaptive window settings: band width R, base threshold T0, per-band growth."""

    band_width: int = 20
    base_threshold: float = 5.0
    multiplier: float = 1.5

    def __post_init__(self):
        if not (isinstance(self.band_width, int) and self.band_width >= 1):
            raise ValueError(f"band_width must be an integer >= 1, got {self.band_width!r}")
        if not self.base_threshold > 0.0:
            raise ValueError(f"base_threshold must be positive, got {self.base_threshold}")
        if not self.multiplier > 1.0:
            raise ValueError(f"multiplier must exceed 1, got {self.multiplier}")


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
    """sqrt of the summed squared component differences.

    Squares are products and the sum runs left to right, as in
    `rank_by_moments`, so both give the same bits. (`** 2` goes through the C
    library's pow, which is not always correctly rounded, and Python 3.12's
    `sum` compensates rounding; either would break that agreement.)
    """
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 1:
        raise ValueError("vectors must have at least one component")
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return math.sqrt(total)


def adaptive_threshold(count: int, config: ThresholdConfig = ThresholdConfig()) -> ThresholdWindow:
    """Window for a query corner count; min_t is clamped at 0."""
    if count < 0:
        raise ValueError(f"corner count must be >= 0, got {count}")
    band = count // config.band_width
    threshold = config.base_threshold * config.multiplier**band
    return ThresholdWindow(max(0.0, count - threshold), count + threshold)


def corner_filter(
    query_count: int,
    columns: FeatureColumns,
    config: ThresholdConfig = ThresholdConfig(),
) -> FeatureColumns:
    """The rows whose corner count falls in the query's window, in view order."""
    window = adaptive_threshold(query_count, config)
    return columns.select(window.contains(columns.corner_counts))


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
    both are (n, 7) float64, the other two columns int64 of length n.
    """

    record_ids: np.ndarray
    corner_counts: np.ndarray
    hu: np.ndarray
    log_hu: np.ndarray

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

    def select(self, mask: np.ndarray) -> "FeatureColumns":
        """The rows where the boolean `mask` is true, in view order."""
        rows = np.flatnonzero(mask)  # one index array for all four columns
        return FeatureColumns(
            self.record_ids.take(rows), self.corner_counts.take(rows),
            self.hu.take(rows, axis=0), self.log_hu.take(rows, axis=0),
        )


def rank_by_moments(
    query_hu: HuVector,
    columns: FeatureColumns,
    k: int,
    *,
    query_corner_count: int | None = None,
    log_scale: bool = True,
) -> list[RankedMatch]:
    """Top-k candidates by ascending moment distance; ties break on record_id.

    Distances are Euclidean over log-scaled invariants unless `log_scale` is
    off. `query_corner_count`, when given, fills each match's
    corner_difference for inspection.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_vec = log_magnitude_array(query_hu.as_array()) if log_scale else query_hu.as_array()
    # numpy squares by multiplication and adds a 7-element row left to right,
    # so every distance has the bits of euclidean_distance.
    distances = np.sqrt((((columns.log_hu if log_scale else columns.hu) - query_vec) ** 2).sum(axis=1))
    shortlist = np.arange(len(columns))
    if k < len(columns):
        # Everything as close as the k-th distance stays, so ties reach the sort.
        shortlist = np.flatnonzero(distances <= np.partition(distances, k - 1)[k - 1])
    rows = shortlist[np.lexsort((columns.record_ids[shortlist], distances[shortlist]))[:k]]
    differences = [0] * len(rows)
    if query_corner_count is not None:
        differences = np.abs(columns.corner_counts[rows] - query_corner_count).tolist()
    ids, row_distances = columns.record_ids[rows].tolist(), distances[rows].tolist()
    return [RankedMatch(*match) for match in zip(ids, differences, row_distances)]
