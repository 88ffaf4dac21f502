import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tir.index import FeatureRecord
from tir.matching import (
    FeatureColumns,
    RankedMatch,
    ThresholdConfig,
    ThresholdWindow,
    adaptive_threshold,
    corner_filter,
    log_magnitude,
    log_magnitude_array,
    moment_distances,
    rank_by_moments,
)
from tir.moments import HuVector

DEFAULTS = ThresholdConfig()


def record(record_id: int, count: int = 10, phi=None) -> FeatureRecord:
    phi = phi if phi is not None else tuple(float(record_id + i) for i in range(7))
    return FeatureRecord(record_id, f"img{record_id}.pgm", f"c{record_id}", count, HuVector(phi))


def columns(records) -> FeatureColumns:
    return FeatureColumns.from_records(records)


def cell_distance(a, b) -> float:
    """The one cell of `moment_distances` for the vectors `a` and `b`."""
    return float(moment_distances(np.array([a], np.float64), np.array([b], np.float64))[0, 0])


class TestEuclideanDistance:
    def test_identity(self):
        assert cell_distance((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0

    def test_three_four_five(self):
        assert cell_distance((3.0, 4.0), (0.0, 0.0)) == 5.0

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(20):
            a = rng.normal(size=7)
            b = rng.normal(size=7)
            got = cell_distance(tuple(a), tuple(b))
            want = reference.euclidean(a, b)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_squares_are_products(self):
        # A log-scaled query/record pair from the benchmark: the C library's
        # pow(d, 2) is one ulp above d * d for the sixth difference, so the
        # ranking core must square by multiplication, in every cell.
        a = tuple(float.fromhex(h) for h in (
            "-0x1.695bbac77fb5ap+1", "-0x1.95e8173afcdd2p+2", "-0x1.1f3e6f484c1f3p+3", "-0x1.2e1f0c3d06d0ap+3",
            "0x1.2a66e4ffd8050p+4", "0x1.9399120bc7e28p+3", "0x1.8b66f7fac0f31p+4"))
        b = tuple(float.fromhex(h) for h in (
            "-0x1.7a7761bfeb81ep+1", "-0x1.9aba775d63fc8p+2", "-0x1.2ae8951b398bcp+3", "-0x1.4c5585478b9b8p+3",
            "0x1.42b0a2e7a51ebp+4", "0x1.af6180324732dp+3", "0x1.6df8afb8b386ap+4"))
        ranked = rank_by_moments(HuVector(a), columns([record(0, phi=b)]), 1, log_scale=False)
        assert cell_distance(a, b) == ranked[0].moment_distance == reference.euclidean(a, b)

    def test_every_cell_of_a_block_has_the_bits_of_its_pair(self, rng):
        queries = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-15, 2, size=(5, 7))
        rows = rng.normal(size=(9, 7)) * 10.0 ** rng.integers(-15, 2, size=(9, 7))
        block = moment_distances(queries, rows)
        assert block.shape == (5, 9)
        for i, j in itertools.product(range(5), range(9)):
            assert block[i, j] == cell_distance(queries[i], rows[j]), (i, j)

    def test_empty_blocks_give_empty_grids(self):
        assert moment_distances(np.zeros((3, 7)), np.zeros((0, 7))).shape == (3, 0)
        assert moment_distances(np.zeros((0, 7)), np.zeros((4, 7))).shape == (0, 4)


class TestThresholdConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"band_width": 0}, {"band_width": 1.5}, {"band_width": True}, {"base_threshold": 0.0},
                   {"multiplier": 1.0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ThresholdConfig(**kwargs)


class TestAdaptiveThreshold:
    def test_first_band(self):
        assert adaptive_threshold(10, DEFAULTS) == ThresholdWindow(5.0, 15.0)

    def test_second_band(self):
        assert adaptive_threshold(25, DEFAULTS) == ThresholdWindow(17.5, 32.5)

    def test_zero_count_clamps_at_zero(self):
        assert adaptive_threshold(0, DEFAULTS) == ThresholdWindow(0.0, 5.0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            adaptive_threshold(-1, DEFAULTS)

    def test_window_width_never_shrinks_with_count(self):
        widths = [
            adaptive_threshold(count, DEFAULTS).max_t - adaptive_threshold(count, DEFAULTS).min_t
            for count in range(0, 501)
        ]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    @given(count=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_window_is_symmetric_until_clamped(self, count):
        window = adaptive_threshold(count, DEFAULTS)
        threshold = DEFAULTS.base_threshold * DEFAULTS.multiplier ** (count // DEFAULTS.band_width)
        assert window.max_t == count + threshold
        assert window.min_t == max(0.0, count - threshold)

    @pytest.mark.parametrize("count, config", [
        (35_000, DEFAULTS),  # the largest finite power; the product alone overflows, to inf
        (10**6, DEFAULTS),
        (40, ThresholdConfig(multiplier=1e300)),
    ])
    def test_overflowing_threshold_accepts_every_count(self, count, config):
        assert adaptive_threshold(count, config) == ThresholdWindow(0.0, math.inf)
        records = [record(0, 0), record(1, count), record(2, 2**62)]
        assert corner_filter(count, columns(records), config).record_ids.tolist() == [0, 1, 2]


class TestCornerFilter:
    def test_hand_traced_window(self):
        records = [record(0, 5), record(1, 15), record(2, 16)]
        kept = corner_filter(10, columns(records), DEFAULTS)
        assert kept.record_ids.tolist() == [0, 1]

    def test_empty_input(self):
        assert len(corner_filter(10, columns([]), DEFAULTS)) == 0

    def test_zero_difference_always_retained(self):
        records = [record(i, 7) for i in range(4)]
        assert corner_filter(7, columns(records), DEFAULTS).record_ids.tolist() == [0, 1, 2, 3]

    @given(query=st.integers(0, 200), counts=st.lists(st.integers(0, 200), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_subsequence_and_window_predicate(self, query, counts):
        records = [record(i, c) for i, c in enumerate(counts)]
        ids = corner_filter(query, columns(records), DEFAULTS).record_ids.tolist()
        assert ids == sorted(ids)  # order preserved
        window = adaptive_threshold(query, DEFAULTS)
        threshold = window.max_t - query
        for r in records:
            inside = abs(r.corner_count - query) <= threshold
            assert (r.record_id in ids) == inside


class TestRankByMoments:
    def test_identical_candidate_ranks_first_with_zero_distance(self):
        query = HuVector((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        records = [record(0, phi=(1.0,) * 7), record(1, phi=query.phi)]
        ranked = rank_by_moments(query, columns(records), 2)
        assert ranked[0].record_id == 1
        assert ranked[0].moment_distance == 0.0

    def test_singleton(self):
        records = [record(5)]
        ranked = rank_by_moments(HuVector((0.0,) * 7), columns(records), 3)
        assert [m.record_id for m in ranked] == [5]

    def test_matches_exhaustive_sort_oracle(self, rng):
        query = HuVector(tuple(rng.normal(size=7)))
        records = [record(i, phi=tuple(rng.normal(size=7))) for i in range(5)]
        ranked = rank_by_moments(query, columns(records), 5)
        expected = sorted(
            records,
            key=lambda r: (reference.euclidean(log_magnitude(query), log_magnitude(r.hu)), r.record_id),
        )
        assert [m.record_id for m in ranked] == [r.record_id for r in expected]

    def test_ties_break_on_record_id(self):
        phi = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01)
        records = [record(3, phi=phi), record(1, phi=phi), record(2, phi=phi)]
        ranked = rank_by_moments(HuVector(phi), columns(records), 3)
        assert [m.record_id for m in ranked] == [1, 2, 3]

    def test_result_ordering_independent_of_input_order(self, rng):
        query = HuVector(tuple(rng.normal(size=7)))
        records = [record(i, phi=tuple(rng.normal(size=7))) for i in range(8)]
        baseline = rank_by_moments(query, columns(records), 4)
        for permutation in itertools.islice(itertools.permutations(records), 0, 24, 5):
            assert rank_by_moments(query, columns(permutation), 4) == baseline

    def test_distances_ascend_and_cap_at_k(self, rng):
        query = HuVector(tuple(rng.normal(size=7)))
        records = [record(i, phi=tuple(rng.normal(size=7))) for i in range(9)]
        ranked = rank_by_moments(query, columns(records), 4)
        assert len(ranked) == 4
        distances = [m.moment_distance for m in ranked]
        assert distances == sorted(distances)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rank_by_moments(HuVector((0.0,) * 7), columns([]), 0)

    def test_corner_difference_reported_when_query_count_given(self):
        records = [record(0, count=14)]
        ranked = rank_by_moments(HuVector((0.0,) * 7), columns(records), 1, query_corner_count=10)
        assert ranked[0].corner_difference == 4

    def test_raw_distance_switch(self):
        query = HuVector((0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        candidate = record(0, phi=(0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        raw = rank_by_moments(query, columns([candidate]), 1, log_scale=False)[0].moment_distance
        assert raw == 0.25
        logd = rank_by_moments(query, columns([candidate]), 1)[0].moment_distance
        assert abs(logd - cell_distance(log_magnitude(query), log_magnitude(candidate.hu))) < 1e-15


class TestLogMagnitude:
    def test_zero_maps_to_zero(self):
        assert log_magnitude((0.0,)) == (0.0,)

    def test_sign_carries_through(self):
        pos, neg = log_magnitude((1e-3, -1e-3))
        assert pos == -neg < 0

    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-30, -1e-30, 1e308, -1e308, 1.0, -1.0]),
        ),
        max_size=21,
    ))
    @settings(max_examples=300, deadline=None)
    def test_array_form_has_the_bits_of_log_magnitude(self, values):
        want = np.array(reference.log_magnitude(values), dtype=np.float64)
        got = log_magnitude_array(np.array(values, dtype=np.float64))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert log_magnitude(values) == tuple(want.tolist())
        rows = np.array(values + [0.0] * (-len(values) % 7), dtype=np.float64).reshape(-1, 7)
        got = log_magnitude_array(rows)
        want = bytes(np.array(reference.log_magnitude(rows.ravel().tolist())))
        assert got.shape == rows.shape and got.tobytes() == want


class TestRankedMatch:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            RankedMatch(0, -1, 0.0)
        with pytest.raises(ValueError):
            RankedMatch(0, 0, -0.5)
        with pytest.raises(ValueError):
            RankedMatch(0, 0, float("inf"))
