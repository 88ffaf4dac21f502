"""The numpy retrieval core against the per-record reference, on random databases.

Databases hold duplicate Hu vectors and duplicate corner counts (ties), zero
invariants, and are queried with k up to past their size, with windows that
may be empty, and with both distance scales. Distances must match exactly.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tir.evaluation import EvalMode, _retrieved_ids
from tir.imaging import GrayImage
from tir.index import ExtractionConfig, FeatureDatabase, FeatureRecord, query
from tir.matching import ThresholdConfig, corner_filter, rank_by_moments
from tir.moments import HuVector

CONFIGS = (ThresholdConfig(), ThresholdConfig(band_width=7, base_threshold=2.5, multiplier=2.0))

components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-15, -3.5e-9, 2.5e-3, 0.2, -0.7]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
hu_vectors = st.tuples(*[components] * 7)


@st.composite
def scenarios(draw):
    """A database, a query (count, Hu vector), k, a window config, a distance scale and a row mask."""
    pool = draw(st.lists(hu_vectors, min_size=1, max_size=3))
    vectors = st.one_of(st.sampled_from(pool), hu_vectors)
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=25, unique=True))
    records = tuple(
        FeatureRecord(rid, f"img{rid}.pgm", f"c{rid % 3}", draw(st.integers(0, 40)), HuVector(draw(vectors)))
        for rid in ids
    )
    return (
        FeatureDatabase(records, ExtractionConfig()),
        draw(st.integers(0, 120)),
        HuVector(draw(vectors)),
        draw(st.integers(1, 30)),
        draw(st.sampled_from(CONFIGS)),
        draw(st.booleans()),
        np.array(draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))), dtype=bool),
    )


def window_args(cfg: ThresholdConfig):
    return cfg.band_width, cfg.base_threshold, cfg.multiplier


def triples(matches):
    return [(m.record_id, m.corner_difference, m.moment_distance) for m in matches]


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_query_matches_reference(scenario):
    db, count, hu, k, cfg, log_scale, _ = scenario
    with mock.patch("tir.index.extract_features", return_value=(count, hu)):
        got = query(db, GrayImage(np.zeros((1, 1), dtype=np.uint8)), cfg, k, log_scale=log_scale)
    survivors = reference.in_window(db.records, count, window_args(cfg))
    assert triples(got) == reference.rank(hu, survivors, k, query_count=count, log_scale=log_scale)


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_eval_modes_match_reference(scenario):
    db, count, hu, k, cfg, _, keep = scenario
    records = [r for r, kept in zip(db.records, keep) if kept]
    candidates = db.columns.select(keep)
    survivors = reference.in_window(records, count, window_args(cfg))
    expected = {
        EvalMode.CORNER_ONLY: reference.corner_rank(count, survivors, k),
        EvalMode.MOMENTS_ONLY: [rid for rid, _, _ in reference.rank(hu, records, k)],
        EvalMode.HYBRID: [rid for rid, _, _ in reference.rank(hu, survivors, k)],
    }
    for mode, ids in expected.items():
        assert _retrieved_ids(candidates, count, hu, mode, cfg, k) == ids, mode


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_filter_and_rank_match_reference(scenario):
    db, count, hu, k, cfg, log_scale, _ = scenario
    records = list(db.records)
    survivors = reference.in_window(records, count, window_args(cfg))
    assert corner_filter(count, db.columns, cfg).record_ids.tolist() == [r.record_id for r in survivors]
    got = rank_by_moments(hu, db.columns, k, query_corner_count=count, log_scale=log_scale)
    assert triples(got) == reference.rank(hu, records, k, query_count=count, log_scale=log_scale)
