"""The numpy retrieval core against the per-record reference, on random databases.

Databases hold duplicate Hu vectors and duplicate corner counts (ties), zero
invariants and paths shared by several records, and are queried with k up to
past their size, with windows that may be empty, and with both distance
scales. Evaluation ranks a block of such queries at once. Distances must
match exactly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tir import matching
from tir.evaluation import EvalMode, PRPoint, evaluate
from tir.imaging import GrayImage
from tir.index import ExtractionConfig, FeatureDatabase, FeatureRecord, query
from tir.matching import ThresholdConfig, corner_filter, rank_by_moments, rank_queries
from tir.moments import HuVector

CONFIGS = (ThresholdConfig(), ThresholdConfig(band_width=7, base_threshold=2.5, multiplier=2.0))

components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-15, -3.5e-9, 2.5e-3, 0.2, -0.7]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
hu_vectors = st.tuples(*[components] * 7)


@st.composite
def scenarios(draw, queries=None):
    """A database, a query (count, Hu vector), k, a window config, a distance scale and a row mask.

    With `queries`, the counts, the Hu vectors and the row masks of that many queries come as three lists.
    """
    pool = draw(st.lists(hu_vectors, min_size=1, max_size=3))
    vectors = st.one_of(st.sampled_from(pool), hu_vectors)
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=25, unique=True))
    records = tuple(
        FeatureRecord(rid, f"img{draw(st.integers(0, 3))}.pgm", f"c{rid % 3}", draw(st.integers(0, 40)),
                      HuVector(draw(vectors)))
        for rid in ids
    )
    masks = st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)).map(lambda m: np.array(m, dtype=bool))
    block = [(draw(st.integers(0, 120)), HuVector(draw(vectors)), draw(masks)) for _ in range(queries or 1)]
    counts, hus, keeps = (list(column) for column in zip(*block))
    one = queries is None
    return (
        FeatureDatabase(records, ExtractionConfig()),
        counts[0] if one else counts,
        hus[0] if one else hus,
        draw(st.integers(1, 30)),
        draw(st.sampled_from(CONFIGS)),
        draw(st.booleans()),
        keeps[0] if one else keeps,
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


def reference_ids(mode, count, hu, candidates, k, cfg, log_scale=True):
    """The record ids one query retrieves from `candidates` in `mode`, and how many records it ranks."""
    survivors = reference.in_window(candidates, count, window_args(cfg))
    if mode is EvalMode.CORNER_ONLY:
        return reference.corner_rank(count, survivors, k), len(survivors)
    ranked = survivors if mode is EvalMode.HYBRID else candidates
    return [rid for rid, _, _ in reference.rank(hu, ranked, k, log_scale=log_scale)], len(ranked)


@given(scenarios(queries=5))
@settings(max_examples=150, deadline=None)
def test_rank_queries_matches_reference(scenario):
    # Every query of the block has its own row mask. The Hu blocks are on the drawn scale, log or raw.
    db, counts, hus, k, cfg, log_scale, keeps = scenario
    columns = db.columns
    excluded = [np.flatnonzero(~keep) for keep in keeps]
    query_hu = np.array([hu.phi for hu in hus])
    scaled = (matching.log_magnitude_array(query_hu), columns.log_hu) if log_scale else (query_hu, columns.hu)
    for mode in EvalMode:
        window = None if mode is EvalMode.MOMENTS_ONLY else cfg
        hu_blocks = None if mode is EvalMode.CORNER_ONLY else scaled
        ranked, survivors = rank_queries(columns, np.array(counts), hu_blocks, k, threshold_cfg=window,
                                         excluded=excluded)
        expected = [reference_ids(mode, count, hu, [r for r, kept in zip(db.records, keep) if kept], k, cfg,
                                  log_scale)
                    for count, hu, keep in zip(counts, hus, keeps)]
        assert [columns.record_ids[rows].tolist() for rows in ranked] == [ids for ids, _ in expected], mode
        assert survivors.tolist() == [n for _, n in expected], mode


@st.composite
def eval_blocks(draw):
    """A database and a query set of several records (paths and labels partly shared with the database),
    k, a window config and the protocol."""
    db, counts, hus, k, cfg, _, _ = draw(scenarios(queries=draw(st.integers(1, 6))))
    paths = st.sampled_from([f"img{i}.pgm" for i in range(5)])  # img4.pgm is in no database
    labels = st.sampled_from(["c0", "c1", "c2"] * 3 + ["c9"])  # c9 is in no database
    records = [FeatureRecord(i, draw(paths), draw(labels), count, hu) for i, (count, hu) in enumerate(zip(counts, hus))]
    return db, records, k, cfg, draw(st.booleans())


def expected_eval(db, records, mode, k, cfg, exclude_self):
    """Each query's retrieved ids, and the report or the RuntimeError message that `evaluate` must give."""
    retrieved, points, ranked_counts, error = [], [], [], None
    for q in records:
        candidates = [r for r in db.records if not (exclude_self and r.path == q.path)]
        ids, n = reference_ids(mode, q.corner_count, q.hu, candidates, k, cfg)
        relevant = {r.record_id for r in candidates if r.class_label == q.class_label}
        retrieved.append(ids)
        ranked_counts.append(n)
        if error is None and not ids:
            error = f"query {q.path!r}: precision is undefined for an empty retrieved list"
        elif error is None and not relevant:
            error = f"query {q.path!r}: recall is undefined for an empty relevant set"
        elif error is None:
            hits = len(set(ids) & relevant)
            points.append(PRPoint(hits / len(ids), hits / len(relevant)))
    return retrieved, points, sum(ranked_counts) / len(records), error


@given(eval_blocks())
@settings(max_examples=150, deadline=None)
def test_eval_block_matches_reference(block):
    # One evaluate call ranks the whole block. Its retrieved ids are those of the reference in every mode,
    # and so are its points, or the first failing query is named.
    db, records, k, cfg, exclude_self = block
    queries = FeatureDatabase(records, db.extraction_config)
    for mode in EvalMode:
        calls = []

        def spy(*args, **kwargs):
            calls.append(rank_queries(*args, **kwargs))
            return calls[-1]

        retrieved, points, mean_survivors, error = expected_eval(db, records, mode, k, cfg, exclude_self)
        with mock.patch("tir.evaluation.rank_queries", spy):
            if error is None:
                report = evaluate(db, queries, mode, cfg, k, exclude_self=exclude_self)
                assert [r.point for r in report.per_query] == points
                assert report.mean_survivors == mean_survivors
            else:
                with pytest.raises(RuntimeError) as exc:
                    evaluate(db, queries, mode, cfg, k, exclude_self=exclude_self)
                assert str(exc.value) == error
        [(ranked, _)] = calls
        assert [db.columns.record_ids[rows].tolist() for rows in ranked] == retrieved, mode


@given(eval_blocks())
@settings(max_examples=50, deadline=None)
def test_eval_chunks_give_the_report_of_one_chunk(block):
    # Chunks of 1 and of 3 queries: the same report, or the same failure, as one chunk of the whole block.
    db, records, k, cfg, exclude_self = block
    queries = FeatureDatabase(records, db.extraction_config)
    assert len(records) * len(db.columns) <= matching.BLOCK_CELLS  # one chunk by default

    def outcome(mode):
        try:
            return evaluate(db, queries, mode, cfg, k, exclude_self=exclude_self)
        except RuntimeError as exc:
            return str(exc)

    for mode in EvalMode:
        whole = outcome(mode)
        for rows in (1, 3):
            with mock.patch.object(matching, "BLOCK_CELLS", rows * len(db.columns)):
                assert outcome(mode) == whole, (mode, rows)


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_filter_and_rank_match_reference(scenario):
    db, count, hu, k, cfg, log_scale, _ = scenario
    records = list(db.records)
    survivors = reference.in_window(records, count, window_args(cfg))
    assert corner_filter(count, db.columns, cfg).record_ids.tolist() == [r.record_id for r in survivors]
    got = rank_by_moments(hu, db.columns, k, query_corner_count=count, log_scale=log_scale)
    assert triples(got) == reference.rank(hu, records, k, query_count=count, log_scale=log_scale)
