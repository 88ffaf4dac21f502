import csv
import dataclasses
import hashlib
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tir._shown import shown
from tir.cli import run
from tir.evaluation import (
    EvalMode,
    MetricUndefinedError,
    PRPoint,
    emit_pr_csv,
    evaluate,
    generate_rotated_dataset,
    precision,
    recall,
)
from tir.edge import EdgeConfig
from tir.imaging import load_image, save_pgm
from tir.index import ExtractionConfig, FeatureDatabase, Manifest, build_index, load_index, save_index
from tir.matching import FeatureColumns, ThresholdConfig, adaptive_threshold, log_magnitude_array
from tir.shapes import benchmark_shapes


# sha256 of every rotated PGM that scripts/run_benchmark.py writes, as `sha256sum` prints them; CI checks the
# script's files against the same lists.
PINS = Path(__file__).parent / "pins"


@pytest.fixture(scope="module")
def small_eval(tmp_path_factory):
    """Four shape classes, two rotations each, indexed."""
    root = tmp_path_factory.mktemp("eval-root")
    entries = []
    for name, img in benchmark_shapes()[:4]:
        save_pgm(img, root / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    base = Manifest(tuple(entries))
    rotated = generate_rotated_dataset(base, root, [0.0, 60.0], root / "rot")
    db = build_index(rotated, root / "rot", ExtractionConfig(), out=root / "db.tsv")
    return root / "rot", rotated, db


class TestPrecisionRecall:
    def test_five_of_six_class_members(self):
        retrieved = [0, 1, 2, 3, 4]
        relevant = {0, 1, 2, 3, 4, 5}
        assert precision(retrieved, relevant) == 1.0
        assert abs(recall(retrieved, relevant) - 5.0 / 6.0) <= 1e-9

    def test_three_of_six_class_members(self):
        retrieved = [0, 1, 2]
        relevant = {0, 1, 2, 3, 4, 5}
        assert precision(retrieved, relevant) == 1.0
        assert recall(retrieved, relevant) == 0.5

    def test_exact_retrieval(self):
        assert precision([1, 2], {1, 2}) == 1.0
        assert recall([1, 2], {1, 2}) == 1.0

    def test_partial_overlap(self):
        assert precision([1, 2, 3, 4], {1, 2, 9}) == 0.5

    def test_disjoint_sets(self):
        assert recall([1, 2], {3, 4}) == 0.0

    def test_empty_retrieved_is_an_error(self):
        with pytest.raises(MetricUndefinedError):
            precision([], {1})

    def test_empty_relevant_is_an_error(self):
        with pytest.raises(MetricUndefinedError):
            recall([1], set())

    def test_precision_monotone_in_overlap_for_fixed_size(self):
        # Exhaustive over retrieved sets of size 4 from a 6-element universe.
        import itertools

        relevant = {0, 1, 2}
        by_overlap: dict[int, set[float]] = {}
        for retrieved in itertools.combinations(range(6), 4):
            overlap = len(set(retrieved) & relevant)
            by_overlap.setdefault(overlap, set()).add(precision(list(retrieved), relevant))
        overlaps = sorted(by_overlap)
        values = [max(by_overlap[o]) for o in overlaps]
        assert all(len(by_overlap[o]) == 1 for o in overlaps)  # depends only on overlap
        assert values == sorted(values)  # and grows with it

    def test_pr_point_bounds(self):
        with pytest.raises(ValueError):
            PRPoint(1.5, 0.0)


class TestGenerateRotatedDataset:
    def test_cardinality_and_labels(self, tmp_path):
        name, img = benchmark_shapes()[0]
        save_pgm(img, tmp_path / "one.pgm")
        manifest = generate_rotated_dataset(
            Manifest((("one.pgm", "cls"),)), tmp_path, [0.0, 60.0], tmp_path / "out"
        )
        assert manifest.entries == (("one_rot0.pgm", "cls"), ("one_rot60.pgm", "cls"))

    def test_zero_angle_reproduces_input(self, tmp_path):
        name, img = benchmark_shapes()[1]
        save_pgm(img, tmp_path / "b.pgm")
        generate_rotated_dataset(Manifest((("b.pgm", "c"),)), tmp_path, [0.0], tmp_path / "out")
        out = load_image(tmp_path / "out" / "b_rot0.pgm")
        assert np.array_equal(out.pixels, img.pixels)

    def test_base_major_ordering(self, tmp_path):
        for name, img in benchmark_shapes()[:2]:
            save_pgm(img, tmp_path / f"{name}.pgm")
        names = [n for n, _ in benchmark_shapes()[:2]]
        manifest = generate_rotated_dataset(
            Manifest(tuple((f"{n}.pgm", n) for n in names)), tmp_path, [0.0, 120.0], tmp_path / "out"
        )
        assert [p for p, _ in manifest.entries] == [
            f"{names[0]}_rot0.pgm",
            f"{names[0]}_rot120.pgm",
            f"{names[1]}_rot0.pgm",
            f"{names[1]}_rot120.pgm",
        ]

    def test_missing_base_image_names_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="gone.pgm"):
            generate_rotated_dataset(Manifest((("gone.pgm", "c"),)), tmp_path, [0.0], tmp_path / "out")

    def test_unreadable_base_image_writes_no_image(self, tmp_path):
        save_pgm(benchmark_shapes()[0][1], tmp_path / "a.pgm")
        (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(RuntimeError, match=r"^base image 'bad.pgm': "):
            generate_rotated_dataset(Manifest((("a.pgm", "c"), ("bad.pgm", "c"))), tmp_path, [0.0, 90.0],
                                     tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paths, angles", [
        (["tri.pgm", "bar.pgm"], [0.0, 10.0, 0.4]),
        (["x/tri.pgm", "y/tri.pgm"], [0.0]),
    ], ids=["rounded-angles", "shared-stem"])
    def test_name_collision_writes_no_image(self, tmp_path, paths, angles):
        for rel_path in paths:
            (tmp_path / rel_path).parent.mkdir(exist_ok=True)
            save_pgm(benchmark_shapes()[0][1], tmp_path / rel_path)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(RuntimeError, match=r"^output name collision: 'tri_rot0.pgm'$"):
            generate_rotated_dataset(Manifest(tuple((p, "c") for p in paths)), tmp_path, angles, out)
        assert list(out.iterdir()) == []

    def test_name_too_long_writes_no_image_and_is_shown_once(self, tmp_path, capsys):
        # 1e300 is finite, so the angle passes; its name has 310 bytes, which no file system takes.
        save_pgm(benchmark_shapes()[0][1], tmp_path / "a.pgm")
        (tmp_path / "base.tsv").write_text("a.pgm\tc\n")
        name = f"a_rot{int(1e300)}.pgm"
        code = run(["gen-rotations", "--manifest", str(tmp_path / "base.tsv"), "--root", str(tmp_path),
                    "--angles", "0,1e300", "--out-dir", str(tmp_path / "out"), "--out-manifest",
                    str(tmp_path / "rot.tsv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"tir gen-rotations: error: output name too long: {shown(name)} is 310 bytes; ")
        assert err.count("a_rot") == 1
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "rot.tsv").exists()

    @pytest.mark.skipif(not hasattr(os, "pathconf"), reason="reads the file system's PC_NAME_MAX")
    @pytest.mark.parametrize("char", ["x", "\u00e9"])
    def test_the_longest_name_that_fits_is_written(self, tmp_path, char):
        # The writer's temporary file is named `.<name>.<16 hex digits>.tmp`, 22 bytes longer than the name.
        longest = os.pathconf(tmp_path, "PC_NAME_MAX") - 22
        stem = char * ((longest - len("_rot0.pgm")) // len(char.encode()))
        stem += "x" * (longest - len(f"{stem}_rot0.pgm".encode()))
        image = benchmark_shapes()[0][1]
        save_pgm(image, tmp_path / f"{stem}.pgm")
        manifest = generate_rotated_dataset(Manifest(((f"{stem}.pgm", "c"),)), tmp_path, [0.0], tmp_path / "out")
        assert len(os.fsencode(manifest.entries[0][0])) == longest
        assert np.array_equal(load_image(tmp_path / "out" / f"{stem}_rot0.pgm").pixels, image.pixels)
        save_pgm(image, tmp_path / f"{stem}x.pgm")
        with pytest.raises(RuntimeError, match=f"^output name too long: .* is {longest + 1} bytes; names of at "
                                               f"most {longest} bytes fit here "):
            generate_rotated_dataset(Manifest(((f"{stem}x.pgm", "c"),)), tmp_path, [0.0], tmp_path / "out2")
        assert not (tmp_path / "out2").exists()

    @pytest.mark.parametrize("pins, angles", [
        ("rotated_paper.sha256", [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]),
        ("rotated_irregular.sha256", [7.0, 23.0, 41.0, 67.0, 113.0, 151.0, 197.0, 229.0, 263.0, 311.0]),
    ], ids=["paper", "irregular"])
    def test_benchmark_rotations_match_their_pinned_bytes(self, tmp_path, pins, angles):
        entries = []
        for name, img in benchmark_shapes():
            save_pgm(img, tmp_path / f"{name}.pgm")
            entries.append((f"{name}.pgm", name))
        manifest = generate_rotated_dataset(Manifest(tuple(entries)), tmp_path, angles, tmp_path / "out")
        want = dict(line.split()[::-1] for line in (PINS / pins).read_text().splitlines())
        got = {path: hashlib.sha256((tmp_path / "out" / path).read_bytes()).hexdigest()
               for path, _ in manifest.entries}
        assert got == want

    def test_empty_angles_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_rotated_dataset(Manifest((("a.pgm", "c"),)), tmp_path, [], tmp_path / "out")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected_before_any_read_or_write(self, tmp_path, bad):
        # The base image does not exist, so reaching the read would raise a RuntimeError naming it.
        with pytest.raises(ValueError, match=rf"^rotation angle must be finite, got {bad!r}$"):
            generate_rotated_dataset(Manifest((("gone.pgm", "c"),)), tmp_path, [0.0, bad], tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_hybrid_retrieval_stays_inside_corner_window(self, small_eval):
        root, manifest, db = small_eval
        report = evaluate(db, db, EvalMode.HYBRID, k=2)
        assert len(report.per_query) == len(manifest.entries)
        # Every query of an indexed image retrieves itself, so recall > 0.
        assert all(r.point.recall > 0 for r in report.per_query)

    def test_self_retrieval_recall_bound(self, small_eval):
        root, manifest, db = small_eval
        report = evaluate(db, db, EvalMode.HYBRID, k=6)
        class_size = 2
        assert all(r.point.recall >= 1.0 / class_size for r in report.per_query)

    def test_hybrid_subset_of_corner_window(self, small_eval):
        root, manifest, db = small_eval
        from tir.index import extract_features

        cfg = ThresholdConfig()
        hybrid = evaluate(db, db, EvalMode.HYBRID, cfg, k=3)
        by_id = {r.record_id: r for r in db.records}
        for result in hybrid.per_query:
            image = load_image(root / result.path)
            count, _ = extract_features(image, db.extraction_config.edge, db.extraction_config.corners)
            window = adaptive_threshold(count, cfg)
            # Re-run the query through the public path and check containment.
            from tir.index import query as run_query

            for match in run_query(db, image, cfg, k=3):
                assert window.contains(by_id[match.record_id].corner_count)

    def test_means_are_arithmetic(self, small_eval):
        root, manifest, db = small_eval
        report = evaluate(db, db, EvalMode.MOMENTS_ONLY, k=2)
        assert report.mean.precision == pytest.approx(
            sum(r.point.precision for r in report.per_query) / len(report.per_query)
        )
        assert report.mean.recall == pytest.approx(
            sum(r.point.recall for r in report.per_query) / len(report.per_query)
        )

    def test_leave_in_retrieves_self_first(self, small_eval):
        root, manifest, db = small_eval
        left_in = evaluate(db, db, EvalMode.MOMENTS_ONLY, k=1)
        assert all(r.point.precision == 1.0 for r in left_in.per_query)

    def test_exclude_self_drops_record_from_relevant_set(self, tmp_path):
        # Singleton classes: removing the query's own record empties the
        # relevant set, so recall must surface as undefined.
        root = tmp_path
        entries = []
        for name, img in benchmark_shapes()[:2]:
            save_pgm(img, root / f"{name}.pgm")
            entries.append((f"{name}.pgm", name))
        manifest = Manifest(tuple(entries))
        db = build_index(manifest, root, ExtractionConfig(), out=root / "db.tsv")
        evaluate(db, db, EvalMode.MOMENTS_ONLY, k=1)  # leave-in is fine
        with pytest.raises(RuntimeError, match="recall is undefined"):
            evaluate(db, db, EvalMode.MOMENTS_ONLY, k=1, exclude_self=True)

    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_exclude_self_drops_every_record_of_a_duplicated_path(self, tmp_path, mode):
        # The database holds tri_wide.pgm twice: both copies leave the
        # candidates and the relevant set alike, so tri_tall is the one
        # relevant record left, and it is retrieved.
        shapes = dict(benchmark_shapes())
        for name in ("tri_wide", "tri_tall", "kite"):
            save_pgm(shapes[name], tmp_path / f"{name}.pgm")
        entries = (("tri_wide.pgm", "a"), ("tri_tall.pgm", "a"), ("tri_wide.pgm", "a"), ("kite.pgm", "b"))
        db = build_index(Manifest(entries), tmp_path, ExtractionConfig())
        queries = build_index(Manifest(entries[:1]), tmp_path, db.extraction_config)
        report = evaluate(db, queries, mode, k=6, exclude_self=True)
        assert report.mean == PRPoint(0.5, 1.0)

    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_exclude_self_compares_exact_path_strings(self, tmp_path, mode):
        # 'tri_wide.pgm\x00' is another path: it stays a candidate and stays
        # relevant, though a numpy str array would compare it equal.
        shapes = dict(benchmark_shapes())
        for name in ("tri_wide", "kite"):
            save_pgm(shapes[name], tmp_path / f"{name}.pgm")
        entries = (("tri_wide.pgm", "a"), ("tri_wide.pgm", "a"), ("kite.pgm", "b"))
        built = build_index(Manifest(entries), tmp_path, ExtractionConfig())
        records = list(built.records)
        records[1] = dataclasses.replace(records[1], path="tri_wide.pgm\x00")
        db = FeatureDatabase(records, built.extraction_config)
        queries = build_index(Manifest(entries[:1]), tmp_path, db.extraction_config)
        report = evaluate(db, queries, mode, k=2, exclude_self=True)
        assert report.mean == PRPoint(0.5, 1.0)

    def test_failing_query_names_path(self, small_eval):
        root, _, db = small_eval
        bad = Manifest((("absent.pgm", "x"),))
        with pytest.raises(RuntimeError, match="absent.pgm"):
            evaluate(db, build_index(bad, root, db.extraction_config), EvalMode.HYBRID, k=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_scoring_failure_in_query_order_is_named(self, tmp_path, jobs):
        # Singleton classes with exclude_self: every query's relevant set is
        # empty, so every query fails in scoring and the first is named,
        # however many workers extracted the queries.
        entries = []
        for name, img in benchmark_shapes()[:3]:
            save_pgm(img, tmp_path / f"{name}.pgm")
            entries.append((f"{name}.pgm", name))
        db = build_index(Manifest(tuple(entries)), tmp_path, ExtractionConfig())
        queries = build_index(Manifest(tuple(entries[1:] + entries[:1])), tmp_path, db.extraction_config,
                              jobs=jobs)
        with pytest.raises(RuntimeError, match=f"^query {entries[1][0]!r}: recall is undefined"):
            evaluate(db, queries, EvalMode.MOMENTS_ONLY, k=1, exclude_self=True)

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_two_jobs_match_one_on_a_fresh_database(self, small_eval, mode, exclude_self):
        root, manifest, db = small_eval
        runs = [
            evaluate(FeatureDatabase(db.records, db.extraction_config),
                     build_index(manifest, root, db.extraction_config, jobs=jobs), mode, k=3,
                     exclude_self=exclude_self)
            for jobs in (2, 1)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_loaded_database_builds_no_records(self, small_eval, records_made, mode, exclude_self, jobs):
        # The loaded database is its own query set; its report equals that of
        # queries extracted by build_index on `jobs` workers.
        root, manifest, db = small_eval
        loaded = load_index(root.parent / "db.tsv")
        report = evaluate(loaded, loaded, mode, k=3, exclude_self=exclude_self)
        assert records_made == []
        queries = build_index(manifest, root, db.extraction_config, jobs=jobs)
        assert report == evaluate(db, queries, mode, k=3, exclude_self=exclude_self)

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_empty_query_set_is_rejected(self, small_eval, tmp_path, mode, loaded):
        _, _, db = small_eval
        queries = FeatureDatabase((), db.extraction_config)
        if loaded:  # a database file with no records
            save_index(queries, tmp_path / "empty.tsv")
            queries = load_index(tmp_path / "empty.tsv")
        with pytest.raises(ValueError, match="query set is empty"):
            evaluate(db, queries, mode)

    def test_query_set_of_another_config_is_rejected(self, small_eval):
        root, manifest, db = small_eval
        other = ExtractionConfig(edge=EdgeConfig(threshold=40))
        assert other != db.extraction_config
        queries = build_index(Manifest(manifest.entries[:1]), root, other)
        with pytest.raises(ValueError, match="different config"):
            evaluate(db, queries, EvalMode.HYBRID, k=2)

    @pytest.mark.parametrize("block_cells", [None, 1])
    @pytest.mark.parametrize("mode", [EvalMode.CORNER_ONLY, EvalMode.HYBRID])
    def test_empty_window_names_the_first_failing_query(self, small_eval, monkeypatch, mode, block_cells):
        # Queries 1 and 3 have corner counts far past every record's, so their windows are empty; the
        # error names query 1, whether the block is ranked in one chunk or one query at a time.
        _, _, db = small_eval
        if block_cells is not None:
            monkeypatch.setattr("tir.matching.BLOCK_CELLS", block_cells)
        assert adaptive_threshold(100).min_t > db.columns.corner_counts.max()
        records = [dataclasses.replace(r, corner_count=100) if i in (1, 3) else r for i, r in enumerate(db.records)]
        queries = FeatureDatabase(records, db.extraction_config)
        message = f"query {records[1].path!r}: precision is undefined for an empty retrieved list"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            evaluate(db, queries, mode, k=3)
        assert evaluate(db, queries, EvalMode.MOMENTS_ONLY, k=3).mean_survivors == len(db.paths)

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("mode", list(EvalMode))
    def test_k_below_one_is_rejected_before_scoring(self, small_eval, mode, k, exclude_self):
        # One ValueError in every mode, not a per-query RuntimeError from scoring.
        _, _, db = small_eval
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            evaluate(db, db, mode, k=k, exclude_self=exclude_self)


@st.composite
def eval_cases(draw):
    """A database and a query set of random features, and the settings of one evaluation.

    Paths repeat within and across the two sets, some query labels and paths
    are missing from the database, features tie often, and `k` may exceed
    the database's size.
    """
    def feature_set(paths, labels, size):
        ids = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size, unique=True))
        counts = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
        hu = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, -0.25, 2.0]), min_size=7 * size,
                                    max_size=7 * size)), dtype=np.float64).reshape(size, 7)
        columns = FeatureColumns(np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64), hu,
                                 log_magnitude_array(hu))
        return FeatureDatabase._from_columns(
            columns, ExtractionConfig(),
            paths=tuple(draw(st.lists(st.sampled_from(paths), min_size=size, max_size=size))),
            labels=tuple(draw(st.lists(st.sampled_from(labels), min_size=size, max_size=size))))

    n = draw(st.integers(0, 12))
    db = feature_set(["p0", "p1", "p2", "p3"], ["a", "b", "c"], n)
    labels = sorted(set(db.labels)) or ["d"]
    if draw(st.booleans()):
        labels.append("d")  # a class the database does not hold
    queries = feature_set(["p0", "p1", "p2", "p3", "q"], labels, draw(st.integers(1, 8)))
    threshold_cfg = ThresholdConfig(base_threshold=draw(st.sampled_from([2.0, 12.0, 40.0])))
    return (db, queries, draw(st.sampled_from(list(EvalMode))), threshold_cfg, draw(st.integers(1, n + 3)),
            draw(st.booleans()))


class TestScoringOracle:
    @given(eval_cases())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_equals_the_set_based_scoring(self, case):
        db, queries, mode, threshold_cfg, k, exclude_self = case
        outcomes = []
        for scoring in (evaluate, reference.evaluate_by_sets):
            try:
                outcomes.append(scoring(db, queries, mode=mode, threshold_cfg=threshold_cfg, k=k,
                                        exclude_self=exclude_self))
            except RuntimeError as exc:  # the first failing query, named, and why
                outcomes.append((str(exc), type(exc.__cause__)))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], tuple):
            return
        with tempfile.TemporaryDirectory() as tmp:
            csvs = [Path(tmp) / f"{i}.csv" for i in range(2)]
            for report, csv_path in zip(outcomes, csvs):
                emit_pr_csv(report, csv_path)
            assert csvs[0].read_bytes() == csvs[1].read_bytes()


class TestEmitPrCsv:
    def _report(self, db, mode=EvalMode.HYBRID):
        return evaluate(db, db, mode, k=2)

    def test_row_count(self, small_eval, tmp_path):
        root, manifest, db = small_eval
        two = Manifest(manifest.entries[:2])
        report = evaluate(db, build_index(two, root, db.extraction_config), EvalMode.HYBRID, k=2)
        emit_pr_csv(report, tmp_path / "pr.csv")
        lines = (tmp_path / "pr.csv").read_text().splitlines()
        assert lines[0] == "query_path,class,mode,precision,recall"
        assert len(lines) == 1 + 2 + 1  # header + queries + mean

    def test_formatting_contract(self, small_eval, tmp_path):
        root, manifest, db = small_eval
        queries = build_index(Manifest(manifest.entries[:1]), root, db.extraction_config)
        report = evaluate(db, queries, EvalMode.HYBRID, k=2)
        emit_pr_csv(report, tmp_path / "pr.csv")
        text = (tmp_path / "pr.csv").read_text()
        assert "1.000000" in text
        assert "\r" not in text
        assert text.endswith("\n")

    def test_mean_row_format(self, small_eval, tmp_path):
        root, manifest, db = small_eval
        report = self._report(db)
        emit_pr_csv(report, tmp_path / "pr.csv")
        last = (tmp_path / "pr.csv").read_text().splitlines()[-1]
        assert last.startswith("MEAN,,hybrid,")
        assert len(last.split(",")) == 5

    def test_reruns_are_byte_identical(self, small_eval, tmp_path):
        root, manifest, db = small_eval
        report = self._report(db)
        emit_pr_csv(report, tmp_path / "a.csv")
        emit_pr_csv(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_path_with_a_comma_reads_back_as_one_field(self, tmp_path):
        save_pgm(benchmark_shapes()[0][1], tmp_path / "a,b.pgm")
        db = build_index(Manifest((("a,b.pgm", "x"), ("a,b.pgm", "x"))), tmp_path, ExtractionConfig())
        emit_pr_csv(evaluate(db, db, EvalMode.HYBRID, k=2), tmp_path / "pr.csv")
        with open(tmp_path / "pr.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [5] * 4
        assert [row[0] for row in rows[1:3]] == ["a,b.pgm"] * 2

    def test_unencodable_path_leaves_the_old_csv(self, small_eval, tmp_path):
        # A lone surrogate cannot be UTF-8: the error comes before the file is touched.
        _, _, db = small_eval
        report = self._report(db)
        emit_pr_csv(report, tmp_path / "pr.csv")
        before = (tmp_path / "pr.csv").read_bytes()
        bad = dataclasses.replace(report.per_query[1], path="\ud800.pgm")
        with pytest.raises(UnicodeEncodeError):
            emit_pr_csv(dataclasses.replace(report, per_query=(report.per_query[0], bad)), tmp_path / "pr.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["pr.csv"]
        assert (tmp_path / "pr.csv").read_bytes() == before

    def test_empty_report_rejected(self, tmp_path):
        report_cls = type("R", (), {})  # emit only reads attributes
        report = report_cls()
        report.per_query = ()
        report.mode = EvalMode.HYBRID
        report.mean = PRPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            emit_pr_csv(report, tmp_path / "pr.csv")
