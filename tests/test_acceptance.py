"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9a is marked as a strict expected failure; see
the analysis printed by the test and the notes in its docstring.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import reference
from tir.cli import run
from tir.corners import CornerConfig, corner_metric, corner_peaks
from tir.edge import EdgeConfig, prompt_edge
from tir.evaluation import EvalMode, evaluate, generate_rotated_dataset, precision, recall
from tir.imaging import GrayImage, load_image, rotate, save_pgm
from tir.index import ExtractionConfig, Manifest, build_index, extract_features, query, write_manifest
from tir.matching import ThresholdConfig, adaptive_threshold
from tir.moments import central_moment, hu_moments, normalized_central_moment, raw_moment
from tir.shapes import (
    benchmark_shapes,
    filled_disc,
    filled_triangle,
    solid_square,
    square_scene,
    square_scene_corners,
)

ANGLES = [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """The criterion-9 experiment: 18 shapes x 6 angles, indexed and evaluated."""
    started = time.perf_counter()
    root = tmp_path_factory.mktemp("experiment")
    entries = []
    for name, img in benchmark_shapes():
        save_pgm(img, root / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    base = Manifest(tuple(entries))
    rotated = generate_rotated_dataset(base, root, ANGLES, root / "rot")
    db = build_index(rotated, root / "rot", ExtractionConfig(), out=root / "db.tsv")
    reports = {
        mode: evaluate(db, rotated, root / "rot", mode, ThresholdConfig(), k=6)
        for mode in (EvalMode.HYBRID, EvalMode.CORNER_ONLY, EvalMode.MOMENTS_ONLY)
    }
    self_query_top = []
    for record in db.records:
        matches = query(db, load_image(root / "rot" / record.path), ThresholdConfig(), k=6)
        self_query_top.append((record, matches))
    elapsed = time.perf_counter() - started
    return {
        "root": root,
        "manifest": rotated,
        "db": db,
        "reports": reports,
        "self_queries": self_query_top,
        "elapsed": elapsed,
    }


def test_c01_moment_oracle_equivalence(rng):
    """Criterion 1: all four moment operations match the nested-loop oracle."""
    with criterion("C01 moment oracle equivalence (50 images, <=1e-12, <=5s)"):
        started = time.perf_counter()
        orders = [(p, q) for p in range(4) for q in range(4)]
        hu_scale = lambda w: max(1.0, abs(w))
        for _ in range(50):
            h = int(rng.integers(8, 17))
            w = int(rng.integers(8, 17))
            pix = rng.integers(0, 256, (h, w), dtype=np.int64)
            if not pix.any():
                pix[0, 0] = 1
            img = GrayImage(pix)
            m00 = reference.raw_moment(pix, 0, 0)
            for p, q in orders:
                got = raw_moment(img, p, q)
                want = reference.raw_moment(pix, p, q)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                got = central_moment(img, p, q)
                want = reference.central_moment(pix, p, q)
                scale = reference.central_abs_sum(pix, p, q)
                assert abs(got - want) <= 1e-12 * max(1.0, scale)
                if p + q >= 2:
                    got = normalized_central_moment(img, p, q)
                    want = reference.normalized_moment(pix, p, q)
                    assert abs(got - want) <= 1e-12 * max(1.0, scale / m00 ** ((p + q) / 2.0 + 1.0))
            for got, want in zip(hu_moments(img), reference.hu(pix)):
                assert abs(got - want) <= 1e-12 * hu_scale(want)
        elapsed = time.perf_counter() - started
        assert elapsed <= 5.0, f"oracle equivalence took {elapsed:.2f}s"


def test_c02_square_phi1_analytic():
    """Criterion 2: 64x64 unit-intensity square has phi1 within 2% of 1/6."""
    with criterion("C02 square phi1 vs continuous 1/6 (2%)"):
        phi1 = hu_moments(solid_square(64, 1))[0]
        assert abs(phi1 - 1.0 / 6.0) <= 0.02 * (1.0 / 6.0)


def test_c03_rotation_invariance():
    """Criterion 3: disc and triangle keep phi1..phi6 within 5% across the six angles."""
    with criterion("C03 rotation invariance disc+triangle (5%, <=10s)"):
        started = time.perf_counter()
        for image in (filled_disc((63.5, 63.5), 50), filled_triangle()):
            base = hu_moments(image).as_array()
            for angle in ANGLES[1:]:
                turned = hu_moments(rotate(image, angle)).as_array()
                # atol covers invariants that vanish identically on the
                # symmetric disc (phi2..phi6 are exactly 0 there and a pure
                # relative bound is undefined at 0); it is far below every
                # nonzero invariant of either fixture.
                assert np.allclose(turned[:6], base[:6], rtol=0.05, atol=1e-30)
        elapsed = time.perf_counter() - started
        assert elapsed <= 10.0, f"rotation invariance took {elapsed:.2f}s"


def test_c04_translation_invariance_is_exact(rng):
    """Criterion 4: Hu vectors are bitwise identical under a (+3, +2) shift."""
    with criterion("C04 exact translation invariance (32x32, +3/+2)"):
        fixtures = [square_scene(32, 12).pixels, filled_disc((15.5, 14.0), 9, size=32).pixels]
        for _ in range(30):
            pix = rng.integers(0, 256, (32, 32), dtype=np.int64)
            pix[rng.integers(0, 32), rng.integers(0, 32)] |= 1
            fixtures.append(pix)
        for pix in fixtures:
            moved = np.zeros((pix.shape[0] + 2, pix.shape[1] + 3), dtype=pix.dtype)
            moved[2:, 3:] = pix
            assert hu_moments(GrayImage(pix)).phi == hu_moments(GrayImage(moved)).phi


def test_c05_edge_rule_oracle(rng):
    """Criterion 5: the edge rule matches brute force exactly; uniform images are edge-free."""
    with criterion("C05 edge rule vs brute force (100 images, exact)"):
        for threshold in (0, 30, 128, 255):
            cfg = EdgeConfig(threshold=threshold)
            for _ in range(25):
                pix = rng.integers(0, 256, (8, 8), dtype=np.int64)
                got = prompt_edge(GrayImage(pix), cfg).pixels
                assert np.array_equal(got, reference.prompt_edge(pix, threshold))
        uniform = GrayImage(np.full((8, 8), 123, dtype=np.uint8))
        for threshold in (0, 30, 128, 255):
            assert not prompt_edge(uniform, EdgeConfig(threshold=threshold)).pixels.any()


def test_c06_corner_fixture():
    """Criterion 6: the square fixture yields exactly 4 corners near ground truth."""
    with criterion("C06 white-square fixture: 4 corners within 2px, matches reference"):
        scene = square_scene()
        cfg = CornerConfig()
        peaks = corner_peaks(corner_metric(scene, cfg), cfg)
        assert peaks.count == 4
        truth = square_scene_corners()
        for x, y in peaks.points:
            assert min(max(abs(x - gx), abs(y - gy)) for gx, gy in truth) <= 2
        ref_response = reference.harris_response(
            scene.pixels, cfg.kappa, cfg.window_sigma, cfg.window_radius
        )
        ref_points = reference.harris_peaks(ref_response, cfg.peak_rel_threshold, cfg.nms_radius)
        assert list(peaks.points) == ref_points


def test_c07_threshold_windows():
    """Criterion 7: hand-traced windows reproduce exactly; width is monotone in count."""
    with criterion("C07 adaptive threshold windows + monotone width"):
        cfg = ThresholdConfig(band_width=20, base_threshold=5.0, multiplier=1.5)
        for count, expected in ((10, (5.0, 15.0)), (25, (17.5, 32.5)), (0, (0.0, 5.0))):
            window = adaptive_threshold(count, cfg)
            assert (window.min_t, window.max_t) == expected
        widths = [
            adaptive_threshold(c, cfg).max_t - adaptive_threshold(c, cfg).min_t
            for c in range(0, 501)
        ]
        assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_c08_precision_recall_formulas():
    """Criterion 8: the attainable precision/recall pairs reproduce."""
    with criterion("C08 precision/recall reference pairs"):
        relevant = set(range(6))
        assert precision(list(range(5)), relevant) == 1.0
        assert abs(recall(list(range(5)), relevant) - 5.0 / 6.0) <= 1e-9
        assert precision(list(range(3)), relevant) == 1.0
        assert recall(list(range(3)), relevant) == 0.5


def test_c09_dataset_protocol(experiment):
    """Criterion 9 preamble: 18 classes x 6 rotations = 108 indexed images."""
    with criterion("C09 dataset protocol (18 classes x 6 angles = 108)"):
        manifest = experiment["manifest"]
        db = experiment["db"]
        assert len(manifest.entries) == 108
        classes = {label for _, label in manifest.entries}
        assert len(classes) == 18
        for label in classes:
            assert sum(1 for _, cls in manifest.entries if cls == label) == 6
        assert len(db.records) == 108


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Structural protocol degeneracy: the six-angle set pairs every image "
        "with its 180-degree complement, which is an exact point-mirror raster "
        "(the 180-degree inverse map lands on integer pixels). Hu invariants "
        "are exactly mirror-invariant, so each pair carries bitwise-identical "
        "feature vectors, and the mandated distance-then-record_id tie-break "
        "ranks the earlier twin of each pair first. The later twin of every "
        "pair (54 of 108 queries) therefore cannot place its own record at "
        "rank 1 under any correct implementation."
    ),
)
def test_c09a_self_retrieval_rank1(experiment):
    """Criterion 9a, literal form: every query ranks its own record first."""
    failures = []
    for record, matches in experiment["self_queries"]:
        if not matches or matches[0].record_id != record.record_id:
            failures.append(record.path)
    print(f"ACCEPTANCE C09a literal self-retrieval rank-1: FAIL ({len(failures)}/108 queries, "
          "all of them 180-degree twins; expected, see xfail reason and the decisions notes)")
    assert not failures, f"{len(failures)} queries did not rank their own record first"


def test_c09a_self_retrieval_up_to_feature_ties(experiment):
    """Criterion 9a, attainable core: rank 1 is a distance-0 feature twin and the
    query's own record is always retrieved at distance 0; queries with unique
    feature vectors rank their own record first."""
    with criterion("C09a self-retrieval up to exact feature ties"):
        db = experiment["db"]
        hu_count: dict[tuple, int] = {}
        for record in db.records:
            hu_count[record.hu.phi] = hu_count.get(record.hu.phi, 0) + 1
        by_id = {r.record_id: r for r in db.records}
        for record, matches in experiment["self_queries"]:
            assert matches, f"{record.path}: empty result"
            top = matches[0]
            assert top.moment_distance == 0.0
            assert by_id[top.record_id].hu.phi == record.hu.phi
            assert by_id[top.record_id].class_label == record.class_label
            retrieved = {m.record_id: m for m in matches}
            assert record.record_id in retrieved
            assert retrieved[record.record_id].moment_distance == 0.0
            if hu_count[record.hu.phi] == 1:
                assert top.record_id == record.record_id


def test_c09b_hybrid_precision_dominates(experiment):
    """Criterion 9b: mean hybrid precision >= both single-feature baselines."""
    with criterion("C09b hybrid precision >= corner-only and moments-only"):
        reports = experiment["reports"]
        hybrid = reports[EvalMode.HYBRID].mean.precision
        corner = reports[EvalMode.CORNER_ONLY].mean.precision
        moments = reports[EvalMode.MOMENTS_ONLY].mean.precision
        print(f"    mean precision: hybrid={hybrid:.4f} corner={corner:.4f} moments={moments:.4f}")
        assert hybrid >= corner
        assert hybrid >= moments
        assert hybrid > min(corner, moments)


def test_c09c_hybrid_recall(experiment):
    """Criterion 9c: mean hybrid recall >= 0.5."""
    with criterion("C09c hybrid recall >= 0.5"):
        hybrid = experiment["reports"][EvalMode.HYBRID].mean.recall
        print(f"    mean hybrid recall: {hybrid:.4f}")
        assert hybrid >= 0.5


def test_c09_runtime(experiment):
    """Criterion 9 runtime bound: the whole experiment within 120 s."""
    with criterion("C09 experiment runtime <= 120s"):
        print(f"    elapsed: {experiment['elapsed']:.1f}s")
        assert experiment["elapsed"] <= 120.0


def test_c10_byte_determinism(tmp_path):
    """Criterion 10: repeated index and eval runs produce byte-identical files."""
    with criterion("C10 byte-identical index and eval reruns"):
        root = tmp_path
        entries = []
        for name, img in benchmark_shapes()[:6]:
            save_pgm(img, root / f"{name}.pgm")
            entries.append((f"{name}.pgm", name))
        write_manifest(Manifest(tuple(entries)), root / "base.tsv")
        assert run([
            "gen-rotations", "--manifest", str(root / "base.tsv"), "--root", str(root),
            "--angles", "0,120", "--out-dir", str(root / "rot"),
            "--out-manifest", str(root / "rot.tsv"),
        ]) == 0
        index_args = ["index", "--manifest", str(root / "rot.tsv"), "--root", str(root / "rot")]
        assert run(index_args + ["--out", str(root / "db1.tsv")]) == 0
        assert run(index_args + ["--out", str(root / "db2.tsv")]) == 0
        assert (root / "db1.tsv").read_bytes() == (root / "db2.tsv").read_bytes()
        eval_args = [
            "eval", "--db", str(root / "db1.tsv"), "--manifest", str(root / "rot.tsv"),
            "--root", str(root / "rot"), "--mode", "hybrid", "--top", "2",
        ]
        assert run(eval_args + ["--out", str(root / "pr1.csv")]) == 0
        assert run(eval_args + ["--out", str(root / "pr2.csv")]) == 0
        assert (root / "pr1.csv").read_bytes() == (root / "pr2.csv").read_bytes()
