import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from fixtures import filled_disc, square_scene, square_scene_corners
from tir.corners import CornerConfig, CornerSet, corner_count, corner_metric, corner_peaks, gaussian_kernel
from tir.edge import BinaryImage, EdgeConfig, prompt_edge
from tir.imaging import GrayImage, rotate
from tir.matching import ThresholdConfig
from tir.shapes import benchmark_shapes, filled_polygon

# sha256 over the Harris responses of the 18 benchmark shapes' edge maps, at
# 0 and 60 degrees, in benchmark order: the dense formulation's bits.
BENCHMARK_RESPONSES_SHA256 = "f5e25dc68ec67ac0f19668a2a6e8cc0b15c38b38895a9395c657c8d2b0257987"

# Corner counts of the 18 benchmark shapes at (0, 60) degrees, in benchmark order.
BENCHMARK_COUNTS = {
    128: [(25, 23), (31, 26), (26, 25), (29, 28), (33, 34), (23, 30), (38, 32), (29, 22), (20, 21),
          (30, 30), (20, 20), (26, 30), (40, 37), (34, 36), (23, 29), (41, 39), (34, 30), (25, 25)],
    512: [(112, 94), (140, 102), (118, 85), (119, 126), (141, 157), (87, 124), (171, 138), (117, 101),
          (81, 98), (111, 133), (80, 78), (105, 113), (168, 164), (154, 163), (119, 118), (176, 163),
          (154, 129), (109, 110)],
}

_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)


@st.composite
def response_inputs(draw):
    """A binary or gray image, sparse, dense, all-zero or all-on, and a config."""
    shape = draw(_shapes)
    kind = draw(st.sampled_from(["binary", "gray", "zero", "on"]))
    if kind == "binary":
        image = BinaryImage(draw(hnp.arrays(np.bool_, shape)))
    elif kind == "gray":
        image = GrayImage(draw(hnp.arrays(np.uint8, shape)))
    else:
        image = BinaryImage(np.full(shape, kind == "on"))
    config = CornerConfig(
        kappa=draw(st.floats(0.01, 0.24)),
        window_sigma=draw(st.sampled_from([0.05, 0.3, 1.0, 1.5, 4.0])),
        window_radius=draw(st.integers(1, 3)),
    )
    return image, config


@st.composite
def peak_inputs(draw):
    """A tie-heavy response matrix of small integers and an NMS config."""
    metric = draw(hnp.arrays(np.float64, _shapes, elements=st.integers(-2, 4).map(float)))
    config = CornerConfig(
        peak_rel_threshold=draw(st.sampled_from([0.01, 0.3, 0.5, 0.75, 1.0])),
        nms_radius=draw(st.integers(1, 3)),
    )
    return metric, config


@st.composite
def thin_response_inputs(draw):
    """A binary or gray image in a thin frame (1x1, 1xn, nx1, 2x2 or 3x3), where replicate padding
    repeats one row or column many times, and a config."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (2, 2), (3, 3)]))
    if draw(st.booleans()):
        image = BinaryImage(draw(hnp.arrays(np.bool_, shape)))
    else:
        image = GrayImage(draw(hnp.arrays(np.uint8, shape)))
    config = CornerConfig(
        kappa=draw(st.floats(0.01, 0.24)),
        window_sigma=draw(st.sampled_from([0.05, 0.3, 1.0, 1.5, 4.0])),
        window_radius=draw(st.integers(1, 4)),
    )
    return image, config


@st.composite
def special_peak_inputs(draw):
    """A response matrix holding zeros, -0.0, negatives, +-inf, exact ties and, in about a quarter of
    the cases, one NaN, and an NMS config."""
    shape = draw(_shapes)
    elements = st.one_of(
        st.integers(-2, 4).map(float),  # ties
        st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
        st.floats(-1e300, 1e300),
    )
    metric = draw(hnp.arrays(np.float64, shape, elements=elements))
    if draw(st.integers(0, 3)) == 0:
        metric[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = math.nan
    config = CornerConfig(
        peak_rel_threshold=draw(st.sampled_from([0.01, 0.3, 0.5, 1.0])),
        nms_radius=draw(st.integers(1, 3)),
    )
    return metric, config


class TestCornerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 0.0},
            {"kappa": 0.25},
            {"window_sigma": 0.0},
            {"window_radius": 0},
            {"peak_rel_threshold": 0.0},
            {"peak_rel_threshold": 1.1},
            {"nms_radius": 0},
            # Each of these would be saved in a CFG line that load_index refuses, or gives NaN weights.
            {"window_radius": True},
            {"nms_radius": True},
            {"window_radius": 2**63},
            {"nms_radius": 2**63},
            {"window_sigma": math.inf},
            {"window_sigma": math.nan},
            {"window_sigma": 1e-200},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CornerConfig(**kwargs)

    @pytest.mark.filterwarnings("error")
    def test_accepts_the_edges_of_the_ranges(self):
        CornerConfig(window_radius=2**63 - 1, nms_radius=2**63 - 1)
        # 2 * sigma * sigma is subnormal: off the centre, exp(-inf) = 0, and no overflow warning.
        assert np.isfinite(gaussian_kernel(2, CornerConfig(window_sigma=1e-160).window_sigma)).all()

    def test_real_settings_are_stored_as_floats(self):
        # save_index writes float(value), so an int that no float holds would load back unequal.
        config = CornerConfig(window_sigma=2**53 + 1, peak_rel_threshold=True)
        assert (config.window_sigma, config.peak_rel_threshold) == (2.0**53, 1.0)
        assert type(config.window_sigma) is float and type(config.peak_rel_threshold) is float
        with pytest.raises(ValueError, match="window_sigma must be finite"):
            CornerConfig(window_sigma=10**400)


# Every setting refuses these ints; a window setting (ThresholdConfig) has no upper bound, so only the negative ones.
HUGE_INTS = {"10**5000": 10**5000, "-10**5000": -(10**5000), "10**400": 10**400, "-10**400": -(10**400)}


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, f.name, value, id=f"{f.name}={label}")
    for cls in (EdgeConfig, CornerConfig, ThresholdConfig) for f in fields(cls)
    for label, value in HUGE_INTS.items() if cls is not ThresholdConfig or value < 0
])
def test_a_refused_int_of_any_size_is_named_in_a_short_message(cls, name, value):
    # str() of an int past 4300 digits raises its own ValueError, which would not name the setting.
    digits = 5001 if abs(value) > 10**4000 else 401
    with pytest.raises(ValueError, match=rf"^{name} must .*, got (an|a negative) integer of {digits} digits$"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, kwargs, message", [
    (EdgeConfig, {"threshold": 256}, "threshold must be an integer in [0, 255], got 256"),
    (CornerConfig, {"kappa": 0.3}, "kappa must lie in (0, 0.25), got 0.3"),
    (CornerConfig, {"window_radius": True}, "window_radius must be an integer >= 1, got True"),
    (CornerConfig, {"nms_radius": 2**63}, f"nms_radius must be below 2**63, got {2**63}"),
    (CornerConfig, {"window_sigma": -(10**39)},  # 40 digits, the most shown whole
     f"window_sigma must be finite with finite Gaussian weights, got {-(10**39)}"),
    (ThresholdConfig, {"band_width": "x" * 41}, f"band_width must be an integer >= 1, got {'x' * 20!r}... (41 characters)"),
    (ThresholdConfig, {"multiplier": 1}, "multiplier must exceed 1, got 1"),
], ids=["threshold", "kappa", "window_radius", "nms_radius", "window_sigma", "band_width", "multiplier"])
def test_messages_show_an_ordinary_value_whole(cls, kwargs, message):
    with pytest.raises(ValueError) as refused:
        cls(**kwargs)
    assert str(refused.value) == message


class TestCornerMetric:
    def test_uniform_image_gives_zero_response(self):
        img = GrayImage(np.full((10, 10), 90, dtype=np.uint8))
        assert (corner_metric(img) == 0.0).all()

    def test_single_gradient_direction_is_never_positive(self):
        # Ramp along x, constant along y: rank-one structure tensor.
        pix = (np.tile(np.arange(16), (16, 1)) * 12).clip(0, 255)
        metric = corner_metric(GrayImage(pix.astype(np.int64)))
        assert (metric <= 0.0).all()

    def test_matches_reference_on_square_scene(self, scene):
        cfg = CornerConfig()
        ref = reference.harris_response(scene.pixels, cfg.kappa, cfg.window_sigma, cfg.window_radius)
        got = corner_metric(scene, cfg)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @given(response_inputs())
    @settings(max_examples=300, deadline=None)
    @example((BinaryImage(np.ones((1, 1), dtype=bool)), CornerConfig()))
    @example((GrayImage(np.array([[0, 255, 0, 9]], dtype=np.uint8)), CornerConfig(window_radius=3)))
    @example((BinaryImage(np.eye(5, 1, dtype=bool)), CornerConfig(window_radius=1)))
    @example((  # edges on the top and right borders, weights that underflow to 0.0
        BinaryImage(np.pad(np.ones((2, 3), dtype=bool), ((0, 4), (4, 0)))),
        CornerConfig(window_sigma=0.05, window_radius=3),
    ))
    def test_bitwise_equal_to_dense_formulation(self, case):
        image, cfg = case
        ref = reference.harris_response_dense(
            image.pixels, isinstance(image, BinaryImage), cfg.kappa, cfg.window_sigma, cfg.window_radius
        )
        assert corner_metric(image, cfg).tobytes() == ref.tobytes()

    @given(thin_response_inputs())
    @settings(max_examples=200, deadline=None)
    def test_thin_frames_bitwise_equal_to_dense_formulation(self, case):
        image, cfg = case
        ref = reference.harris_response_dense(
            image.pixels, isinstance(image, BinaryImage), cfg.kappa, cfg.window_sigma, cfg.window_radius
        )
        assert corner_metric(image, cfg).tobytes() == ref.tobytes()

    def test_small_sigma_underflows_window_weights(self):
        # sigma 0.05 at r = 3 leaves only the centre 3x3 of the 7x7 window
        # nonzero, so the oracle test above exercises the zero-weight skip.
        window = gaussian_kernel(3, 0.05)
        assert (window == 0.0).any() and window[3, 3] > 0.0

    def test_benchmark_shape_responses_are_pinned(self):
        digest = hashlib.sha256()
        for _, image in benchmark_shapes():
            for angle in (0.0, 60.0):
                digest.update(corner_metric(prompt_edge(rotate(image, angle))).tobytes())
        assert digest.hexdigest() == BENCHMARK_RESPONSES_SHA256

    def test_binary_input_maps_to_full_range(self, scene):
        edges = BinaryImage(scene.pixels > 0)
        as_gray = GrayImage(np.where(scene.pixels > 0, 255, 0).astype(np.int64))
        assert np.array_equal(corner_metric(edges), corner_metric(as_gray))


class TestCornerPeaks:
    def test_no_positive_response_gives_empty_set(self):
        assert corner_peaks(np.zeros((5, 5))).count == 0
        assert corner_peaks(np.full((5, 5), -1.0)).count == 0

    def test_single_positive_entry(self):
        metric = np.zeros((6, 7))
        metric[3, 4] = 2.5
        peaks = corner_peaks(metric)
        assert peaks.points == ((4, 3),)
        assert peaks.count == 1

    def test_square_scene_yields_four_corner_peaks(self, scene):
        peaks = corner_peaks(corner_metric(scene))
        assert peaks.count == 4
        truth = square_scene_corners()
        for x, y in peaks.points:
            assert min(max(abs(x - gx), abs(y - gy)) for gx, gy in truth) <= 2

    def test_matches_reference_nms(self, scene, rng):
        cfg = CornerConfig()
        for metric in (
            corner_metric(scene, cfg),
            rng.normal(size=(20, 20)),
            np.ones((9, 9)),  # all ties: only the first row-major pixel per window survives
        ):
            got = corner_peaks(metric, cfg)
            assert list(got.points) == reference.harris_peaks(
                np.asarray(metric, dtype=float), cfg.peak_rel_threshold, cfg.nms_radius
            )

    @given(peak_inputs())
    @settings(max_examples=300, deadline=None)
    @example((np.full((4, 5), 3.0), CornerConfig()))  # all equal
    @example((np.full((4, 5), -1.0), CornerConfig()))  # all negative
    @example((np.ones((1, 1)), CornerConfig(peak_rel_threshold=1.0)))
    @example((np.array([[2.0, 2.0, 0.0, 2.0, 1.0, 2.0]]), CornerConfig(nms_radius=1)))  # 1 x N
    @example((np.array([[1.0], [3.0], [3.0], [0.0], [3.0]]), CornerConfig(nms_radius=3)))  # N x 1
    @example((np.array([[1.0, 4.0], [4.0, 2.0]]), CornerConfig(peak_rel_threshold=1.0, nms_radius=3)))
    def test_equal_to_dense_nms(self, case):
        metric, cfg = case
        want = reference.corner_peaks_dense(metric, cfg.peak_rel_threshold, cfg.nms_radius)
        assert corner_peaks(metric, cfg).points == want

    @given(special_peak_inputs())
    @settings(max_examples=300, deadline=None)
    @example((np.array([[-0.0, 0.0], [0.0, -0.0]]), CornerConfig()))
    @example((np.array([[math.inf, math.inf, 1.0]]), CornerConfig(nms_radius=1)))
    @example((np.array([[1.0, math.nan], [2.0, 0.0]]), CornerConfig()))
    @example((np.array([[-math.inf, 3.0], [3.0, -1.0]]), CornerConfig(peak_rel_threshold=1.0)))
    def test_equal_to_dense_nms_on_special_values(self, case):
        metric, cfg = case
        want = reference.corner_peaks_dense(metric, cfg.peak_rel_threshold, cfg.nms_radius)
        assert corner_peaks(metric, cfg).points == want

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_symmetric_shapes_break_ties_as_the_dense_nms_does(self, radius):
        # A mirror-symmetric shape gives exactly equal responses at mirrored pixels, so the tie rule decides
        # which of them survive, whichever offset knocks a candidate out first.
        cfg = CornerConfig(nms_radius=radius)
        shapes = [square_scene(), rotate(square_scene(), 90.0), filled_disc((31.5, 31.5), 20.0, size=64),
                  filled_polygon([(32.0, 4.0), (60.0, 32.0), (32.0, 60.0), (4.0, 32.0)], size=64)]
        for image in shapes:
            metric = corner_metric(prompt_edge(image), cfg)
            positive = metric[metric > 0.0]
            assert len(np.unique(positive)) < len(positive)  # tied
            want = reference.corner_peaks_dense(metric, cfg.peak_rel_threshold, radius)
            assert corner_peaks(metric, cfg).points == want
            assert corner_count(image, EdgeConfig(), cfg) == len(want)

    def test_radius_is_clamped_to_the_image(self, rng):
        metric = rng.integers(-1, 4, (5, 7)).astype(np.float64)
        widest = corner_peaks(metric, CornerConfig(nms_radius=6))
        assert widest.points == reference.corner_peaks_dense(metric, 0.01, 6)
        assert corner_peaks(metric, CornerConfig(nms_radius=10**6)).points == widest.points

    def test_count_invariant_under_mirror_for_tie_free_input(self, rng):
        metric = rng.normal(size=(24, 24))
        base = corner_peaks(metric).count
        assert corner_peaks(metric[:, ::-1]).count == base
        assert corner_peaks(metric[::-1, :]).count == base

    def test_raising_threshold_never_increases_count(self, rng):
        metric = np.abs(rng.normal(size=(30, 30)))
        counts = [
            corner_peaks(metric, CornerConfig(peak_rel_threshold=t)).count
            for t in (0.01, 0.1, 0.5, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            CornerSet(((1, 2), (1, 2)))


class TestCornerCount:
    def test_uniform_image_counts_zero(self):
        img = GrayImage(np.full((16, 16), 200, dtype=np.uint8))
        assert corner_count(img) == 0

    def test_deterministic(self, scene):
        assert corner_count(scene) == corner_count(scene)

    def test_matches_chained_oracles(self, scene):
        edge_cfg, corner_cfg = EdgeConfig(), CornerConfig()
        ref_edges = reference.prompt_edge(scene.pixels, edge_cfg.threshold)
        ref_resp = reference.harris_response(
            np.where(ref_edges, 255, 0), corner_cfg.kappa, corner_cfg.window_sigma, corner_cfg.window_radius
        )
        ref_count = len(
            reference.harris_peaks(ref_resp, corner_cfg.peak_rel_threshold, corner_cfg.nms_radius)
        )
        assert corner_count(scene, edge_cfg, corner_cfg) == ref_count

    @pytest.mark.parametrize("size", sorted(BENCHMARK_COUNTS))
    def test_benchmark_shape_counts_are_pinned(self, size):
        counts = [(corner_count(image), corner_count(rotate(image, 60.0))) for _, image in benchmark_shapes(size=size)]
        assert counts == BENCHMARK_COUNTS[size]

    @given(
        hnp.arrays(np.uint8, _shapes, elements=st.sampled_from([0, 40, 200, 255])),
        st.integers(0, 255),
        st.integers(1, 3),
        st.sampled_from([0.05, 1.0, 1.5]),
        st.sampled_from([0.01, 0.5, 1.0]),
        st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_count_of_the_peaks_of_the_metric(self, pixels, threshold, window_radius, sigma, rel, radius):
        image = GrayImage(pixels)
        edge_cfg = EdgeConfig(threshold=threshold)
        cfg = CornerConfig(window_radius=window_radius, window_sigma=sigma, peak_rel_threshold=rel, nms_radius=radius)
        metric = corner_metric(prompt_edge(image, edge_cfg), cfg)
        assert corner_count(image, edge_cfg, cfg) == corner_peaks(metric, cfg).count

    def test_runs_on_edge_map_not_grayscale(self, scene):
        # The raw scene has 4 corners; its edge map is a different image
        # whose peak count must be reproduced exactly by the composition.
        edges = prompt_edge(scene, EdgeConfig())
        expected = corner_peaks(corner_metric(edges)).count
        assert corner_count(scene) == expected
