import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from tir.imaging import GrayImage, rotate
from tir.moments import (
    DegenerateImageError,
    HuVector,
    _integer_raw_moments,
    central_moment,
    hu_moments,
    normalized_central_moment,
    raw_moment,
)
from tir.shapes import benchmark_shapes, filled_disc, filled_triangle, solid_square

nonzero_pixels = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12),
).filter(lambda a: a.any())


# Images for the comparisons with the earlier moment path: any uint8 image
# with sides 1 to 40, all-zero ones included.
small_pixels = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40))


def wide_rows(rows: int, width: int) -> np.ndarray:
    """A white first row and, for two rows, a second of every gray level in turn.

    Widths from 19504 on take the Python-integer row partials.
    """
    pix = np.full((rows, width), 255, dtype=np.uint8)
    pix[1:] = np.arange(width) % 256
    return pix


WIDE_EXAMPLES = [wide_rows(rows, width) for rows in (1, 2) for width in (19503, 19504, 20000)]

# sha256 over the Hu vectors (float64 bytes) of the 18 benchmark shapes at 0
# and 60 degrees, in benchmark order: the earlier moment path's bits.
BENCHMARK_HU_SHA256 = {
    128: "e327a984b21cda1a8ba1a9e4d373dcd315d1be51583bae20c18112514bd106df",
    512: "f7d1d7a0ccae6514dbd9f9b2725365c60752497a051886fc6dcae5001384a341",
}


def with_examples(*pixel_arrays):
    """Add each array as a hypothesis @example for the `pixels` argument."""

    def decorate(test):
        for pixels in pixel_arrays:
            test = example(pixels=pixels)(test)
        return test

    return decorate


def shifted(pixels: np.ndarray, dx: int, dy: int) -> np.ndarray:
    h, w = pixels.shape
    out = np.zeros((h + dy, w + dx), dtype=pixels.dtype)
    out[dy:, dx:] = pixels
    return out


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


class TestRawMoment:
    def test_m00_is_intensity_sum(self):
        img = GrayImage(np.ones((4, 4), dtype=np.uint8))
        assert raw_moment(img, 0, 0) == 16.0

    def test_zero_column_index_annihilates(self):
        img = GrayImage(np.array([[9]], dtype=np.uint8))
        assert raw_moment(img, 1, 0) == 0.0

    def test_matches_nested_loop_oracle(self, rng):
        for _ in range(10):
            pix = rng.integers(0, 256, (8, 8), dtype=np.int64)
            img = GrayImage(pix)
            for p in range(4):
                for q in range(4):
                    got = raw_moment(img, p, q)
                    want = reference.raw_moment(pix, p, q)
                    assert rel_close(got, want, 1e-12) or got == want == 0.0

    @pytest.mark.parametrize("p,q", [(-1, 0), (0, -1), (4, 0), (0, 4), (1.5, 0)])
    def test_rejects_bad_orders(self, p, q):
        img = GrayImage(np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            raw_moment(img, p, q)


    @pytest.mark.parametrize("width", [19503, 19504, 20000])
    def test_wide_rows_stay_exact(self, rng, width):
        # 255 * sum_x x^3 first reaches 2^63 at width 19504, past which int64
        # row partials would wrap: a white 1 x 20000 row once gave m30 < 0.
        pix = np.stack([np.full(width, 255), rng.integers(0, 256, width)]).astype(np.uint8)
        raw = _integer_raw_moments(pix)
        for (p, q), value in raw.items():
            assert value == reference.integer_raw_moment(pix, p, q), (p, q)
        if width == 20000:
            assert _integer_raw_moments(pix[:1])[(3, 0)] == 10198980025500000000


class TestCentralMoment:
    def test_first_order_vanishes_exactly(self, rng):
        img = GrayImage(rng.integers(0, 256, (9, 7), dtype=np.int64))
        assert central_moment(img, 1, 0) == 0.0
        assert central_moment(img, 0, 1) == 0.0

    def test_zeroth_equals_raw(self, rng):
        img = GrayImage(rng.integers(1, 256, (5, 5), dtype=np.int64))
        assert central_moment(img, 0, 0) == raw_moment(img, 0, 0)

    def test_translation_invariance_is_exact(self, rng):
        pix = rng.integers(0, 256, (8, 8), dtype=np.int64)
        moved = shifted(pix, 3, 2)
        for p in range(4):
            for q in range(4):
                if p + q <= 3:
                    assert central_moment(GrayImage(pix), p, q) == central_moment(GrayImage(moved), p, q)

    def test_matches_nested_loop_oracle(self, rng):
        for _ in range(10):
            pix = rng.integers(0, 256, (8, 8), dtype=np.int64)
            if not pix.any():
                continue
            img = GrayImage(pix)
            for p in range(4):
                for q in range(4):
                    got = central_moment(img, p, q)
                    want = reference.central_moment(pix, p, q)
                    # mu can vanish by cancellation; the term sum is its error scale.
                    scale = reference.central_abs_sum(pix, p, q)
                    assert abs(got - want) <= 1e-12 * max(1.0, scale)

    def test_degenerate_image_raises(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(DegenerateImageError):
            central_moment(img, 2, 0)


class TestNormalizedCentralMoment:
    def test_square_approaches_continuous_limit(self):
        # Uniform unit-intensity square of side 64: eta20 -> 1/12.
        img = solid_square(64, 1)
        assert rel_close(normalized_central_moment(img, 2, 0), 1.0 / 12.0, 0.02)

    def test_intensity_scaling_relation(self, rng):
        # eta(c * f) = eta(f) * c^(1 - gamma); exact algebra, c = 2.
        pix = rng.integers(0, 128, (10, 10), dtype=np.int64)
        pix[0, 0] = max(pix[0, 0], 1)
        one = GrayImage(pix)
        two = GrayImage(2 * pix)
        for p, q in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
            gamma = (p + q) / 2.0 + 1.0
            want = normalized_central_moment(one, p, q) * 2.0 ** (1.0 - gamma)
            got = normalized_central_moment(two, p, q)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)

    def test_spatial_scale_invariance(self):
        # Nearest-neighbour 2x upscale keeps eta within 5%.
        blob = filled_disc((31.5, 30.0), 22, size=64)
        big = GrayImage(np.repeat(np.repeat(blob.pixels, 2, axis=0), 2, axis=1))
        for p, q in ((2, 0), (0, 2), (3, 0), (0, 3)):
            a = normalized_central_moment(blob, p, q)
            b = normalized_central_moment(big, p, q)
            assert abs(b - a) <= 0.05 * max(abs(a), 1e-12)

    def test_requires_second_order(self):
        img = GrayImage(np.ones((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            normalized_central_moment(img, 1, 0)

    def test_matches_nested_loop_oracle(self, rng):
        pix = rng.integers(0, 256, (9, 9), dtype=np.int64)
        img = GrayImage(pix)
        m00 = reference.raw_moment(pix, 0, 0)
        for p, q in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
            got = normalized_central_moment(img, p, q)
            want = reference.normalized_moment(pix, p, q)
            scale = reference.central_abs_sum(pix, p, q) / m00 ** ((p + q) / 2.0 + 1.0)
            assert abs(got - want) <= 1e-12 * max(1.0, scale)


class TestAgainstTablePath:
    """The one exact path against the earlier table path in tests/reference.py, bit for bit."""

    @given(pixels=small_pixels)
    @with_examples(*WIDE_EXAMPLES)
    @settings(max_examples=150, deadline=None)
    def test_hu_bits_equal(self, pixels):
        image = GrayImage(pixels)
        if not pixels.any():
            with pytest.raises(DegenerateImageError):
                hu_moments(image)
            return
        assert hu_moments(image).phi == reference.hu_moments_from_table(image).phi

    @given(pixels=small_pixels)
    @with_examples(*WIDE_EXAMPLES)
    @settings(max_examples=60, deadline=None)
    def test_every_moment_equals_the_table(self, pixels):
        image = GrayImage(pixels)
        orders = [(p, q) for p in range(4) for q in range(4)]
        if not pixels.any():
            assert all(raw_moment(image, p, q) == 0.0 for p, q in orders)
            with pytest.raises(DegenerateImageError):
                central_moment(image, 2, 0)
            return
        table = reference.moment_table(image)
        for p, q in orders:
            assert raw_moment(image, p, q) == table.m[(p, q)], (p, q)
            assert central_moment(image, p, q) == table.mu[(p, q)], (p, q)
            if p + q >= 2:
                assert normalized_central_moment(image, p, q) == table.eta[(p, q)], (p, q)

    @pytest.mark.parametrize("size", [128, 512])
    def test_benchmark_shape_hu_vectors_are_pinned(self, size):
        digest = hashlib.sha256()
        for _, image in benchmark_shapes(size=size):
            for angle in (0.0, 60.0):
                digest.update(hu_moments(rotate(image, angle)).as_array().tobytes())
        assert digest.hexdigest() == BENCHMARK_HU_SHA256[size]


class TestHuMoments:
    def test_square_phi1_near_continuous_sixth(self):
        hu = hu_moments(solid_square(64, 1))
        assert rel_close(hu[0], 1.0 / 6.0, 0.02)

    @given(pixels=nonzero_pixels, dx=st.integers(0, 5), dy=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_translation_leaves_hu_bitwise_identical(self, pixels, dx, dy):
        base = hu_moments(GrayImage(pixels))
        moved = hu_moments(GrayImage(shifted(pixels, dx, dy)))
        assert base.phi == moved.phi

    def test_matches_nested_loop_oracle(self, rng):
        for _ in range(5):
            pix = rng.integers(0, 256, (10, 10), dtype=np.int64)
            if not pix.any():
                continue
            got = hu_moments(GrayImage(pix)).phi
            want = reference.hu(pix)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    def test_disc_rotation_invariance(self):
        # phi2..phi7 of a centred disc vanish identically; the raster keeps
        # them at exactly zero, so only a vanishing floor is allowed.
        disc = filled_disc((63.5, 63.5), 50)
        base = hu_moments(disc).as_array()
        for angle in (60, 120, 180, 240, 300):
            turned = hu_moments(rotate(disc, angle)).as_array()
            assert np.allclose(turned[:6], base[:6], rtol=0.05, atol=1e-30)

    def test_triangle_rotation_invariance(self):
        tri = filled_triangle()
        base = hu_moments(tri).as_array()
        for angle in (60, 120, 180, 240, 300):
            turned = hu_moments(rotate(tri, angle)).as_array()
            assert np.allclose(turned[:6], base[:6], rtol=0.05, atol=1e-30)

    def test_mirror_negates_phi7_and_keeps_the_rest(self):
        tri = filled_triangle()
        flipped = GrayImage(tri.pixels[:, ::-1])
        a = hu_moments(tri).as_array()
        b = hu_moments(flipped).as_array()
        assert np.allclose(b[:6], a[:6], rtol=1e-9, atol=0.0)
        assert abs(b[6] + a[6]) <= 1e-6 * abs(a[6])

    def test_degenerate_image_raises(self):
        with pytest.raises(DegenerateImageError):
            hu_moments(GrayImage(np.zeros((8, 8), dtype=np.uint8)))


class TestHuVector:
    def test_requires_seven_finite_values(self):
        with pytest.raises(ValueError):
            HuVector((1.0, 2.0))
        with pytest.raises(ValueError):
            HuVector((0.0,) * 6 + (float("nan"),))

    def test_sequence_protocol(self):
        v = HuVector(tuple(float(i) for i in range(7)))
        assert list(v) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert v[3] == 3.0
        assert v.as_array().shape == (7,)
