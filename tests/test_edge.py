import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from tir.edge import BinaryImage, EdgeConfig, prompt_edge
from tir.imaging import GrayImage

small_pixels = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
)


class TestEdgeConfig:
    @pytest.mark.parametrize("bad", [-1, 256, 1.5, "30"])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError):
            EdgeConfig(threshold=bad)

    def test_default(self):
        assert EdgeConfig().threshold == 30


class TestPromptEdge:
    @pytest.mark.parametrize("t", [0, 30, 255])
    def test_uniform_image_has_no_edges(self, t):
        img = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
        assert not prompt_edge(img, EdgeConfig(threshold=t)).pixels.any()

    def test_plus_pattern_center_is_edge(self):
        # Center 0 with N/S/E/W at 255: exactly four differences exceed T.
        pix = np.zeros((3, 3), dtype=np.uint8)
        pix[0, 1] = pix[2, 1] = pix[1, 0] = pix[1, 2] = 255
        out = prompt_edge(GrayImage(pix), EdgeConfig(threshold=50))
        assert out.pixels[1, 1]
        assert out.pixels.sum() == 1  # borders stay non-edge

    @pytest.mark.parametrize("threshold", [0, 30, 128, 255])
    def test_matches_brute_force_oracle(self, rng, threshold):
        for _ in range(30):
            pix = rng.integers(0, 256, (8, 8), dtype=np.int64)
            out = prompt_edge(GrayImage(pix), EdgeConfig(threshold=threshold))
            assert np.array_equal(out.pixels, reference.prompt_edge(pix, threshold))

    @given(
        pixels=st.one_of(
            small_pixels,
            # few intensities, so many differences land on either side of T
            hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                       elements=st.sampled_from([0, 29, 30, 31, 60, 128, 255])),
        ),
        threshold=st.one_of(st.integers(0, 255), st.sampled_from([0, 29, 30, 31, 98, 127, 128, 225, 255])),
    )
    @settings(max_examples=300, deadline=None)
    @example(pixels=np.array([[0, 255, 0], [255, 0, 255]], dtype=np.uint8), threshold=30)  # 2 rows
    @example(pixels=np.full((5, 2), 200, dtype=np.uint8), threshold=0)  # 2 columns
    @example(pixels=np.array([[0, 255, 0], [255, 0, 255], [0, 255, 0]], dtype=np.uint8), threshold=254)
    def test_equal_to_dense_formulation(self, pixels, threshold):
        out = prompt_edge(GrayImage(pixels), EdgeConfig(threshold=threshold))
        assert out.pixels.tobytes() == reference.prompt_edge_dense(pixels, threshold).tobytes()

    def test_max_threshold_yields_all_false(self, rng):
        pix = rng.integers(0, 256, (10, 10), dtype=np.int64)
        assert not prompt_edge(GrayImage(pix), EdgeConfig(threshold=255)).pixels.any()

    @given(pixels=small_pixels, threshold=st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_dimensions_and_border(self, pixels, threshold):
        out = prompt_edge(GrayImage(pixels), EdgeConfig(threshold=threshold))
        assert out.pixels.shape == pixels.shape
        assert not out.pixels[0, :].any() and not out.pixels[-1, :].any()
        assert not out.pixels[:, 0].any() and not out.pixels[:, -1].any()

    @given(
        pixels=hnp.arrays(np.uint8, (6, 6), elements=st.integers(0, 200)),
        shift=st.integers(0, 55),
        threshold=st.integers(0, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_global_intensity_shift(self, pixels, shift, threshold):
        cfg = EdgeConfig(threshold=threshold)
        base = prompt_edge(GrayImage(pixels), cfg)
        shifted = prompt_edge(GrayImage(pixels.astype(np.int64) + shift), cfg)
        assert np.array_equal(base.pixels, shifted.pixels)

    def test_difference_counts_never_increase_with_threshold(self, rng):
        # Raising T can only lower each pixel's difference count k.
        def counts(pix, t):
            h, w = pix.shape
            out = np.zeros((h - 2, w - 2), dtype=int)
            for y in range(1, h - 1):
                for x in range(1, w - 1):
                    k = 0
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            if (dy, dx) != (0, 0) and abs(int(pix[y, x]) - int(pix[y + dy, x + dx])) > t:
                                k += 1
                    out[y - 1, x - 1] = k

            return out

        pix = rng.integers(0, 256, (9, 9), dtype=np.int64)
        for low, high in ((0, 30), (30, 128), (128, 255)):
            assert (counts(pix, high) <= counts(pix, low)).all()


class TestBinaryImage:
    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            BinaryImage(np.zeros((2, 2), dtype=np.uint8))

    def test_dimensions(self):
        img = BinaryImage(np.zeros((2, 4), dtype=bool))
        assert (img.width, img.height) == (4, 2)
