import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mutation
import reference
from tir.imaging import GrayImage, PnmError, RgbImage, load_image, rgb_to_gray, rotate, save_pgm

gray_pixels = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16)
)


class TestGrayImage:
    def test_dimensions(self):
        img = GrayImage(np.zeros((3, 5), dtype=np.uint8))
        assert (img.width, img.height) == (5, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 300]]))

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2), dtype=np.float64))

    def test_pixels_read_only(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1


def _pnm_bytes(spec) -> bytes:
    """A valid anymap of the given magic and size; its samples come from `raw`."""
    magic, width, height, raw = spec
    samples = raw[: width * height * (3 if magic in (b"P3", b"P6") else 1)]
    header = magic + b"\n# c\n%d %d\n255\n" % (width, height)
    return header + (samples if magic in (b"P5", b"P6") else b" ".join(b"%d" % v for v in samples))


PNM_PIECES = [b"0", b"7", b"255", b"256", b"-1", b"+", b" ", b"\n", b"\r", b"\t", b"#", b"# c\n", b"P5", b"P3", b"x",
              b"\xff", b"\x00", b"99999999", b"9" * 5000]


class TestLoadImage:
    def test_binary_graymap(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(f)
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_ascii_graymap(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2 1 1 255 7")
        img = load_image(f)
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[7]]

    def test_binary_pixmap(self, tmp_path):
        f = tmp_path / "a.ppm"
        f.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = load_image(f)
        assert isinstance(img, RgbImage)
        assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]

    def test_ascii_pixmap(self, tmp_path):
        f = tmp_path / "a.ppm"
        f.write_bytes(b"P3\n1 1\n255\n10 20 30\n")
        img = load_image(f)
        assert isinstance(img, RgbImage)
        assert img.pixels.tolist() == [[[10, 20, 30]]]

    def test_header_comments(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n# made by hand\n2 1 # trailing\n255\n" + bytes([9, 8]))
        assert load_image(f).pixels.tolist() == [[9, 8]]

    def test_zero_width_is_dimension_error(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5 0 4 255 ")
        with pytest.raises(PnmError, match="dimensions"):
            load_image(f)

    def test_unknown_magic(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(PnmError, match="magic"):
            load_image(f)

    def test_maxval_rejected(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n1 1\n254\n\x00")
        with pytest.raises(PnmError, match="maxval"):
            load_image(f)

    def test_truncated_binary(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(PnmError, match="truncated"):
            load_image(f)

    def test_truncated_ascii(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2\n2 2\n255\n1 2 3")
        with pytest.raises(PnmError, match="truncated"):
            load_image(f)

    def test_ascii_sample_over_maxval(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2\n1 1\n255\n300")
        with pytest.raises(PnmError, match="maxval"):
            load_image(f)

    @pytest.mark.parametrize(
        "sample", [b"256", b"0256", b"1000", b"9223372036854775808", b"99999999999999999999999"]
    )
    def test_any_ascii_sample_over_maxval_rejected(self, tmp_path, sample):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2\n2 1\n255\n" + sample + b" 0\n")
        with pytest.raises(PnmError, match="maxval"):
            load_image(f)

    def test_ascii_leading_zeros_and_comments(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2\n3 1\n255\n0007 # seven\r000\t00000000000000000000255 junk after")
        assert load_image(f).pixels.tolist() == [[7, 0, 255]]

    def test_ascii_non_numeric_sample_named(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P2\n3 1\n255\n1 -2 3")
        with pytest.raises(PnmError, match="non-numeric sample b'-2'"):
            load_image(f)

    @given(
        tokens=st.lists(
            st.one_of(
                st.integers(0, 300).map(lambda v: str(v).encode()),
                st.text("0123456789", min_size=1, max_size=25).map(str.encode),
                st.sampled_from([b"x", b"-1", b"+1", b"1e2", b"\xff", b"#c\n", b"#", b"12#3\r"]),
            ),
            max_size=12,
        ),
        separators=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"  "]), min_size=13, max_size=13),
        need=st.integers(1, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_ascii_raster_matches_token_parser(self, tmp_path_factory, tokens, separators, need):
        raster = b"".join(sep + tok for sep, tok in zip(separators, tokens))
        f = tmp_path_factory.mktemp("pnm") / "a.pgm"
        f.write_bytes(b"P2\n" + f"{need} 1".encode() + b"\n255" + raster)
        expected = reference.pnm_ascii_samples(raster, need)
        if isinstance(expected, str):
            with pytest.raises(PnmError, match=expected):
                load_image(f)
        else:
            assert load_image(f).pixels.ravel().tolist() == expected

    @given(
        st.tuples(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]), st.integers(1, 3), st.integers(1, 3), st.binary(
            min_size=27, max_size=27)).map(_pnm_bytes),
        mutation.edits(PNM_PIECES),
    )
    @example(b"P5\n1 1\n255\n\x00", [(3, 0, b"9" * 5000)])  # more header digits than int() converts
    @example(b"P5\n1 1\n255\n\x00", [(3, 0, b"9" * 4000), (4005, 0, b"9" * 4000)])  # a size str() cannot print
    @settings(max_examples=300, deadline=None)
    def test_any_mutated_anymap_loads_or_fails_as_a_pnm_error(self, tmp_path_factory, data, edits):
        f = tmp_path_factory.mktemp("pnm") / "a.pnm"
        f.write_bytes(mutation.mutate(data, edits))
        try:
            image = load_image(f)
        except PnmError:
            return
        assert isinstance(image, (GrayImage, RgbImage))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.pgm")


class TestSavePgm:
    def test_round_trip_single_pixel(self, tmp_path):
        img = GrayImage(np.array([[42]], dtype=np.uint8))
        save_pgm(img, tmp_path / "x.pgm")
        assert load_image(tmp_path / "x.pgm").pixels.tolist() == [[42]]

    @given(pixels=gray_pixels)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_identity(self, pixels, tmp_path_factory):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        img = GrayImage(pixels)
        save_pgm(img, path)
        assert np.array_equal(load_image(path).pixels, img.pixels)

    def test_unwritable_path(self, tmp_path):
        img = GrayImage(np.array([[1]], dtype=np.uint8))
        with pytest.raises(OSError):
            save_pgm(img, tmp_path / "missing-dir" / "x.pgm")


class TestRgbToGray:
    @pytest.mark.parametrize(
        "rgb,expected",
        [((255, 255, 255), 255), ((0, 0, 0), 0), ((255, 0, 0), 76)],
    )
    def test_known_values(self, rgb, expected):
        img = RgbImage(np.array([[rgb]], dtype=np.uint8))
        assert rgb_to_gray(img).pixels[0, 0] == expected

    def test_equal_channels_pass_through_exactly(self):
        vals = np.arange(256, dtype=np.uint8)
        img = RgbImage(np.stack([vals, vals, vals], axis=-1).reshape(16, 16, 3))
        assert np.array_equal(rgb_to_gray(img).pixels.reshape(-1), vals)

    def test_dimensions_preserved(self, rng):
        img = RgbImage(rng.integers(0, 256, (5, 9, 3), dtype=np.int64))
        gray = rgb_to_gray(img)
        assert (gray.width, gray.height) == (9, 5)


class TestRotate:
    def test_zero_angle_is_identity(self, rng):
        img = GrayImage(rng.integers(0, 256, (13, 17), dtype=np.int64))
        assert np.array_equal(rotate(img, 0).pixels, img.pixels)

    def test_full_turn_within_one_level(self, rng):
        img = GrayImage(rng.integers(0, 256, (3, 3), dtype=np.int64))
        delta = np.abs(rotate(img, 360).pixels.astype(int) - img.pixels.astype(int))
        assert delta.max() <= 1

    def test_symmetric_cross_unchanged_by_quarter_turn(self):
        cross = np.zeros((9, 9), dtype=np.uint8)
        cross[4, :] = 200
        cross[:, 4] = 200
        rotated = rotate(GrayImage(cross), 90)
        assert np.array_equal(rotated.pixels, cross)

    @pytest.mark.parametrize("size", [15, 16])
    def test_quarter_turn_matches_index_oracle(self, rng, size):
        # 90 degrees CCW on a square image is an exact transpose/reverse.
        img = GrayImage(rng.integers(0, 256, (size, size), dtype=np.int64))
        assert np.array_equal(rotate(img, 90).pixels, np.rot90(img.pixels))

    def test_output_keeps_dimensions(self, rng):
        img = GrayImage(rng.integers(0, 256, (7, 12), dtype=np.int64))
        out = rotate(img, 37.0)
        assert out.pixels.shape == (7, 12)

    def test_out_of_bounds_fills_black(self):
        img = GrayImage(np.full((8, 8), 255, dtype=np.uint8))
        out = rotate(img, 45.0)
        assert out.pixels[0, 0] == 0

    @pytest.mark.parametrize("angle", [33.0, 50.0, 121.0])
    def test_round_trip_on_smooth_content(self, angle):
        # +-2 holds only for locally smooth images; bilinear resampling is
        # lossy at hard edges, so the fixture is a wide Gaussian blob.
        ys, xs = np.mgrid[0:64, 0:64]
        blob = np.rint(255 * np.exp(-((xs - 30.0) ** 2 + (ys - 34.0) ** 2) / 128.0))
        img = GrayImage(blob.astype(np.int64))
        back = rotate(rotate(img, angle), -angle)
        support = (xs - 31.5) ** 2 + (ys - 31.5) ** 2 <= 29.5**2
        delta = np.abs(back.pixels.astype(int) - img.pixels.astype(int))
        assert delta[support].max() <= 2
