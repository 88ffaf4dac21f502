import math
import os
import stat
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mutation
import reference
import tir
from tir import imaging
from tir.edge import BinaryImage
from tir.imaging import (
    GrayImage, PnmError, RgbImage, _header_ints, decode_image, load_image, rgb_to_gray, rotate, save_pgm,
)
from tir.shapes import benchmark_shapes

gray_pixels = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16)
)

RASTERS = [GrayImage, RgbImage, BinaryImage]


def _grid(cls, height: int, width: int, value=0, dtype=None) -> np.ndarray:
    """A `height` x `width` pixel grid of `cls`'s shape, filled with `value`."""
    shape = (height, width, 3) if cls is RgbImage else (height, width)
    return np.full(shape, value, dtype=dtype or (bool if cls is BinaryImage else np.uint8))


class TestRasterTypes:
    @pytest.mark.parametrize("cls", RASTERS)
    def test_dimensions(self, cls):
        img = cls(_grid(cls, 3, 5))
        assert (img.width, img.height) == (5, 3)

    @pytest.mark.parametrize("cls", RASTERS)
    @pytest.mark.parametrize("height, width", [(0, 4), (4, 0)])
    def test_rejects_empty(self, cls, height, width):
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            cls(_grid(cls, height, width))

    @pytest.mark.parametrize("cls", [GrayImage, RgbImage])
    @pytest.mark.parametrize("value", [-1, 300])
    def test_rejects_out_of_range(self, cls, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 255\]"):
            cls(_grid(cls, 1, 2, value, np.int64))

    @pytest.mark.parametrize("cls", RASTERS)
    def test_rejects_floats(self, cls):
        with pytest.raises(ValueError):
            cls(_grid(cls, 2, 2, dtype=np.float64))

    @pytest.mark.parametrize("cls, pixels", [
        (GrayImage, np.zeros((2, 2, 3), dtype=np.uint8)),
        (RgbImage, np.zeros((2, 2), dtype=np.uint8)),
        (RgbImage, np.zeros((2, 2, 4), dtype=np.uint8)),
        (BinaryImage, np.zeros((2, 2, 1), dtype=bool)),
        (BinaryImage, np.zeros((2, 2), dtype=np.uint8)),
    ])
    def test_rejects_a_grid_of_another_kind(self, cls, pixels):
        with pytest.raises(ValueError, match="grid"):
            cls(pixels)

    @pytest.mark.parametrize("cls", RASTERS)
    def test_pixels_read_only(self, cls):
        img = cls(_grid(cls, 2, 2))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1
        with pytest.raises(AttributeError):
            img.pixels = _grid(cls, 2, 2)

    def test_raster_types_are_siblings(self):
        for cls in RASTERS:
            assert [other for other in RASTERS if issubclass(cls, other)] == [cls]
            assert getattr(tir, cls.__name__) is cls
        shared = set.intersection(*(set(cls.__mro__[1:]) for cls in RASTERS)) - {object}
        assert not shared & {v for v in vars(tir).values() if isinstance(v, type)}  # none is exported

    def test_real_intensities_round_half_to_even_and_clamp(self):
        img = GrayImage.from_real(np.array([[-3.0, 0.5, 1.5, 2.5, 254.6, 255.5, 1e300]]))
        assert img.pixels.tolist() == [[0, 0, 2, 2, 255, 255, 255]]


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

    @given(
        pieces=st.lists(
            st.one_of(
                st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]), min_size=1, max_size=3)
                .map(b"".join),
                st.tuples(st.binary(max_size=6), st.sampled_from([b"\n", b"\r", b""]))
                .map(lambda c: b"#" + c[0].replace(b"\n", b"").replace(b"\r", b"") + c[1]),
                st.text("0123456789", min_size=1, max_size=25).map(str.encode),
                st.sampled_from([b"x", b"-1", b"+1", b"1e2", b"12a", b"\xff", b"\x00", "\u0663".encode()]),
            ),
            max_size=10,
        ),
        count=st.integers(1, 4),
    )
    @example(pieces=[b"1", b"#", b"2", b"\r", b"3"], count=3)
    @example(pieces=[b"9" * 19], count=1)
    @settings(max_examples=500, deadline=None)
    def test_header_fields_match_a_byte_class_tokenizer(self, pieces, count):
        data = b"P5" + b"".join(pieces)
        expected = reference.pnm_header_ints(data, 2, count)
        if isinstance(expected, str):
            with pytest.raises(PnmError) as exc:
                _header_ints(data, 2, count)
            assert str(exc.value) == expected
        else:
            assert _header_ints(data, 2, count) == expected

    def test_long_header_gap_decodes_in_bounded_memory(self):
        # 2*10^5 bytes of whitespace runs and comments between the magic and the width.
        unit = b" \t" * 20 + b"\n# a comment\r" + b"\x0b\x0c\r\n" + b"#\n"
        data = b"P5" + unit * (200_000 // len(unit)) + b"1 1\n255\n\x07"
        tracemalloc.start()
        try:
            image = decode_image(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image.pixels.tolist() == [[7]]
        assert peak < 1 << 20

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

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o604], ids=oct)
    def test_rewrite_keeps_the_permission_bits(self, tmp_path, mode):
        path = tmp_path / "x.pgm"
        save_pgm(GrayImage(np.array([[1]], dtype=np.uint8)), path)
        path.chmod(mode)
        save_pgm(GrayImage(np.array([[2]], dtype=np.uint8)), path)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert load_image(path).pixels.tolist() == [[2]]

    def test_new_file_gets_the_umask_default(self, tmp_path):
        old = os.umask(0o027)
        try:
            save_pgm(GrayImage(np.array([[1]], dtype=np.uint8)), tmp_path / "x.pgm")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "x.pgm").stat().st_mode) == 0o640

    def test_a_long_name_is_written_and_leaves_no_temporary_file(self, tmp_path):
        # The temporary file's name has a fixed length, so it fits wherever a 240-byte name does.
        name = "x" * 236 + ".pgm"
        save_pgm(GrayImage(np.array([[7]], dtype=np.uint8)), tmp_path / name)
        assert load_image(tmp_path / name).pixels.tolist() == [[7]]
        assert [path.name for path in tmp_path.iterdir()] == [name]


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


PAPER_ANGLES = (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
IRREGULAR_ANGLES = (7.0, 23.0, 41.0, 67.0, 113.0, 151.0, 197.0, 229.0, 263.0, 311.0)

# Exact quarter turns, a step of 1e-12 either side of zero, ordinary reals, and finite reals far above one turn.
rotation_angles = st.one_of(
    st.sampled_from([0.0, 90.0, 180.0, 270.0, -90.0, 360.0, 1e-12, -1e-12]),
    st.floats(-720.0, 720.0),
    st.floats(1e6, 1e15) | st.floats(-1e15, -1e6),
)


def _same_bytes_as_oracle(image: GrayImage, angle: float) -> bool:
    return rotate(image, angle).pixels.tobytes() == reference.rotate_dense(image, angle).pixels.tobytes()


class TestRotate:
    @given(
        pixels=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)),
        angle=rotation_angles,
        band=st.sampled_from([1, 2, 7, 40, imaging.BAND_PIXELS]),
    )
    @example(pixels=np.full((1, 1), 255, dtype=np.uint8), angle=45.0, band=imaging.BAND_PIXELS)
    @example(pixels=np.arange(40, dtype=np.uint8).reshape(1, 40), angle=90.0, band=imaging.BAND_PIXELS)
    @example(pixels=np.arange(40, dtype=np.uint8).reshape(40, 1), angle=-1e-12, band=imaging.BAND_PIXELS)
    @example(pixels=np.arange(40, dtype=np.uint8).reshape(40, 1), angle=3e6 + 0.5, band=7)
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_to_dense_oracle(self, pixels, angle, band):
        # `band` pixels per band: at 1 and 2 every row is its own band whatever the width.
        with mock.patch.object(imaging, "BAND_PIXELS", band):
            assert _same_bytes_as_oracle(GrayImage(pixels), angle)

    @pytest.mark.parametrize("height, width", [
        # Around a band boundary in height (max(1, BAND_PIXELS // 40) rows a band) ...
        (imaging.BAND_PIXELS // 40 - 1, 40), (imaging.BAND_PIXELS // 40, 40), (imaging.BAND_PIXELS // 40 + 1, 40),
        (2 * (imaging.BAND_PIXELS // 40) + 1, 40),
        # ... and in width, where a band shrinks to one row.
        (3, imaging.BAND_PIXELS - 1), (3, imaging.BAND_PIXELS), (3, imaging.BAND_PIXELS + 1),
        (1, imaging.BAND_PIXELS + 1), (imaging.BAND_PIXELS + 1, 1),
    ])
    @pytest.mark.parametrize("angle", [0.0, 90.0, -33.7, 1e-12, 2.5e6 + 0.3])
    def test_band_boundaries_equal_to_dense_oracle(self, rng, height, width, angle):
        image = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
        assert _same_bytes_as_oracle(image, angle)

    @pytest.mark.parametrize("angles", [PAPER_ANGLES, IRREGULAR_ANGLES], ids=["paper", "irregular"])
    def test_benchmark_shapes_equal_to_dense_oracle(self, angles):
        bad = [(name, angle) for name, image in benchmark_shapes() for angle in angles
               if not _same_bytes_as_oracle(image, angle)]
        assert bad == []

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_a_value_error_naming_it(self, angle):
        image = GrayImage(np.full((4, 5), 9, dtype=np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^rotation angle must be finite, got {angle!r}$"):
                rotate(image, angle)

    def test_peak_memory_per_pixel_is_bounded(self, rng):
        # One padded copy of the input and the output are 1 byte per pixel each; every band temporary is
        # of a fixed size. A whole-frame float64 formulation holds about 160 bytes per pixel.
        n = 1024
        image = GrayImage(rng.integers(0, 256, (n, n), dtype=np.uint8))
        tracemalloc.start()
        try:
            rotate(image, 33.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n + (1 << 20)

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
