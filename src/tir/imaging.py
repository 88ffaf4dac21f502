"""Image buffers, portable graymap/pixmap I/O, grayscale conversion, rotation, and tir's one file writer.

Pixel convention used throughout the package: ``x`` indexes columns (0 at
the left), ``y`` indexes rows (0 at the top), both zero-based. Arrays are
stored row-major as ``(height, width)`` (grayscale) or ``(height, width, 3)``
(RGB) and are frozen after construction so images can be shared freely.
"""

from __future__ import annotations

import math
import os
import re
import stat
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# ITU-R BT.601 luma weights for RGB -> gray.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)

# rotate computes max(1, BAND_PIXELS // width) output rows at a time, so each
# float64 or index temporary of a band is 64 KiB, below glibc's 128 KiB mmap
# threshold: the heap reuses it, and no band faults in fresh pages.
BAND_PIXELS = 1 << 13


class PnmError(ValueError):
    """Malformed or unsupported portable anymap content."""


@dataclass(frozen=True, eq=False)
class _Raster:
    """Read-only pixels of shape (height, width, ...): the base freezes what each subclass's `_checked` returns."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = self._checked(np.asarray(self.pixels))
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _byte_pixels(arr: np.ndarray, ndim: int) -> np.ndarray:
    if arr.ndim != ndim or arr.shape[2:] not in ((), (3,)):
        raise ValueError(f"expected a {ndim}-D pixel grid, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be >= 1, got {arr.shape[1]}x{arr.shape[0]}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    return np.ascontiguousarray(arr, dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class GrayImage(_Raster):
    """8-bit single-channel image; ``pixels`` is read-only uint8 of shape (height, width)."""

    _checked = staticmethod(partial(_byte_pixels, ndim=2))

    @classmethod
    def from_real(cls, values: np.ndarray) -> "GrayImage":
        """The image of real-valued intensities, each rounded half to even and clamped to [0, 255]."""
        return cls(_round_bytes(values, np.empty(np.shape(values), dtype=np.uint8)))


def _round_bytes(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`values` rounded half to even and clamped to [0, 255], written into the uint8 array `out`."""
    return np.clip(np.rint(values), 0, 255, out=out, casting="unsafe")


@dataclass(frozen=True, eq=False)
class RgbImage(_Raster):
    """8-bit three-channel image; ``pixels`` is read-only uint8 of shape (height, width, 3)."""

    _checked = staticmethod(partial(_byte_pixels, ndim=3))


_MAGICS = {b"P2": (GrayImage, False), b"P3": (RgbImage, False), b"P5": (GrayImage, True), b"P6": (RgbImage, True)}

# PNM whitespace (the bytes `bytes.isspace` accepts) and comments ('#' up to the next CR or LF), in header and raster.
_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = rb"#[^\r\n]*"
_IS_SPACE = np.isin(np.arange(256), list(_WHITESPACE))
_GAP = re.compile(b"[" + re.escape(_WHITESPACE) + b"]+|" + _COMMENT)
_FIELD = re.compile(b"[^#" + re.escape(_WHITESPACE) + b"]+")


def _header_ints(data: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, honouring '#' comments."""
    tokens: list[int] = []
    i = start
    while len(tokens) < count:
        # One run or comment per match: a pattern for a whole gap keeps state for every byte of it.
        if gap := _GAP.match(data, i):
            i = gap.end()
            continue
        if not (field := _FIELD.match(data, i)):
            raise PnmError("malformed header: fewer fields than required")
        tok = field[0]
        if not tok.isdigit():
            raise PnmError(f"malformed header: expected an integer, got {tok!r}")
        if len(tok) > 18:  # no file holds that much; int() and str() refuse thousands of digits
            raise PnmError(f"malformed header: integer of {len(tok)} digits (at most 18)")
        tokens.append(int(tok))
        i = field.end()
    return tokens, i


def _ascii_samples(data: bytes, start: int, need: int) -> np.ndarray:
    """The first `need` whitespace-separated decimal samples after `start`.

    Parsed on the byte array, not token by token. A sample above 255 is
    rejected however many digits it has, leading zeros allowed.
    """
    buf = np.frombuffer(re.sub(_COMMENT, b"", data[start:]), dtype=np.uint8)
    in_token = ~_IS_SPACE[buf]
    bounds = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]  # each token is buf[start:end]
    if len(starts) < need:
        raise PnmError(f"truncated pixel data: expected {need} samples, found {len(starts)}")
    starts, ends = starts[:need], ends[:need]
    body = buf[: ends[-1]].astype(np.int16) - ord("0")
    nondigit = in_token[: len(body)] & ((body < 0) | (body > 9))
    if nondigit.any():
        bad = np.searchsorted(starts, nondigit.argmax(), side="right") - 1
        token = bytes(buf[starts[bad] : ends[bad]])
        raise PnmError(f"malformed pixel data: non-numeric sample {token!r}")
    # A sample is at most 255 only if no digit before its last three is
    # nonzero and its last three digits make at most 255.
    nonzero_before = np.concatenate(([0], np.cumsum(body != 0)))
    head = np.maximum(ends - 3, starts)
    values = body[ends - 1].copy()
    for place, scale in ((2, 10), (3, 100)):
        values += np.where(ends - starts >= place, scale * body[ends - place], 0)
    if (nonzero_before[head] > nonzero_before[starts]).any() or values.max(initial=0) > 255:
        raise PnmError("malformed pixel data: sample exceeds maxval 255")
    return values


def load_image(path) -> GrayImage | RgbImage:
    """Load a P2/P3/P5/P6 portable anymap with maxval 255.

    Graymaps produce :class:`GrayImage`, pixmaps :class:`RgbImage`. Raises
    :class:`PnmError` for malformed content and ``OSError`` for unreadable files.
    """
    return decode_image(Path(path).read_bytes())


def decode_image(data: bytes) -> GrayImage | RgbImage:
    """The image held by the bytes of a P2/P3/P5/P6 file, as `load_image` reads it."""
    magic = data[:2]
    if magic not in _MAGICS:
        raise PnmError(f"malformed header: unsupported magic {magic!r}")
    cls, binary = _MAGICS[magic]
    (width, height, maxval), pos = _header_ints(data, 2, 3)
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions: {width}x{height} (both must be >= 1)")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255 is accepted)")
    shape = (height, width) if cls is GrayImage else (height, width, 3)
    need = math.prod(shape)
    if binary:
        # Exactly one whitespace byte separates the header from the raster.
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PnmError("malformed header: missing raster separator")
        raster = data[pos + 1 :]
        if len(raster) < need:
            raise PnmError(f"truncated pixel data: expected {need} bytes, found {len(raster)}")
        flat = np.frombuffer(raster[:need], dtype=np.uint8)
    else:
        flat = _ascii_samples(data, pos, need).astype(np.uint8)
    return cls(flat.reshape(shape))


def _tmp_name(name: str) -> str:
    """The name of the new file that `_write_bytes` writes beside `name`, 22 ASCII characters longer."""
    return f".{name}.{os.urandom(8).hex()}.tmp"


def _write_bytes(path, data: bytes) -> None:
    """Write `data` to a new file beside `path` and rename it over `path`.

    Readers see the old file or the new one, never a partial write; a failed
    write leaves the old file as it was and removes the new one. The new
    file takes the permission bits of the file it replaces; a file that did
    not exist gets the default mode (0o666 less the umask).
    """
    path = Path(path)
    tmp = path.with_name(_tmp_name(path.name))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except OSError:  # no file there (or none that can be read), so nothing to keep; the write reports the rest
        mode = None
    try:
        with open(tmp, "xb") as out:
            out.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary P5 graymap with maxval 255, replacing the file whole. Round-trips exactly through load_image."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    _write_bytes(path, header + image.pixels.tobytes())


def rgb_to_gray(image: RgbImage) -> GrayImage:
    """Luma conversion: gray = round(0.299 r + 0.587 g + 0.114 b), clamped to [0, 255]."""
    rgb = image.pixels.astype(np.float64)
    wr, wg, wb = GRAY_WEIGHTS
    gray = wr * rgb[:, :, 0] + wg * rgb[:, :, 1] + wb * rgb[:, :, 2]
    return GrayImage.from_real(gray)


def rotate(image: GrayImage, angle: float) -> GrayImage:
    """Rotate counterclockwise by `angle` degrees about the image center.

    Inverse mapping with bilinear interpolation; source samples outside the
    input contribute intensity 0; output keeps the input dimensions and is
    rounded and clamped to [0, 255]. The center is ((width-1)/2, (height-1)/2),
    so multiples of 90 degrees on square images land exactly on the grid.
    An angle that is not finite is a ValueError.

    The output is made BAND_PIXELS pixels (at least one row) at a time, from
    one copy of the input padded by 2 zero pixels on every side. Besides the
    input and the output, that copy is the only whole-frame array, so the
    call holds 2 bytes per pixel plus the temporaries of one band (under
    1 MB up to a width of BAND_PIXELS). floor(sx) and floor(sy) are clipped
    to [-2, w] and [-2, h]: a clipped coordinate and its neighbour both lie
    outside the input and land on padding zeros. The four bilinear weights
    are >= 0 and are added in corner order, so a padding sample adds +0.0,
    exactly what masking each out-of-image sample to 0.0 adds: the bytes
    are those of the masked whole-frame formulation.
    """
    _check_angle(angle)
    h, w = image.pixels.shape
    theta = math.radians(angle)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    pw = w + 4
    padded = np.zeros((h + 4, pw), dtype=np.uint8)
    padded[2:-2, 2:-2] = image.pixels
    flat = padded.reshape(-1)
    out = np.empty((h, w), dtype=np.uint8)
    rows = max(1, BAND_PIXELS // w)
    for top in range(0, h, rows):
        dy = np.arange(top, min(top + rows, h), dtype=np.float64)[:, None] - cy
        # Screen coordinates have y pointing down, so visual CCW uses this matrix.
        sx = c * dx - s * dy + cx
        sy = s * dx + c * dy + cy
        x0, y0 = np.floor(sx), np.floor(sy)
        fx, fy = sx - x0, sy - y0
        gx, gy = 1.0 - fx, 1.0 - fy
        np.clip(x0, -2, w, out=x0)
        np.clip(y0, -2, h, out=y0)
        # The flat index of the (x0, y0) corner, then of (x0+1, y0), (x0, y0+1) and (x0+1, y0+1) in turn.
        base = (y0 * pw + x0 + (2 * pw + 2)).astype(np.intp)
        acc = gx * gy * flat.take(base)
        base += 1
        acc += fx * gy * flat.take(base)
        base += pw - 1
        acc += gx * fy * flat.take(base)
        base += 1
        acc += fx * fy * flat.take(base)
        _round_bytes(acc, out[top : top + len(dy)])
    return GrayImage(out)


def _check_angle(angle: float) -> None:
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
