"""Image buffers, portable graymap/pixmap I/O, grayscale conversion, rotation.

Pixel convention used throughout the package: ``x`` indexes columns (0 at
the left), ``y`` indexes rows (0 at the top), both zero-based. Arrays are
stored row-major as ``(height, width)`` (grayscale) or ``(height, width, 3)``
(RGB) and are frozen after construction so images can be shared freely.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ITU-R BT.601 luma weights for RGB -> gray.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)


class PnmError(ValueError):
    """Malformed or unsupported portable anymap content."""


def _frozen_pixels(pixels, channels: int) -> np.ndarray:
    arr = np.asarray(pixels)
    want = 2 if channels == 1 else 3
    if arr.ndim != want or (channels == 3 and arr.shape[2] != 3):
        raise ValueError(f"expected a {want}-D pixel grid, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be >= 1, got {arr.shape[1]}x{arr.shape[0]}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("pixel values must lie in [0, 255]")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit single-channel image; ``pixels`` is read-only uint8 of shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_pixels(self.pixels, 1))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class RgbImage:
    """8-bit three-channel image; ``pixels`` is read-only uint8 of shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_pixels(self.pixels, 3))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


_MAGICS = {b"P2": ("gray", False), b"P3": ("rgb", False), b"P5": ("gray", True), b"P6": ("rgb", True)}


def _header_ints(data: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, honouring '#' comments."""
    tokens: list[int] = []
    i, n = start, len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
            j += 1
        if j == i:
            raise PnmError("malformed header: fewer fields than required")
        tok = data[i:j]
        if not tok.isdigit():
            raise PnmError(f"malformed header: expected an integer, got {tok!r}")
        if len(tok) > 18:  # no file holds that much; int() and str() refuse thousands of digits
            raise PnmError(f"malformed header: integer of {len(tok)} digits (at most 18)")
        tokens.append(int(tok))
        i = j
    return tokens, i


_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c")] = True


def _ascii_samples(data: bytes, start: int, need: int) -> np.ndarray:
    """The first `need` whitespace-separated decimal samples after `start`.

    Parsed on the byte array, not token by token. A sample above 255 is
    rejected however many digits it has, leading zeros allowed.
    """
    # '#' comments are tolerated in the raster section as well.
    buf = np.frombuffer(re.sub(rb"#[^\r\n]*", b"", data[start:]), dtype=np.uint8)
    in_token = ~_SPACE[buf]
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
    kind, binary = _MAGICS[magic]
    (width, height, maxval), pos = _header_ints(data, 2, 3)
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions: {width}x{height} (both must be >= 1)")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255 is accepted)")
    channels = 1 if kind == "gray" else 3
    need = width * height * channels
    if binary:
        # Exactly one whitespace byte separates the header from the raster.
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PnmError("malformed header: missing raster separator")
        raster = data[pos + 1 :]
        if len(raster) < need:
            raise PnmError(f"truncated pixel data: expected {need} bytes, found {len(raster)}")
        flat = np.frombuffer(raster[:need], dtype=np.uint8)
    else:
        flat = _ascii_samples(data, pos, need).astype(np.uint8)
    if kind == "gray":
        return GrayImage(flat.reshape(height, width))
    return RgbImage(flat.reshape(height, width, 3))


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary P5 graymap with maxval 255. Round-trips exactly through load_image."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def rgb_to_gray(image: RgbImage) -> GrayImage:
    """Luma conversion: gray = round(0.299 r + 0.587 g + 0.114 b), clamped to [0, 255]."""
    rgb = image.pixels.astype(np.float64)
    wr, wg, wb = GRAY_WEIGHTS
    gray = wr * rgb[:, :, 0] + wg * rgb[:, :, 1] + wb * rgb[:, :, 2]
    return GrayImage(np.clip(np.rint(gray), 0, 255).astype(np.uint8))


def rotate(image: GrayImage, angle: float) -> GrayImage:
    """Rotate counterclockwise by `angle` degrees about the image center.

    Inverse mapping with bilinear interpolation; source samples outside the
    input contribute intensity 0; output keeps the input dimensions and is
    rounded and clamped to [0, 255]. The center is ((width-1)/2, (height-1)/2),
    so multiples of 90 degrees on square images land exactly on the grid.
    """
    h, w = image.pixels.shape
    theta = math.radians(angle)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    # Screen coordinates have y pointing down, so visual CCW uses this matrix.
    sx = c * dx - s * dy + cx
    sy = s * dx + c * dy + cy
    out = _bilinear_black(image.pixels, sx, sy)
    return GrayImage(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def _bilinear_black(pix: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    h, w = pix.shape
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    values = pix.astype(np.float64)
    acc = np.zeros(sx.shape, dtype=np.float64)
    corners = (
        (x0, y0, (1.0 - fx) * (1.0 - fy)),
        (x0 + 1, y0, fx * (1.0 - fy)),
        (x0, y0 + 1, (1.0 - fx) * fy),
        (x0 + 1, y0 + 1, fx * fy),
    )
    for ix, iy, weight in corners:
        inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        sample = values[np.clip(iy, 0, h - 1), np.clip(ix, 0, w - 1)]
        acc += weight * np.where(inside, sample, 0.0)
    return acc
