"""Independent reference implementations used as test oracles.

Everything here is deliberately written as straightforward per-pixel Python
loops over plain arrays, separate from the production code paths, so the two
routes only agree if both are right. The `*_dense` functions are the
exception: they are the earlier whole-image numpy formulations, kept so that
tests can require the faster production code to give the same bits; so are
`moment_table` and `hu_moments_from_table`, the earlier exact moment path,
`load_index_per_line`, the earlier loader that validated one record per
line, and `rotate_dense` with `_bilinear_black`, the earlier whole-frame
rotation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tir.index import (
    FORMAT_TAG,
    FORMAT_VERSION,
    FeatureDatabase,
    FeatureRecord,
    IndexFormatError,
    _parse_cfg_line,
)
from tir.imaging import GrayImage
from tir.moments import MAX_ORDER, DegenerateImageError, HuVector

# ---------------------------------------------------------------------------
# Moments


def raw_moment(pix, p: int, q: int) -> float:
    total = 0.0
    for y, row in enumerate(pix):
        for x, value in enumerate(row):
            total += (x**p) * (y**q) * float(value)
    return total


def centroid(pix) -> tuple[float, float]:
    m00 = raw_moment(pix, 0, 0)
    return raw_moment(pix, 1, 0) / m00, raw_moment(pix, 0, 1) / m00


def central_moment(pix, p: int, q: int) -> float:
    xbar, ybar = centroid(pix)
    total = 0.0
    for y, row in enumerate(pix):
        for x, value in enumerate(row):
            total += ((x - xbar) ** p) * ((y - ybar) ** q) * float(value)
    return total


def central_abs_sum(pix, p: int, q: int) -> float:
    """Sum of absolute central-moment terms: the natural error scale of mu_pq."""
    xbar, ybar = centroid(pix)
    total = 0.0
    for y, row in enumerate(pix):
        for x, value in enumerate(row):
            total += (abs(x - xbar) ** p) * (abs(y - ybar) ** q) * float(value)
    return total


def normalized_moment(pix, p: int, q: int) -> float:
    gamma = (p + q) / 2.0 + 1.0
    return central_moment(pix, p, q) / raw_moment(pix, 0, 0) ** gamma


def hu(pix) -> tuple[float, ...]:
    n = {(p, q): normalized_moment(pix, p, q) for p in range(4) for q in range(4) if 2 <= p + q <= 3}
    s = n[(3, 0)] + n[(1, 2)]
    t = n[(2, 1)] + n[(0, 3)]
    return (
        n[(2, 0)] + n[(0, 2)],
        (n[(2, 0)] - n[(0, 2)]) ** 2 + 4 * n[(1, 1)] ** 2,
        (n[(3, 0)] - 3 * n[(1, 2)]) ** 2 + (3 * n[(2, 1)] - n[(0, 3)]) ** 2,
        s**2 + t**2,
        (n[(3, 0)] - 3 * n[(1, 2)]) * s * (s**2 - 3 * t**2)
        + (3 * n[(2, 1)] - n[(0, 3)]) * t * (3 * s**2 - t**2),
        (n[(2, 0)] - n[(0, 2)]) * (s**2 - t**2) + 4 * n[(1, 1)] * s * t,
        (3 * n[(2, 1)] - n[(0, 3)]) * s * (s**2 - 3 * t**2)
        - (n[(3, 0)] - 3 * n[(1, 2)]) * t * (3 * s**2 - t**2),
    )


# The earlier exact moment path: four int64 row-partial matmuls, a Python
# y accumulation and every moment up to order 3 in a table. The production
# code must give the same bits.


@dataclass(frozen=True)
class MomentTable:
    """All moments of one image up to order 3 in each index.

    `m` and `mu` map (p, q) with p, q in {0..3} to raw and central moments;
    `eta` covers the pairs with p + q >= 2. mu[(1, 0)] and mu[(0, 1)] are
    exactly zero by construction.
    """

    m: dict[tuple[int, int], float]
    mu: dict[tuple[int, int], float]
    eta: dict[tuple[int, int], float]
    xbar: float
    ybar: float


def integer_raw_moments_by_rows(pix: np.ndarray) -> dict[tuple[int, int], int]:
    """Exact raw moments m_pq for p, q in {0..MAX_ORDER} as Python integers."""
    h, w = pix.shape
    f = pix.astype(np.int64)
    xs = np.arange(w, dtype=np.int64)
    # The row partials sum_x x^p f(x, y) are at most 255 * sum_x x^3 =
    # 255 * (w (w - 1) / 2)^2, which reaches 2^63 from w = 19504 on; there
    # int64 would wrap silently, so wider rows take exact Python integers.
    # The y accumulation always runs in Python integers.
    if 255 * (w * (w - 1) // 2) ** 2 >= 2**63:
        f, xs = f.astype(object), xs.astype(object)
    moments: dict[tuple[int, int], int] = {}
    for p in range(MAX_ORDER + 1):
        row = [int(v) for v in f @ (xs**p)]
        for q in range(MAX_ORDER + 1):
            moments[(p, q)] = sum(v * y**q for y, v in enumerate(row))
    return moments


def _central_numerator(m: dict[tuple[int, int], int], p: int, q: int) -> int:
    """Exact integer N_pq with mu_pq = N_pq / m00^(p+q).

    N_pq = sum_pixels (x*m00 - m10)^p (y*m00 - m01)^q f, expanded binomially
    over the integer raw moments. Invariant under integer translation.
    """
    m00, m10, m01 = m[(0, 0)], m[(1, 0)], m[(0, 1)]
    total = 0
    for i in range(p + 1):
        for j in range(q + 1):
            total += (
                math.comb(p, i)
                * math.comb(q, j)
                * m00 ** (i + j)
                * (-m10) ** (p - i)
                * (-m01) ** (q - j)
                * m[(i, j)]
            )
    return total


def moment_table(image: GrayImage) -> MomentTable:
    """Compute every raw, central and normalized central moment up to order 3."""
    raw = integer_raw_moments_by_rows(image.pixels)
    m00 = raw[(0, 0)]
    if m00 <= 0:
        raise DegenerateImageError("all-zero image: moments are undefined (m00 = 0)")
    mu = {pq: _central_numerator(raw, *pq) / m00 ** sum(pq) for pq in raw}
    eta = {
        (p, q): mu[(p, q)] / float(m00) ** ((p + q) / 2.0 + 1.0)
        for (p, q) in raw
        if p + q >= 2
    }
    return MomentTable(
        m={pq: float(v) for pq, v in raw.items()},
        mu=mu,
        eta=eta,
        xbar=raw[(1, 0)] / m00,
        ybar=raw[(0, 1)] / m00,
    )


def hu_moments_from_table(image: GrayImage) -> HuVector:
    """The seven Hu invariants of the grayscale image."""
    eta = moment_table(image).eta
    e20, e02, e11 = eta[(2, 0)], eta[(0, 2)], eta[(1, 1)]
    e30, e03, e21, e12 = eta[(3, 0)], eta[(0, 3)], eta[(2, 1)], eta[(1, 2)]
    a = e30 + e12
    b = e21 + e03
    phi1 = e20 + e02
    phi2 = (e20 - e02) ** 2 + 4.0 * e11**2
    phi3 = (e30 - 3.0 * e12) ** 2 + (3.0 * e21 - e03) ** 2
    phi4 = a * a + b * b
    phi5 = (e30 - 3.0 * e12) * a * (a * a - 3.0 * b * b) + (3.0 * e21 - e03) * b * (3.0 * a * a - b * b)
    phi6 = (e20 - e02) * (a * a - b * b) + 4.0 * e11 * a * b
    phi7 = (3.0 * e21 - e03) * a * (a * a - 3.0 * b * b) - (e30 - 3.0 * e12) * b * (3.0 * a * a - b * b)
    return HuVector((phi1, phi2, phi3, phi4, phi5, phi6, phi7))


# ---------------------------------------------------------------------------
# Edge rule


def prompt_edge(pix, threshold: int) -> np.ndarray:
    h = len(pix)
    w = len(pix[0])
    out = np.zeros((h, w), dtype=bool)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            k = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    if abs(int(pix[y][x]) - int(pix[y + dy][x + dx])) > threshold:
                        k += 1
            out[y, x] = 3 < k < 6
    return out


def prompt_edge_dense(pixels, threshold: int) -> np.ndarray:
    """The whole-image edge rule: each pixel compares itself with its 8
    neighbours, so every pair is compared twice.

    This is the formulation whose output `tir.edge.prompt_edge` must keep.
    """
    pix = np.asarray(pixels).astype(np.int16)
    h, w = pix.shape
    out = np.zeros((h, w), dtype=bool)
    if h >= 3 and w >= 3:
        center = pix[1 : h - 1, 1 : w - 1]
        k = np.zeros(center.shape, dtype=np.int16)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                neighbour = pix[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
                k += np.abs(center - neighbour) > threshold
        out[1 : h - 1, 1 : w - 1] = (k == 4) | (k == 5)
    return out


# ---------------------------------------------------------------------------
# Harris corners


def _clamped(arr, y: int, x: int) -> float:
    h = len(arr)
    w = len(arr[0])
    return float(arr[min(max(y, 0), h - 1)][min(max(x, 0), w - 1)])


def _correlate(arr, kernel) -> list[list[float]]:
    h = len(arr)
    w = len(arr[0])
    r = len(kernel) // 2
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += kernel[dy + r][dx + r] * _clamped(arr, y + dy, x + dx)
            out[y][x] = acc
    return out


def harris_response(values, kappa: float, sigma: float, radius: int) -> np.ndarray:
    kx = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]]
    ky = [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]
    vals = [[float(v) for v in row] for row in values]
    ix = _correlate(vals, kx)
    iy = _correlate(vals, ky)
    h = len(vals)
    w = len(vals[0])
    ixx = [[ix[y][x] * ix[y][x] for x in range(w)] for y in range(h)]
    iyy = [[iy[y][x] * iy[y][x] for x in range(w)] for y in range(h)]
    ixy = [[ix[y][x] * iy[y][x] for x in range(w)] for y in range(h)]
    weights = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in range(-radius, radius + 1)]
    total = sum(weights)
    weights = [v / total for v in weights]
    window = [[wy * wx for wx in weights] for wy in weights]
    a = _correlate(ixx, window)
    b = _correlate(iyy, window)
    c = _correlate(ixy, window)
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = a[y][x] * b[y][x] - c[y][x] * c[y][x] - kappa * (a[y][x] + b[y][x]) ** 2
    return out


def _correlate_replicate(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Cross-correlate with replicate (edge) padding; kernel must be odd-sized."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(values, ((ry, ry), (rx, rx)), mode="edge")
    h, w = values.shape
    out = np.zeros((h, w), dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            weight = kernel[dy, dx]
            if weight != 0.0:
                out += weight * padded[dy : dy + h, dx : dx + w]
    return out


def harris_response_dense(pixels, binary: bool, kappa: float, sigma: float, radius: int) -> np.ndarray:
    """The dense float64 Harris response: whole-image correlation per kernel offset.

    This is the formulation whose bits `tir.corners.corner_metric` must keep;
    `binary` maps a boolean map to intensities {0, 255}.
    """
    sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    sobel_y = sobel_x.T
    values = np.asarray(pixels).astype(np.float64)
    if binary:
        values = values * 255.0
    ix = _correlate_replicate(values, sobel_x)
    iy = _correlate_replicate(values, sobel_y)
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(d * d) / (2.0 * sigma * sigma))
    g /= g.sum()
    window = np.outer(g, g)
    a = _correlate_replicate(ix * ix, window)
    b = _correlate_replicate(iy * iy, window)
    c = _correlate_replicate(ix * iy, window)
    return (a * b - c * c) - kappa * (a + b) ** 2


def corner_peaks_dense(metric, rel_threshold: float, nms_radius: int) -> tuple[tuple[int, int], ...]:
    """Whole-image NMS: one comparison per pixel and neighbourhood offset.

    This is the formulation whose (x, y) points, in row-major order,
    `tir.corners.corner_peaks` must keep.
    """
    m = np.asarray(metric, dtype=np.float64)
    global_max = float(m.max())
    if global_max <= 0.0:
        return ()
    keep = (m > 0.0) & (m >= rel_threshold * global_max)
    h, w = m.shape
    r = nms_radius
    padded = np.pad(m, r, mode="constant", constant_values=-np.inf)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            neighbour = padded[r + dy : r + dy + h, r + dx : r + dx + w]
            if dy < 0 or (dy == 0 and dx < 0):
                keep &= neighbour < m  # earlier pixel wins ties
            else:
                keep &= neighbour <= m
    ys, xs = np.nonzero(keep)
    return tuple((int(x), int(y)) for x, y in zip(xs, ys))


def harris_peaks(response: np.ndarray, rel_threshold: float, nms_radius: int) -> list[tuple[int, int]]:
    h, w = response.shape
    global_max = response.max()
    if global_max <= 0:
        return []
    cut = rel_threshold * global_max
    points = []
    for y in range(h):
        for x in range(w):
            v = response[y, x]
            if v <= 0 or v < cut:
                continue
            keep = True
            for ny in range(max(0, y - nms_radius), min(h, y + nms_radius + 1)):
                for nx in range(max(0, x - nms_radius), min(w, x + nms_radius + 1)):
                    if (ny, nx) == (y, x):
                        continue
                    other = response[ny, nx]
                    if other > v:
                        keep = False
                    elif other == v and (ny, nx) < (y, x):
                        keep = False
            if keep:
                points.append((x, y))
    return points


# ---------------------------------------------------------------------------
# PNM


def pnm_header_ints(data: bytes, start: int, count: int):
    """(tokens, end) for the first `count` integer header fields from `start`,
    or the message of the PnmError the header must raise.

    Each byte is first classed as comment (a '#' and what follows it up to the
    next CR or LF), whitespace or token; a field is a maximal run of token bytes.
    """
    kinds = []
    in_comment = False
    for byte in data[start:]:
        if in_comment and byte in b"\r\n":
            in_comment = False
        elif byte == ord("#"):
            in_comment = True
        kinds.append("comment" if in_comment else "space" if byte in b" \t\n\r\x0b\x0c" else "token")
    tokens = []
    pos = 0
    while len(tokens) < count:
        while pos < len(kinds) and kinds[pos] != "token":
            pos += 1
        if pos == len(kinds):
            return "malformed header: fewer fields than required"
        end = pos
        while end < len(kinds) and kinds[end] == "token":
            end += 1
        field = data[start + pos : start + end]
        if not all(48 <= ch <= 57 for ch in field):
            return f"malformed header: expected an integer, got {field!r}"
        if len(field) > 18:
            return f"malformed header: integer of {len(field)} digits (at most 18)"
        tokens.append(int(field))
        pos = end
    return tokens, start + pos


def pnm_ascii_samples(raster: bytes, need: int):
    """The first `need` samples of an ASCII raster as Python ints, or the
    expected error's keyword: 'truncated', 'non-numeric' or 'maxval'."""
    text = b"".join(line.split(b"#", 1)[0] + b" " for line in raster.splitlines())
    tokens = text.split()
    if len(tokens) < need:
        return "truncated"
    values = []
    for tok in tokens[:need]:
        if not all(48 <= ch <= 57 for ch in tok):
            return "non-numeric"
        values.append(int(tok))
    return "maxval" if max(values) > 255 else values


# ---------------------------------------------------------------------------
# Rotation


def rotate_dense(image: GrayImage, angle: float) -> GrayImage:
    """`tir.imaging.rotate` as one whole-frame masked formulation."""
    h, w = image.pixels.shape
    theta = math.radians(angle)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    # Screen coordinates have y pointing down, so visual CCW uses this matrix.
    sx = c * dx - s * dy + cx
    sy = s * dx + c * dy + cy
    return GrayImage.from_real(_bilinear_black(image.pixels, sx, sy))


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


# ---------------------------------------------------------------------------
# Distance


def euclidean(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return math.sqrt(total)


def integer_raw_moment(pix, p: int, q: int) -> int:
    """m_pq in exact Python integers."""
    return sum(x**p * y**q * int(value) for y, row in enumerate(pix) for x, value in enumerate(row))


# ---------------------------------------------------------------------------
# Retrieval, one record at a time. Records are anything with record_id,
# corner_count and hu attributes.


def log_magnitude(values) -> tuple[float, ...]:
    return tuple(0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0) * math.log10(abs(v) + 1e-30) for v in values)


def corner_window(count: int, band_width: int, base_threshold: float, multiplier: float):
    threshold = base_threshold * multiplier ** (count // band_width)
    return max(0.0, count - threshold), count + threshold


def in_window(records, query_count: int, window_args) -> list:
    lo, hi = corner_window(query_count, *window_args)
    return [r for r in records if lo <= r.corner_count <= hi]


def rank(query_hu, records, k: int, query_count=None, log_scale: bool = True) -> list[tuple[int, int, float]]:
    """(record_id, corner difference, distance) of the k nearest records, ties on record_id."""
    scale = log_magnitude if log_scale else tuple
    q = scale(query_hu)
    scored = []
    for r in records:
        difference = abs(r.corner_count - query_count) if query_count is not None else 0
        scored.append((euclidean(q, scale(r.hu)), r.record_id, difference))
    scored.sort()
    return [(record_id, difference, distance) for distance, record_id, difference in scored[:k]]


def corner_rank(query_count: int, records, k: int) -> list[int]:
    """Ids of the k records nearest in corner count, ties on record_id."""
    return [r.record_id for r in sorted(records, key=lambda r: (abs(r.corner_count - query_count), r.record_id))[:k]]


# ---------------------------------------------------------------------------
# Feature database, one line and one FeatureRecord at a time.


_REAL_CHARS = re.compile(r"[0-9eE.+-]*")


def _parse_count(token: str, what: str) -> int:
    # ASCII digits with no leading zero: 0|[1-9][0-9]*
    if not (token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")):
        raise ValueError(f"{what} must be written as 0 or [1-9][0-9]*, got {token!r}")
    return int(token)


def _parse_reals(tokens: list[str], what: str) -> tuple[float, ...]:
    if not _REAL_CHARS.fullmatch("".join(tokens)):
        bad = next(t for t in tokens if not _REAL_CHARS.fullmatch(t))
        raise ValueError(f"{what} must be ASCII decimal or scientific notation, got {bad!r}")
    return tuple(map(float, tokens))


def load_index_per_line(path) -> FeatureDatabase:
    """Load a feature database, verifying the version tag and every record line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise IndexFormatError(f"{path}: not a feature database (bad tag line)")
    if lines[0] != f"{FORMAT_TAG}\t{FORMAT_VERSION}":
        raise IndexFormatError(
            f"{path}: unsupported database version {lines[0][len(FORMAT_TAG):].strip()!r}"
            f" (expected {FORMAT_VERSION})"
        )
    if len(lines) < 2:
        raise IndexFormatError(f"{path}: missing CFG line")
    config = _parse_cfg_line(lines[1], path)
    records = []
    seen_ids = set()
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split("\t")
        if len(parts) != 11:
            raise IndexFormatError(f"{path}: line {lineno}: expected 11 fields, got {len(parts)}")
        try:
            record_id = _parse_count(parts[0], "record_id")
            count = _parse_count(parts[3], "corner_count")
            phi = _parse_reals(parts[4:11], "Hu invariants")
            record = FeatureRecord(record_id, parts[1], parts[2], count, HuVector(phi))
        except ValueError as exc:
            raise IndexFormatError(f"{path}: line {lineno}: {exc}") from exc
        if record_id in seen_ids:
            raise IndexFormatError(f"{path}: line {lineno}: duplicate record_id {record_id}")
        seen_ids.add(record_id)
        records.append(record)
    return FeatureDatabase(tuple(records), config)
