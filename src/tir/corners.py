"""Harris corner response, peak extraction and corner counting.

The response is R = det(M) - kappa * trace(M)^2 where M is the structure
tensor of Gaussian-weighted Sobel gradient products accumulated over a
square window. In the retrieval pipeline the metric runs on the edge map
(mapped to intensities {0, 255}), not on the raw grayscale image.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ._shown import shown
from .edge import BinaryImage, EdgeConfig, prompt_edge
from .imaging import GrayImage

@dataclass(frozen=True)
class CornerConfig:
    """Detector parameters.

    kappa: Harris sensitivity, dimensionless, in (0, 0.25).
    window_sigma: Gaussian weighting sigma of the accumulation window, pixels.
    window_radius: half-width of the accumulation window, pixels.
    peak_rel_threshold: keep peaks with response >= this fraction of the global max.
    nms_radius: Chebyshev radius of the non-maximum-suppression neighbourhood.
    """

    kappa: float = 0.04
    window_sigma: float = 1.5
    window_radius: int = 2
    peak_rel_threshold: float = 0.01
    nms_radius: int = 2

    def __post_init__(self):
        if not 0.0 < self.kappa < 0.25:
            raise ValueError(f"kappa must lie in (0, 0.25), got {shown(self.kappa, str)}")
        # gaussian_kernel divides by 2 * sigma * sigma, which is 0 (all weights NaN) below about 1e-162;
        # an int past the largest float would overflow float() below.
        if not (0.0 < self.window_sigma <= sys.float_info.max and 2.0 * self.window_sigma * self.window_sigma > 0.0):
            raise ValueError(f"window_sigma must be finite with finite Gaussian weights, got {shown(self.window_sigma, str)}")
        for name, value in (("window_radius", self.window_radius), ("nms_radius", self.nms_radius)):
            if not (type(value) is int and value >= 1):  # not a bool, which save_index would write as True
                raise ValueError(f"{name} must be an integer >= 1, got {shown(value)}")
            if value >= 2**63:  # load_index reads the settings as int64
                raise ValueError(f"{name} must be below 2**63, got {shown(value, str)}")
        if not 0.0 < self.peak_rel_threshold <= 1.0:
            raise ValueError(f"peak_rel_threshold must lie in (0, 1], got {shown(self.peak_rel_threshold, str)}")
        for name in ("kappa", "window_sigma", "peak_rel_threshold"):  # as save_index writes them: they load back equal
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class CornerSet:
    """Detected corner coordinates as (x, y) pairs in row-major discovery order."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("corner points must be pairwise distinct")

    @property
    def count(self) -> int:
        return len(self.points)


def gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian kernel of size (2*radius+1)^2."""
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # 2 * sigma * sigma may be subnormal: off the centre, exp(-inf) = 0
        g = np.exp(-(d * d) / (2.0 * sigma * sigma))
    g /= g.sum()
    return np.outer(g, g)


def _product_table(ix: np.ndarray, iy: np.ndarray, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ix^2, Iy^2 and IxIy stored once per pixel where `nonzero`, and a map to them.

    Column 0 of the (3, k + 1) float64 table is zero; ``label`` gives each
    pixel of the flattened planes its column, 0 where the gradient is zero.
    """
    grad = np.flatnonzero(nonzero)
    gx = ix.ravel().take(grad).astype(np.int32)
    gy = iy.ravel().take(grad).astype(np.int32)
    table = np.zeros((3, len(grad) + 1), dtype=np.float64)
    table[:, 1:] = (gx * gx, gy * gy, gx * gy)
    label = np.zeros(ix.size, dtype=np.min_scalar_type(len(grad)))
    label[grad] = np.arange(1, len(grad) + 1)
    return table, label


def _window_sums(
    ix: np.ndarray, iy: np.ndarray, nonzero: np.ndarray, active: np.ndarray, window: np.ndarray
) -> np.ndarray:
    """Rows a, b, c: the `window`-weighted sums of Ix^2, Iy^2 and IxIy at each
    `active` pixel in row-major order; `ix`, `iy` and `nonzero` are padded by
    the window radius."""
    table, label = _product_table(ix, iy, nonzero)
    size = len(window)
    w = active.shape[1]
    padded_w = ix.shape[1]
    corner = np.flatnonzero(active)
    corner += (size - 1) * (corner // w)  # each window's top-left, flat in the padded frame
    sums = np.zeros((3, len(corner)), dtype=np.float64)
    terms = np.empty_like(sums)
    for dy in range(size):
        for dx in range(size):
            weight = window[dy, dx]
            if weight != 0.0:
                # Every index is in range; "clip" only spares take a buffered copy of out.
                table.take(label[dy * padded_w + dx :].take(corner), axis=1, out=terms, mode="clip")
                terms *= weight
                sums += terms
    return sums


def corner_metric(image: BinaryImage | GrayImage, config: CornerConfig = CornerConfig()) -> np.ndarray:
    """Per-pixel Harris response matrix with the same shape as the input.

    Binary inputs are treated as intensities {0, 255}. Gradients and the window
    accumulation both use replicate padding at the borders.

    The result is bit for bit that of the dense float64 formulation (Sobel by
    3x3 correlation, then one whole-image weighted sum per window offset), but
    the window sums are formed only where they can be nonzero:

    - Sobel runs in integers, which is exact: |Ix|, |Iy| <= 4 * 255 = 1020
      (int16) and every product is at most 1020^2 = 1,040,400 (int32). These
      are the integers the dense float Sobel produced, and float64 holds them
      exactly.
    - A pixel whose (2r+1)^2 window, in the replicate-padded frame, holds only
      zero products sums weight * 0 from +0.0 to a = b = c = +0.0, so its
      response is exactly +0.0, which the zeroed output already holds.
    - At the other (active) pixels, a, b and c add weight * product one window
      offset at a time, in row-major offset order, skipping zero weights,
      starting from +0.0. These are the dense version's float operations in
      its order, which is what keeps the bits.
    """
    pixels = image.pixels.astype(np.int16)
    if isinstance(image, BinaryImage):
        pixels *= 255
    h, w = pixels.shape
    p = np.pad(pixels, 1, mode="edge")
    diff = p[:, 2:] - p[:, :-2]
    ix = diff[:-2] + 2 * diff[1:-1] + diff[2:]
    smooth = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    iy = smooth[2:] - smooth[:-2]

    r = config.window_radius
    size = 2 * r + 1
    ix = np.pad(ix, r, mode="edge")
    iy = np.pad(iy, r, mode="edge")
    nonzero = (ix != 0) | (iy != 0)
    rows = np.zeros((h + 2 * r, w), dtype=bool)
    for dx in range(size):
        rows |= nonzero[:, dx : dx + w]
    active = np.zeros((h, w), dtype=bool)
    for dy in range(size):
        active |= rows[dy : dy + h]

    if not active.any():
        return np.zeros((h, w), dtype=np.float64)
    a, b, c = _window_sums(ix, iy, nonzero, active, gaussian_kernel(r, config.window_sigma))
    out = np.zeros((h, w), dtype=np.float64)
    out[active] = (a * b - c * c) - config.kappa * (a + b) ** 2
    return out


def corner_peaks(metric: np.ndarray, config: CornerConfig = CornerConfig()) -> CornerSet:
    """Extract corner peaks from a response matrix.

    A pixel survives when its response is positive, reaches
    peak_rel_threshold * max(metric), and is the strict maximum of its
    Chebyshev nms_radius neighbourhood; exact ties are resolved in favour of
    the first pixel in row-major order.

    Only the pixels that pass the first two tests are compared with their
    neighbours. Each comparison is the one a whole-image pass would make
    (``<`` against earlier neighbours, ``<=`` against later ones, -inf
    outside the image), so the survivors are the same, and they come out in
    row-major order. A neighbourhood offset of h or more rows, or w or more
    columns, only ever reaches the -inf border, so the radius is clamped per
    axis to h - 1 and w - 1: the cost is bounded by the image, not by
    nms_radius.
    """
    m = np.asarray(metric, dtype=np.float64)
    global_max = float(m.max())
    if global_max <= 0.0:
        return CornerSet(())
    h, w = m.shape
    ry = min(config.nms_radius, h - 1)
    rx = min(config.nms_radius, w - 1)
    pw = w + 2 * rx
    padded = np.full((h + 2 * ry, pw), -np.inf)
    padded[ry : ry + h, rx : rx + w] = m
    flat = padded.ravel()
    cand = np.flatnonzero(padded > 0.0)
    vals = flat.take(cand)
    above = vals >= config.peak_rel_threshold * global_max
    cand, vals = cand[above], vals[above]
    keep = np.ones(len(cand), dtype=bool)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            if dy == 0 and dx == 0:
                continue
            neighbour = flat.take(cand + (dy * pw + dx))
            if dy < 0 or (dy == 0 and dx < 0):
                keep &= neighbour < vals  # earlier pixel wins ties
            else:
                keep &= neighbour <= vals
    ys, xs = np.divmod(cand[keep], pw)
    return CornerSet(tuple(zip((xs - rx).tolist(), (ys - ry).tolist())))


def corner_count(image: GrayImage, edge_cfg: EdgeConfig = EdgeConfig(), corner_cfg: CornerConfig = CornerConfig()) -> int:
    """Number of corner peaks on the Prompt edge map of `image`."""
    edges = prompt_edge(image, edge_cfg)
    return corner_peaks(corner_metric(edges, corner_cfg), corner_cfg).count
