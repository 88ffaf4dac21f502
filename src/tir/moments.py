"""Raw, central, normalized central and Hu invariant moments.

Definitions (x = column index, y = row index, f = intensity):

    m_pq   = sum_x sum_y x^p y^q f(x, y)
    mu_pq  = sum_x sum_y (x - xbar)^p (y - ybar)^q f(x, y),
             xbar = m10 / m00, ybar = m01 / m00
    eta_pq = mu_pq / m00^gamma,  gamma = (p + q) / 2 + 1

One exact path serves every public function. `_integer_raw_moments` forms
all sixteen raw moments (p, q <= 3) from one (h, w) @ (w, 4) integer matmul
against the column powers x^0..x^3, then one Python-integer (4, h) @ (h, 4)
contraction against the row powers y^0..y^3. `_mu_eta` holds the m00 check
and turns exact integer central numerators into mu and eta; `hu_moments`
asks it for the seven eta it uses. Hu vectors are therefore bitwise
identical under integer translation with zero padding.

The seven invariants follow Hu's 1962 definitions; only those forms carry
the rotation invariance the retrieval stage relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage

MAX_ORDER = 3


class DegenerateImageError(ValueError):
    """Raised when an all-zero image (m00 = 0) reaches a moment computation."""


@dataclass(frozen=True)
class HuVector:
    """The seven invariants phi1..phi7 of one image."""

    phi: tuple[float, ...]

    def __post_init__(self):
        phi = tuple(float(v) for v in self.phi)
        if len(phi) != 7:
            raise ValueError(f"expected 7 invariants, got {len(phi)}")
        if not all(math.isfinite(v) for v in phi):
            raise ValueError("invariants must be finite")
        object.__setattr__(self, "phi", phi)

    def __iter__(self):
        return iter(self.phi)

    def __getitem__(self, idx):
        return self.phi[idx]

    def as_array(self) -> np.ndarray:
        return np.array(self.phi, dtype=np.float64)


def _integer_raw_moments(pix: np.ndarray) -> dict[tuple[int, int], int]:
    """Exact raw moments m_pq for p, q in {0..MAX_ORDER} as Python integers."""
    h, w = pix.shape
    f = pix.astype(np.int64)
    xs = np.arange(w, dtype=np.int64)
    # The row partials sum_x x^p f(x, y) are at most 255 * sum_x x^3 =
    # 255 * (w (w - 1) / 2)^2, which reaches 2^63 from w = 19504 on; there
    # int64 would wrap silently, so wider rows take exact Python integers.
    if 255 * (w * (w - 1) // 2) ** 2 >= 2**63:
        f, xs = f.astype(object), xs.astype(object)
    powers = np.arange(MAX_ORDER + 1)
    rows = f @ xs[:, None] ** powers  # rows[y, p] = sum_x x^p f(x, y)
    # The y contraction always runs in Python integers (object dtype).
    table = rows.T.astype(object) @ np.arange(h, dtype=object)[:, None] ** powers
    return {(p, q): table[p, q] for p in range(MAX_ORDER + 1) for q in range(MAX_ORDER + 1)}


def _mu_eta(m: dict[tuple[int, int], int], p: int, q: int) -> tuple[float, float]:
    """mu_pq and eta_pq from the exact raw moments `m`. Raises for an all-zero image.

    mu_pq = N_pq / m00^(p+q) is an exact int/int true division, with
    N_pq = sum_pixels (x*m00 - m10)^p (y*m00 - m01)^q f expanded binomially
    over the integer raw moments; it is invariant under integer translation.
    """
    m00, m10, m01 = m[(0, 0)], m[(1, 0)], m[(0, 1)]
    if m00 <= 0:
        raise DegenerateImageError("all-zero image: moments are undefined (m00 = 0)")
    numerator = sum(
        math.comb(p, i) * math.comb(q, j) * m00 ** (i + j) * (-m10) ** (p - i) * (-m01) ** (q - j) * m[(i, j)]
        for i in range(p + 1)
        for j in range(q + 1)
    )
    mu = numerator / m00 ** (p + q)
    return mu, mu / float(m00) ** ((p + q) / 2.0 + 1.0)


def raw_moment(image: GrayImage, p: int, q: int) -> float:
    """m_pq as an exact double sum; 0^0 counts as 1."""
    _check_order(p, q)
    return float(_integer_raw_moments(image.pixels)[(p, q)])


def central_moment(image: GrayImage, p: int, q: int) -> float:
    """mu_pq about the intensity centroid. Raises for all-zero images."""
    _check_order(p, q)
    return _mu_eta(_integer_raw_moments(image.pixels), p, q)[0]


def normalized_central_moment(image: GrayImage, p: int, q: int) -> float:
    """eta_pq = mu_pq / m00^((p+q)/2 + 1); requires p + q >= 2."""
    _check_order(p, q)
    if p + q < 2:
        raise ValueError(f"normalized central moments need p + q >= 2, got ({p}, {q})")
    return _mu_eta(_integer_raw_moments(image.pixels), p, q)[1]


def hu_moments(image: GrayImage) -> HuVector:
    """The seven Hu invariants of the grayscale image."""
    m = _integer_raw_moments(image.pixels)
    e20, e02, e11, e30, e03, e21, e12 = (
        _mu_eta(m, p, q)[1] for p, q in ((2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (2, 1), (1, 2))
    )
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


def _check_order(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError(f"moment orders must be integers, got ({p!r}, {q!r})")
    if p < 0 or q < 0 or p > MAX_ORDER or q > MAX_ORDER:
        raise ValueError(f"moment orders must lie in [0, {MAX_ORDER}], got ({p}, {q})")
