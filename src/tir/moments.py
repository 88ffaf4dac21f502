"""Raw, central, normalized central and Hu invariant moments.

Definitions (x = column index, y = row index, f = intensity):

    m_pq   = sum_x sum_y x^p y^q f(x, y)
    mu_pq  = sum_x sum_y (x - xbar)^p (y - ybar)^q f(x, y),
             xbar = m10 / m00, ybar = m01 / m00
    eta_pq = mu_pq / m00^gamma,  gamma = (p + q) / 2 + 1

Raw moments are accumulated in exact integer arithmetic and central moments
are derived from exact integer numerators, so Hu vectors are bitwise
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


def _integer_raw_moments(pix: np.ndarray) -> dict[tuple[int, int], int]:
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
    raw = _integer_raw_moments(image.pixels)
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


def raw_moment(image: GrayImage, p: int, q: int) -> float:
    """m_pq as an exact double sum; 0^0 counts as 1."""
    _check_order(p, q)
    return float(_integer_raw_moments(image.pixels)[(p, q)])


def central_moment(image: GrayImage, p: int, q: int) -> float:
    """mu_pq about the intensity centroid. Raises for all-zero images."""
    _check_order(p, q)
    raw = _integer_raw_moments(image.pixels)
    if raw[(0, 0)] <= 0:
        raise DegenerateImageError("all-zero image: moments are undefined (m00 = 0)")
    return _central_numerator(raw, p, q) / raw[(0, 0)] ** (p + q)


def normalized_central_moment(image: GrayImage, p: int, q: int) -> float:
    """eta_pq = mu_pq / m00^((p+q)/2 + 1); requires p + q >= 2."""
    _check_order(p, q)
    if p + q < 2:
        raise ValueError(f"normalized central moments need p + q >= 2, got ({p}, {q})")
    raw = _integer_raw_moments(image.pixels)
    m00 = raw[(0, 0)]
    if m00 <= 0:
        raise DegenerateImageError("all-zero image: moments are undefined (m00 = 0)")
    mu = _central_numerator(raw, p, q) / m00 ** (p + q)
    return mu / float(m00) ** ((p + q) / 2.0 + 1.0)


def hu_moments(image: GrayImage) -> HuVector:
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


def _check_order(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError(f"moment orders must be integers, got ({p!r}, {q!r})")
    if p < 0 or q < 0 or p > MAX_ORDER or q > MAX_ORDER:
        raise ValueError(f"moment orders must lie in [0, {MAX_ORDER}], got ({p}, {q})")
