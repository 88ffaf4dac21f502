"""Synthetic shape rasterization for fixtures and benchmark datasets.

Shapes are defined as boolean masks on a supersampled grid (even-odd polygon
fill, discs, unions and differences) and rendered to grayscale via coverage
antialiasing. The benchmark set contains 18 distinct base shapes, each drawn
without long axis-aligned edges and without 180-degree rotational symmetry:
axis-aligned silhouettes produce almost-empty neighbourhood edge maps at 0
degrees, and a raster with exact half-turn symmetry is bitwise equal to its
own 180-degree rotation, which would make self-retrieval ambiguous.
"""

from __future__ import annotations

import math

import numpy as np

from .imaging import GrayImage


def _grid(size: int, supersample: int) -> tuple[np.ndarray, np.ndarray]:
    n = size * supersample
    coords = (np.arange(n, dtype=np.float64) + 0.5) / supersample - 0.5
    return np.meshgrid(coords, coords)


def _render(mask: np.ndarray, size: int, supersample: int, intensity: int) -> GrayImage:
    coverage = mask.reshape(size, supersample, size, supersample).mean(axis=(1, 3))
    return GrayImage(np.clip(np.rint(coverage * intensity), 0, 255).astype(np.uint8))


def _polygon_mask(xx: np.ndarray, yy: np.ndarray, vertices) -> np.ndarray:
    inside = np.zeros(xx.shape, dtype=bool)
    pts = [(float(x), float(y)) for x, y in vertices]
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        if y1 == y2:
            continue
        crosses = ((y1 > yy) != (y2 > yy)) & (xx < x1 + (yy - y1) * (x2 - x1) / (y2 - y1))
        inside ^= crosses
    return inside


def _disc_mask(xx: np.ndarray, yy: np.ndarray, cx: float, cy: float, r: float) -> np.ndarray:
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def rotated_points(vertices, degrees: float, center: tuple[float, float]):
    """Rotate vertex coordinates counterclockwise (screen sense) about `center`."""
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = center
    out = []
    for x, y in vertices:
        dx, dy = x - cx, y - cy
        out.append((cx + c * dx + s * dy, cy - s * dx + c * dy))
    return out


def filled_polygon(vertices, size: int = 128, intensity: int = 255, supersample: int = 4) -> GrayImage:
    xx, yy = _grid(size, supersample)
    return _render(_polygon_mask(xx, yy, vertices), size, supersample, intensity)


def filled_disc(center: tuple[float, float], radius: float, size: int = 128,
                intensity: int = 255, supersample: int = 4) -> GrayImage:
    xx, yy = _grid(size, supersample)
    return _render(_disc_mask(xx, yy, center[0], center[1], radius), size, supersample, intensity)


def solid_square(side: int = 64, intensity: int = 1) -> GrayImage:
    """A side x side image filled with a constant intensity (a centered solid square)."""
    return GrayImage(np.full((side, side), intensity, dtype=np.uint8))


def square_scene(size: int = 64, side: int = 24, intensity: int = 255) -> GrayImage:
    """Black canvas with a centered axis-aligned white square (hard edges, no AA)."""
    pix = np.zeros((size, size), dtype=np.uint8)
    start = (size - side) // 2
    pix[start : start + side, start : start + side] = intensity
    return GrayImage(pix)


def square_scene_corners(size: int = 64, side: int = 24) -> tuple[tuple[int, int], ...]:
    """Ground-truth (x, y) corner pixels of :func:`square_scene`."""
    a = (size - side) // 2
    b = a + side - 1
    return ((a, a), (b, a), (a, b), (b, b))


def filled_triangle(size: int = 128, intensity: int = 255) -> GrayImage:
    """A scalene triangle that stays in-bounds under rotation about the image center."""
    return filled_polygon([(14.0, 90.0), (110.0, 96.0), (60.0, 12.0)], size=size, intensity=intensity)


def _star_points(center: tuple[float, float], outer: float, inner: float,
                 spikes: int, phase_deg: float):
    cx, cy = center
    pts = []
    for i in range(2 * spikes):
        r = outer if i % 2 == 0 else inner
        a = math.radians(phase_deg) + math.pi * i / spikes
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return pts


_DESIGN_SIZE = 128
_C = (63.5, 63.5)


def benchmark_shapes(size: int = 128, intensity: int = 255) -> list[tuple[str, GrayImage]]:
    """The 18 named base shapes used by the retrieval benchmark, in fixed order.

    The shapes are laid out in the coordinates of a 128-px image; at other
    sizes the sample grid is scaled by 128/size, image edge onto image edge,
    so each shape covers the same part of the image at every size.
    """
    scale = _DESIGN_SIZE / size
    xx, yy = ((c + 0.5) * scale - 0.5 for c in _grid(size, 4))

    def poly(vertices, rotate_deg: float = 0.0) -> np.ndarray:
        pts = rotated_points(vertices, rotate_deg, _C) if rotate_deg else vertices
        return _polygon_mask(xx, yy, pts)

    def disc(cx, cy, r) -> np.ndarray:
        return _disc_mask(xx, yy, cx, cy, r)

    masks: list[tuple[str, np.ndarray]] = [
        ("tri_wide", poly([(18, 92), (104, 98), (58, 30)])),
        ("tri_tall", poly([(42, 14), (78, 102), (30, 82)])),
        ("kite", poly([(63, 14), (92, 58), (63, 110), (42, 58)])),
        ("pentagon", poly([(63, 16), (102, 44), (90, 98), (40, 104), (26, 50)])),
        ("star5", poly(_star_points(_C, 50, 21, 5, 8.0))),
        ("ell", poly([(40, 25), (62, 25), (62, 78), (95, 78), (95, 100), (40, 100)], 17.0)),
        ("tee", poly([(30, 30), (98, 30), (98, 50), (74, 50), (74, 102), (54, 102), (54, 50), (30, 50)], 9.0)),
        ("arrow", poly([(20, 55), (70, 55), (70, 38), (108, 63), (70, 88), (70, 71), (20, 71)], 25.0)),
        ("chevron", poly([(30, 40), (63, 60), (96, 40), (96, 64), (63, 86), (30, 64)], 12.0)),
        ("bolt", poly([(58, 14), (88, 14), (66, 52), (86, 52), (40, 112), (54, 64), (38, 64)])),
        ("trapezoid", poly([(26, 86), (44, 38), (88, 30), (108, 82)], 26.0)),
        ("hook", poly([(58, 16), (80, 16), (80, 88), (70, 102), (46, 102), (32, 88), (32, 72), (46, 72), (48, 82), (58, 84)], 20.0)),
        ("crescent", disc(63.5, 63.5, 44) & ~disc(78.0, 63.5, 34)),
        ("pacman", disc(63.5, 63.5, 46) & ~poly([(63.5, 63.5), (128, 30), (128, 80)])),
        ("teardrop", disc(58, 72, 30) | poly([(30, 20), (86, 32), (64, 94)])),
        ("plus_uneven", poly([(22, 56), (100, 56), (100, 74), (22, 74)], 8.0) | poly([(52, 26), (72, 26), (72, 112), (52, 112)], 8.0)),
        ("hex_dented", poly([(40, 22), (88, 18), (108, 58), (86, 102), (44, 98), (22, 54)], 14.0)),
        ("keyhole", disc(*rotated_points([(63.5, 46.0)], 15.0, _C)[0], 26) | poly([(48, 58), (79, 58), (92, 106), (35, 106)], 15.0)),
    ]
    return [(name, _render(mask, size, 4, intensity)) for name, mask in masks]
