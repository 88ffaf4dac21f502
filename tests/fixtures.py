"""Synthetic test images with known geometry: squares, a disc and a triangle.

They are drawn with the rasterizer of `tir.shapes`, so a disc or a triangle
has the same antialiased pixels as a benchmark shape would.
"""

import numpy as np

from tir.imaging import GrayImage
from tir.shapes import _disc_mask, _grid, _render, filled_polygon


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
