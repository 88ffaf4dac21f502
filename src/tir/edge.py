"""Prompt edge detection.

A pixel is an edge pixel when the number k of its 8 neighbours whose absolute
intensity difference exceeds the threshold T satisfies 3 < k < 6, i.e.
k in {4, 5}. Pixels on the image border (any neighbour out of bounds) are
non-edge by definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._shown import shown
from .imaging import GrayImage, _Raster


@dataclass(frozen=True)
class EdgeConfig:
    """Detector settings. `threshold` is the intensity difference bound T."""

    threshold: int = 30

    def __post_init__(self):
        if type(self.threshold) is not int or not 0 <= self.threshold <= 255:  # not a bool
            raise ValueError(f"threshold must be an integer in [0, 255], got {shown(self.threshold)}")


@dataclass(frozen=True, eq=False)
class BinaryImage(_Raster):
    """Edge map; ``pixels`` is a read-only boolean array of shape (height, width)."""

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        if arr.ndim != 2 or arr.dtype != np.bool_:
            raise ValueError(f"expected a 2-D boolean grid, got {arr.dtype} shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image dimensions must be >= 1")
        return np.ascontiguousarray(arr)


def prompt_edge(image: GrayImage, config: EdgeConfig = EdgeConfig()) -> BinaryImage:
    """Classify each pixel by its 8-neighbourhood difference count.

    Each pair of neighbouring pixels is compared once per direction
    (right, down, down-right, down-left), and the outcome is added to the
    count k of both of its pixels. |a - b| = |b - a|, so every pixel's k is
    the number of its 8 neighbours that differ from it by more than T, as if
    each pixel had compared its own neighbours. The difference is taken as
    max(a, b) - min(a, b), which is exact in uint8.
    """
    pix = image.pixels
    h, w = pix.shape
    out = np.zeros((h, w), dtype=bool)
    if h >= 3 and w >= 3:
        k = np.zeros((h, w), dtype=np.uint8)
        for near, far in (
            (np.s_[:, :-1], np.s_[:, 1:]),
            (np.s_[:-1, :], np.s_[1:, :]),
            (np.s_[:-1, :-1], np.s_[1:, 1:]),
            (np.s_[:-1, 1:], np.s_[1:, :-1]),
        ):
            a, b = pix[near], pix[far]
            differs = np.maximum(a, b) - np.minimum(a, b) > config.threshold
            k[near] += differs
            k[far] += differs
        inner = k[1 : h - 1, 1 : w - 1]
        out[1 : h - 1, 1 : w - 1] = (inner == 4) | (inner == 5)
    return BinaryImage(out)
