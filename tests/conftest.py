import numpy as np
import pytest

from tir.imaging import GrayImage
from tir.index import FeatureRecord
from tir.shapes import square_scene


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def records_made(monkeypatch):
    """The record_id of every FeatureRecord made while the test runs, in order."""
    made = []
    post_init = FeatureRecord.__post_init__

    def counting(record):
        made.append(record.record_id)
        post_init(record)

    monkeypatch.setattr(FeatureRecord, "__post_init__", counting)
    return made


@pytest.fixture
def scene():
    """64x64 black canvas with a centered 24x24 white square."""
    return square_scene()


def random_gray(rng, height: int, width: int) -> GrayImage:
    return GrayImage(rng.integers(0, 256, (height, width), dtype=np.int64))


def nonzero_random_gray(rng, height: int, width: int) -> GrayImage:
    pix = rng.integers(0, 256, (height, width), dtype=np.int64)
    if not pix.any():
        pix[height // 2, width // 2] = 1
    return GrayImage(pix)
