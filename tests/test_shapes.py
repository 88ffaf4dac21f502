import hashlib

import numpy as np

from tir.shapes import benchmark_shapes

# sha256 of each 128-px benchmark shape's pixel bytes: the benchmark set and
# every database built from it depend on these exact rasters.
SHAPES_128_SHA256 = {
    "tri_wide": "ef3bb0e43f6743793c7f32eaf781b984d85ab101c6dbaeeca0332a3f7d2d90db",
    "tri_tall": "bd99fbe4f12a7ccb3e88594300241ae65983ee930570005e1b7a0d3245d7e1ba",
    "kite": "c4ff040d8c26d896f714cbbb2b1192d607812b751e8f15626d03f4a7630a5073",
    "pentagon": "b053f0867f349f716a1df0f9843a91065863b743cc7b035443f14030a178983f",
    "star5": "e5da68d9537f1fa3fffac60505fa569e6ba15d8eeac505d89e984c24595f22dc",
    "ell": "66c17b1ee33aced3f141afa3bf9f2b14dcdcbaefa7293d0899029e3627f5af83",
    "tee": "f2dfe28aeeaa9941f224f7b51b16b611f104a56d4e84fb22dcbb330beb98f0c4",
    "arrow": "def6b8e0f82f3546593e0ba919a13e52bc85016ea5eee7e84d64aebcf02f4013",
    "chevron": "c712421309704a835b69dea0a2eea4c76744111bc2f3634657e07615016175d9",
    "bolt": "d6dd33ee93ae5bd61dfcc5b94b9e12bf99caecd08716280a10a7bbb2aeeb1fdb",
    "trapezoid": "f4d1ddc0734a9daea24d5e7ea7a1b31d977a20d770e0175ed187769230ca64e5",
    "hook": "9c6ee90907d291b72b8bd8e463af85b09e3b17291b7c3da81946cc6f8ea82582",
    "crescent": "29dffbd08e71a0052a916e1bcabf71f408544ea3d925f3b7d51e7004d7ac12b8",
    "pacman": "c813563bef35a84cb47d8acab4d33ddbb9f31c0f0d4a8f5595855d2e34bbe237",
    "teardrop": "6c5adfa696160c3de0dea6372f89f7b295d63520b3b34a9bf4dd49ad67c56a64",
    "plus_uneven": "0d99d0bece176f0b3adf59a6ef27785a2c5e4fcdb27d70e9eb545d10e9415ca4",
    "hex_dented": "f683f70914b4fdabd4eea2dc3aee5103d4dc1862ee198bc47ede3828e2499959",
    "keyhole": "b6906641005a5bf10b5bd526c3da322091e1f8f32c8af26c961b2db79ca0c77b",
}


def bounding_box(pixels: np.ndarray) -> tuple[int, int, int, int]:
    ys, xs = np.nonzero(pixels)
    return int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max())


def test_default_size_rasters_are_pinned():
    got = {name: hashlib.sha256(image.pixels.tobytes()).hexdigest() for name, image in benchmark_shapes()}
    assert got == SHAPES_128_SHA256
    assert list(got) == list(SHAPES_128_SHA256)


def test_shapes_scale_with_size():
    for (name, small), (_, large) in zip(benchmark_shapes(128), benchmark_shapes(256)):
        assert large.pixels.shape == (256, 256)
        # Pixel i of the 128-px raster spans pixels 2i and 2i + 1 at 256 px.
        for edge_128, edge_256 in zip(bounding_box(small.pixels), bounding_box(large.pixels)):
            assert abs(edge_256 - (2 * edge_128 + 0.5)) <= 2, name
