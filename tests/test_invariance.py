"""Betti numbers do not change under the symmetries of the pixel grid.

Transposing, flipping, rotating by 90 degrees or padding with background
maps the foreground onto a homeomorphic set, so both Betti vectors the
pipeline reports, on the original and on the reduced complex, must stay
the same.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsereduce.image import BinaryImage, random_image
from morsereduce.pipeline import reduce_pipeline


def _rows(img):
    return [[img.get(r, c) for c in range(img.width)] for r in range(img.height)]


def transpose(img):
    return BinaryImage.from_rows([list(col) for col in zip(*_rows(img))])


def flip_horizontal(img):
    return BinaryImage.from_rows([row[::-1] for row in _rows(img)])


def flip_vertical(img):
    return BinaryImage.from_rows(_rows(img)[::-1])


def rotate_90(img):
    return BinaryImage.from_rows([list(col) for col in zip(*_rows(img)[::-1])])


def pad(img, p):
    width = img.width + 2 * p
    blank = [[0] * width for _ in range(p)]
    return BinaryImage.from_rows(blank + [[0] * p + row + [0] * p for row in _rows(img)] + blank)


def images(max_side):
    return st.builds(
        random_image,
        st.integers(1, max_side),
        st.integers(1, max_side),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )


def betti_vectors(img, fast):
    res = reduce_pipeline(img, fast=fast)
    assert res.ok
    return res.betti_original, res.betti_reduced


def assert_invariant(img, pad_by, fast):
    want = betti_vectors(img, fast)
    for moved in (
        transpose(img),
        flip_horizontal(img),
        flip_vertical(img),
        rotate_90(img),
        pad(img, pad_by),
    ):
        assert betti_vectors(moved, fast) == want


def test_grid_symmetries_move_the_pixels():
    img = BinaryImage.from_rows([[1, 1, 0], [0, 0, 1]])
    assert _rows(transpose(img)) == [[1, 0], [1, 0], [0, 1]]
    assert _rows(flip_horizontal(img)) == [[0, 1, 1], [1, 0, 0]]
    assert _rows(flip_vertical(img)) == [[0, 0, 1], [1, 1, 0]]
    assert _rows(rotate_90(img)) == [[0, 1], [0, 1], [1, 0]]
    assert _rows(pad(img, 1)) == [
        [0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
    ]


@settings(max_examples=150, deadline=None)
@given(images(12), st.integers(1, 3))
@example(BinaryImage.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]]), 2)
def test_fast_betti_numbers_are_invariant_under_grid_symmetries(img, pad_by):
    assert_invariant(img, pad_by, fast=True)


@settings(max_examples=25, deadline=None)
@given(images(6), st.integers(1, 3))
def test_certified_betti_numbers_are_invariant_under_grid_symmetries(img, pad_by):
    assert_invariant(img, pad_by, fast=False)
