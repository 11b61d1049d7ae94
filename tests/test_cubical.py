"""Unit tests for cubical complex construction from images."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsereduce.complexes import betti
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.image import BinaryImage, random_image

import oracle


def test_single_pixel_cells_and_orderings():
    cx = build_cubical(BinaryImage.from_rows([[1]]))
    assert cx.counts() == (4, 4, 1)
    assert cx.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    # Edge order: (0,0)h, (0,0)v, (0,1)v, (1,0)h as vertex-index pairs.
    assert cx.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert cx.squares == ((0, 1, 2, 3),)


def test_adjacent_pixels_share_cells():
    cx = build_cubical(BinaryImage.from_rows([[1, 1]]))
    assert cx.counts() == (6, 7, 2)
    cx_v = build_cubical(BinaryImage.from_rows([[1], [1]]))
    assert cx_v.counts() == (6, 7, 2)


def test_ring_cell_counts():
    ring = BinaryImage.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    cx = build_cubical(ring)
    assert cx.counts() == (16, 24, 8)


def test_empty_image_yields_empty_complex():
    t = boundary_matrices(build_cubical(BinaryImage(4, 3, 0)))
    assert t.dims() == (0, 0, 0)
    assert betti(t) == {0: 0, 1: 0, 2: 0}


def test_boundary_matrix_column_weights():
    img = random_image(7, 6, 0.5, 77)
    t = boundary_matrices(build_cubical(img))
    d1_cols = t.d1.transpose()
    assert all(word.bit_count() == 2 for word in d1_cols.bits)
    d2_cols = t.d2.transpose()
    assert all(word.bit_count() == 4 for word in d2_cols.bits)
    assert t.d1.mul(t.d2).is_zero()


def test_single_pixel_homology_frozen():
    t = boundary_matrices(build_cubical(BinaryImage.from_rows([[1]])))
    assert t.d1.rank() == 3
    assert t.d2.rank() == 1
    assert betti(t) == {0: 1, 1: 0, 2: 0}


def test_ring_homology_frozen():
    ring = BinaryImage.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    t = boundary_matrices(build_cubical(ring))
    assert betti(t) == {0: 1, 1: 1, 2: 0}


def test_betti_against_oracle_on_random_images():
    rng = random.Random(13)
    for _ in range(15):
        img = random_image(rng.randint(2, 9), rng.randint(2, 9), rng.random(), rng.randint(0, 10**9))
        t = boundary_matrices(build_cubical(img))
        want = oracle.betti_from_matrices(t.dims(), t.d1.to_rows(), t.d2.to_rows())
        got = betti(t)
        assert (got[0], got[1], got[2]) == want
        # Euler characteristic agrees with the alternating Betti sum.
        assert t.c0 - t.c1 + t.c2 == got[0] - got[1] + got[2]


def test_squares_reference_their_four_sides():
    img = random_image(5, 5, 0.6, 3)
    cx = build_cubical(img)
    for sides in cx.squares:
        assert len(set(sides)) == 4
        verts = set()
        for e in sides:
            verts.update(cx.edges[e])
        assert len(verts) == 4  # the four corners of one unit square
        rs = [cx.vertices[v][0] for v in verts]
        cs = [cx.vertices[v][1] for v in verts]
        assert max(rs) - min(rs) == 1 and max(cs) - min(cs) == 1


def assert_cells_match_the_oracle(img):
    cx = build_cubical(img)
    vertices, edges, squares = oracle.cubical_cells(set(img.foreground()))
    assert cx.vertices == vertices
    assert cx.edges == edges
    assert cx.squares == squares


@st.composite
def images(draw, largest=20):
    width, height = draw(st.integers(0, largest)), draw(st.integers(0, largest))
    return BinaryImage(width, height, draw(st.integers(0, (1 << (width * height)) - 1)))


@settings(max_examples=300, deadline=None)
@given(images())
def test_grid_scan_matches_the_set_and_sort_oracle(img):
    assert_cells_match_the_oracle(img)


@settings(max_examples=150, deadline=None)
@given(images())
@example(random_image(40, 36, 0.35, 5))  # D1 rows up to 2000 columns wide
def test_boundary_matrices_are_the_textbook_incidences_of_the_oracle_cells(img):
    vertices, edges, squares = oracle.cubical_cells(set(img.foreground()))
    d1 = [[int(v in edge) for edge in edges] for v in range(len(vertices))]
    d2 = [[int(e in square) for square in squares] for e in range(len(edges))]
    cx = build_cubical(img)
    t = boundary_matrices(cx)
    assert t.dims() == (len(vertices), len(edges), len(squares))
    assert t.d1.to_rows() == d1 and t.d2.to_rows() == d2
    # D1 and D2 keep their rows' set columns as their index, and each is
    # the transpose of its cell list, which its transpose() hands back.
    assert list(map(list, t.d1._index)) == oracle.set_columns(d1)
    assert list(map(list, t.d2._index)) == oracle.set_columns(d2)
    assert t.d1.transpose()._index == cx.edges and t.d2.transpose()._index == cx.squares


def _full(width, height):
    return BinaryImage(width, height, (1 << (width * height)) - 1)


# Ids are width x height.
@pytest.mark.parametrize(
    "img",
    [
        BinaryImage(0, 5, 0),
        BinaryImage(5, 0, 0),
        BinaryImage(0, 0, 0),
        BinaryImage(7, 6, 0),
        _full(7, 6),
        _full(1, 1),
        _full(9, 1),
        _full(1, 9),
        BinaryImage.from_rows([[1, 0, 1, 1, 0, 0, 1]]),
        BinaryImage.from_rows([[1], [0], [1], [1], [0], [0], [1]]),
        BinaryImage.from_rows([[(r + c) % 2 for c in range(8)] for r in range(7)]),
        BinaryImage.from_rows([[(r + c + 1) % 2 for c in range(7)] for r in range(8)]),
    ],
    ids=["0x5", "5x0", "0x0", "background", "foreground", "1x1", "9x1", "1x9",
         "7x1", "1x7", "checkerboard", "checkerboard-shifted"],
)
def test_grid_scan_matches_the_oracle_on_edge_cases(img):
    assert_cells_match_the_oracle(img)
