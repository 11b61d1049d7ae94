"""Cubical complexes of binary images.

Every foreground pixel (r, c) contributes a closed unit square: the four
lattice vertices (r, c) .. (r+1, c+1), its four sides, and the square
itself. Shared faces are deduplicated, so adjacent pixels glue correctly.

Cell orderings are deterministic: vertices lexicographic by (row, col);
edges by (min endpoint, orientation) with horizontal before vertical;
squares in pixel row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import TruncatedComplex
from .gf2 import Gf2Matrix
from .image import BinaryImage

__all__ = ["CubicalComplex", "build_cubical", "boundary_matrices"]

_H = 0  # edge (r, c) -- (r, c+1)
_V = 1  # edge (r, c) -- (r+1, c)


@dataclass(frozen=True)
class CubicalComplex:
    """Cells of an image: vertex coordinates, edges as vertex-index pairs, squares as edge-index quadruples."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    squares: tuple[tuple[int, int, int, int], ...]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.squares))


def build_cubical(img: BinaryImage) -> CubicalComplex:
    """Assemble the deduplicated cell lists for an image."""
    pixels = img.foreground()
    vertex_set: set[tuple[int, int]] = set()
    edge_set: set[tuple[int, int, int]] = set()
    for r, c in pixels:
        vertex_set.update(((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)))
        edge_set.update(
            (
                (r, c, _H),
                (r + 1, c, _H),
                (r, c, _V),
                (r, c + 1, _V),
            )
        )
    vertices = sorted(vertex_set)
    vertex_index = {v: i for i, v in enumerate(vertices)}
    edge_keys = sorted(edge_set)
    edge_index = {e: i for i, e in enumerate(edge_keys)}
    edges = []
    for r, c, orient in edge_keys:
        other = (r, c + 1) if orient == _H else (r + 1, c)
        edges.append((vertex_index[(r, c)], vertex_index[other]))
    squares = tuple(
        (
            edge_index[(r, c, _H)],
            edge_index[(r, c, _V)],
            edge_index[(r, c + 1, _V)],
            edge_index[(r + 1, c, _H)],
        )
        for r, c in pixels
    )
    return CubicalComplex(tuple(vertices), tuple(edges), squares)


def boundary_matrices(cx: CubicalComplex) -> TruncatedComplex:
    """Mod-2 boundary matrices: D1 (vertices x edges) and D2 (edges x squares).

    D1[v][e] = 1 iff v is an endpoint of e; D2[e][s] = 1 iff e is a side of s.
    The result is the [0, 2] window of an FGChainComplex, whose constructor
    checks D1 . D2 = 0; it is passed on as it is, never rebuilt.
    """
    c0, c1, c2 = cx.counts()
    d1_bits = [0] * c0
    for e, (va, vb) in enumerate(cx.edges):
        bit = 1 << e
        d1_bits[va] |= bit
        d1_bits[vb] |= bit
    d2_bits = [0] * c1
    for s, sides in enumerate(cx.squares):
        bit = 1 << s
        for e in sides:
            d2_bits[e] |= bit
    return TruncatedComplex(Gf2Matrix(c0, c1, d1_bits), Gf2Matrix(c1, c2, d2_bits))
