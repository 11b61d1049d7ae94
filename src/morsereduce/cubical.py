"""Cubical complexes of binary images.

Every foreground pixel (r, c) contributes a closed unit square: the four
lattice vertices (r, c) .. (r+1, c+1), its four sides, and the square
itself. Shared faces are deduplicated, so adjacent pixels glue correctly.

Cell orderings are deterministic: vertices lexicographic by (row, col);
edges by (min endpoint, orientation) with horizontal before vertical;
squares in pixel row-major order.

build_cubical produces these orders in one scan of the lattice points
(r, c), 0 <= r <= height and 0 <= c <= width, in row-major order, over
the pixel grid padded with a background border. A lattice point is a
vertex when one of the four pixels around it is foreground, and it takes
the next vertex index. The horizontal edge to (r, c+1), present when the
pixel above or below it is, takes the next edge index, then the vertical
edge to (r+1, c), present when the pixel left or right of it is. So both
lists come out sorted, with no sort. The right end of a horizontal edge
is the next vertex numbered; the lower end of a vertical edge is filled
in when the scan reaches it, one row later. Pixel (r-1, c) is complete
when its bottom side, the horizontal edge at (r, c), is numbered, and
those completions come in pixel row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import TruncatedComplex
from .gf2 import Gf2Matrix
from .image import BinaryImage

__all__ = ["CubicalComplex", "build_cubical", "boundary_matrices"]

_DIGIT_VALUE = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class CubicalComplex:
    """Cells of an image: vertex coordinates, edges as vertex-index pairs, squares as edge-index quadruples."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    squares: tuple[tuple[int, int, int, int], ...]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.squares))


def build_cubical(img: BinaryImage) -> CubicalComplex:
    """Assemble the deduplicated cell lists for an image in one grid scan."""
    w, h = img.width, img.height
    if not img.bits:
        return CubicalComplex((), (), ())
    # Padded pixel rows: pixel (r, c) is rows[r + 1][c + 1], and the
    # border rows and columns are background.
    flat = format(img.bits, f"0{w * h}b")[::-1].encode().translate(_DIGIT_VALUE)
    blank = bytes(w + 2)
    rows = [blank]
    rows.extend(b"\0" + flat[r * w : (r + 1) * w] + b"\0" for r in range(h))
    rows.append(blank)
    vertices: list[tuple[int, int]] = []
    ends: list[int] = []  # two vertex indices per edge
    squares: list[tuple[int, int, int, int]] = []
    # Edge indices of the lattice row above, by column. V edge e's lower
    # end, ends[2 * e + 1], is filled in when the scan numbers that vertex.
    h_above = v_above = [0] * (w + 1)
    for r in range(h + 1):
        above, here = rows[r], rows[r + 1]
        h_row = [0] * (w + 1)
        v_row = [0] * (w + 1)
        for c in range(w + 1):
            up_left, up, left, pixel = above[c], above[c + 1], here[c], here[c + 1]
            if not (up_left or up or left or pixel):
                continue
            v = len(vertices)
            vertices.append((r, c))
            if up_left or up:  # the V edge from (r - 1, c) ends here
                ends[2 * v_above[c] + 1] = v
            if up or pixel:  # H edge (r, c) -- (r, c + 1); its right end is numbered next
                e = len(ends) >> 1
                ends += (v, v + 1)
                h_row[c] = e
                if up:  # its last side is numbered, so square (r - 1, c) is complete
                    squares.append((h_above[c], v_above[c], v_above[c + 1], e))
            if left or pixel:  # V edge (r, c) -- (r + 1, c)
                v_row[c] = len(ends) >> 1
                ends += (v, -1)
        h_above, v_above = h_row, v_row
    edges = tuple(zip(ends[::2], ends[1::2]))
    return CubicalComplex(tuple(vertices), edges, tuple(squares))


def boundary_matrices(cx: CubicalComplex) -> TruncatedComplex:
    """Mod-2 boundary matrices: D1 (vertices x edges) and D2 (edges x squares).

    D1[v][e] = 1 iff v is an endpoint of e; D2[e][s] = 1 iff e is a side of s.
    The result is a TruncatedComplex, whose constructor checks
    D1 . D2 = 0; it is passed on as it is, never rebuilt.

    The cell lists are the index rows of the transposes: cx.edges holds
    each edge's two vertices and cx.squares each square's four sides,
    sorted and distinct as build_cubical makes them, so D1ᵀ and D2ᵀ are
    held as those lists (Gf2Matrix._from_index) and D1 and D2 as their
    transposes. Each transpose remembers its source, so D1.transpose()
    is D1ᵀ again, and rank reads D1 through D1ᵀ as a graph. No words are
    built here; they are built only for a reader of bits.
    """
    c0, c1, c2 = cx.counts()
    d1t = Gf2Matrix._from_index(c1, c0, cx.edges)
    d2t = Gf2Matrix._from_index(c2, c1, cx.squares)
    return TruncatedComplex(d1t.transpose(), d2t.transpose())
