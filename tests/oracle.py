"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and shares no code with the
package: matrices are lists of 0/1 lists, elimination is textbook row
reduction, components come from a coordinate-keyed union-find, and the
pixel stream generator is a from-scratch SplitMix64.
"""

from __future__ import annotations

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[(x + y) % 2 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = zeros(rows, cols)
    for i in range(rows):
        row = a[i]
        acc = out[i]
        for k in range(inner):
            if row[k]:
                brow = b[k]
                for j in range(cols):
                    acc[j] ^= brow[j]
    return out


def transpose(a: Matrix, cols: int | None = None) -> Matrix:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


def is_zero(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def rank(a: Matrix) -> int:
    m = [row[:] for row in a]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def rref(a: Matrix, cols: int) -> tuple[Matrix, list[int]]:
    """Textbook Gauss-Jordan: the reduced row-echelon form and its pivot columns.

    Columns are scanned left to right; zero rows are dropped from the result.
    """
    m = [row[:] for row in a]
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    return m[:r], pivot_cols


def kernel_basis(a: Matrix, cols: int) -> Matrix:
    """The cols x k matrix of the canonical null-space basis read off the RREF.

    One basis column per free column, in increasing order: a 1 in that free
    column, the RREF entries of that column in the pivot positions.
    """
    reduced, pivot_cols = rref(a, cols)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    out = zeros(cols, len(free_cols))
    for k, fc in enumerate(free_cols):
        out[fc][k] = 1
        for row, pc in zip(reduced, pivot_cols):
            out[pc][k] = row[fc]
    return out


def inverse(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix by Gauss-Jordan on [a | I], or None if singular."""
    n = len(a)
    reduced, pivot_cols = rref([row + unit for row, unit in zip(a, identity(n))], 2 * n)
    if pivot_cols[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def betti_from_matrices(dims: tuple[int, int, int], d1: Matrix, d2: Matrix) -> tuple[int, int, int]:
    r1, r2 = rank(d1), rank(d2)
    return (dims[0] - r1, dims[1] - r1 - r2, dims[2] - r2)


def count_components_uf(pixels: set[tuple[int, int]]) -> int:
    """8-connected component count by union-find over coordinate tuples."""
    parent: dict[tuple[int, int], tuple[int, int]] = {p: p for p in pixels}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for r, c in pixels:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (dr, dc) != (0, 0) and (r + dr, c + dc) in parent:
                    ra, rb = find((r, c)), find((r + dr, c + dc))
                    if ra != rb:
                        parent[ra] = rb
    return sum(1 for p in parent if parent[p] == p)


def splitmix64_pixels(width: int, height: int, density: float, seed: int) -> list[int]:
    """Row-major 0/1 pixel stream; must agree with the package generator."""
    mask = (1 << 64) - 1
    state = seed & mask
    cut = int(density * (1 << 53))
    out = []
    for _ in range(width * height):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE2B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(1 if (z >> 11) < cut else 0)
    return out
