"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and shares no code with the
package: matrices are lists of 0/1 lists, elimination is textbook row
reduction, cubical cells and components come from coordinate-keyed sets
and a union-find, and the pixel stream generator is a from-scratch
SplitMix64.
"""

from __future__ import annotations

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[(x + y) % 2 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix, cols: int | None = None) -> Matrix:
    """The product a b; ``cols`` gives its width when b has no rows."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else cols or 0
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


def permute(a: Matrix, row_image: list[int], col_image: list[int]) -> Matrix:
    """Entry (i, j) moved to (row_image[i], col_image[j])."""
    out = zeros(len(a), len(col_image))
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            out[row_image[i]][col_image[j]] = x
    return out


def unit_lower_inverse(a: Matrix) -> Matrix:
    """Inverse of a unit lower triangular matrix by forward substitution.

    Row i of the inverse x solves a x = I: x[i] = e_i + sum of a[i][j] x[j]
    over j < i, the minus sign being a plus over GF(2).
    """
    n = len(a)
    x = identity(n)
    for i in range(n):
        for j in range(i):
            if a[i][j]:
                x[i] = [(u + v) % 2 for u, v in zip(x[i], x[j])]
    return x


def set_columns(a: Matrix) -> list[list[int]]:
    """The columns of each row's 1s, in increasing order."""
    return [[j for j, x in enumerate(row) if x] for row in a]


def words(a: Matrix) -> list[int]:
    """Each row as one integer whose bit j is the entry in column j."""
    return [sum(x << j for j, x in enumerate(row)) for row in a]


def is_zero(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def is_identity(a: Matrix, cols: int) -> bool:
    """Square, with a[i][j] = 1 exactly when i = j."""
    return len(a) == cols and all(
        a[i][j] == (1 if i == j else 0) for i in range(cols) for j in range(cols)
    )


def is_lower_unitriangular(a: Matrix, cols: int) -> bool:
    """Square, 1 on the diagonal and 0 at every (i, j) with j > i."""
    return len(a) == cols and all(
        a[i][i] == 1 and all(a[i][j] == 0 for j in range(i + 1, cols)) for i in range(cols)
    )


def power(a: Matrix, k: int) -> Matrix:
    """a to the k-th power by repeated squaring; the identity for k = 0."""
    n = len(a)
    out, base = identity(n), a
    while k:
        if k % 2:
            out = mat_mul(out, base, n)
        base = mat_mul(base, base, n)
        k //= 2
    return out


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


def rs_greedy(a: Matrix, cols: int) -> tuple[list[tuple[int, int]], set[tuple[int, int]], dict[int, int]]:
    """Greedy admissible pairing: ``(pairs, relation, lambdas)``.

    Rows in increasing order each take the first column, in increasing
    order, that holds a 1, is not yet taken, and whose induced edges
    (row -> every other row with a 1 in that column) close no cycle: no
    such row may already reach the pairing row, which a depth-first
    search over the edges so far decides. lambdas holds, for each paired
    row, the edge count of the longest relation path out of it, found by
    relaxing every edge until nothing changes.
    """
    rows = len(a)
    succ: dict[int, list[int]] = {r: [] for r in range(rows)}

    def reaches(src: int, dst: int) -> bool:
        seen = set()
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            if u not in seen:
                seen.add(u)
                stack.extend(succ[u])
        return False

    taken = [False] * cols
    pairs = []
    for i in range(rows):
        for c in range(cols):
            if not a[i][c] or taken[c]:
                continue
            targets = [r for r in range(rows) if r != i and a[r][c]]
            if any(reaches(t, i) for t in targets):
                continue
            pairs.append((i, c))
            taken[c] = True
            succ[i].extend(targets)
            break
    relation = {(u, v) for u in succ for v in succ[u]}
    longest = [0] * rows
    changed = True
    while changed:
        changed = False
        for u, v in relation:
            if longest[v] + 1 > longest[u]:
                longest[u] = longest[v] + 1
                changed = True
    return pairs, relation, {r: longest[r] for r, _ in pairs}


def betti_from_matrices(dims: tuple[int, int, int], d1: Matrix, d2: Matrix) -> tuple[int, int, int]:
    r1, r2 = rank(d1), rank(d2)
    return (dims[0] - r1, dims[1] - r1 - r2, dims[2] - r2)


def cubical_cells(
    pixels: set[tuple[int, int]],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], tuple[tuple[int, int, int, int], ...]]:
    """The cells of the closed unit squares on the pixels: (vertices, edges, squares).

    Each pixel (r, c) puts its four corners, its four sides and itself in
    coordinate-keyed sets. Vertices are sorted by (row, col); an edge is
    keyed by its first endpoint and its orientation, 0 for horizontal
    (to (r, c + 1)) before 1 for vertical (to (r + 1, c)), sorted, and
    given as a pair of vertex indices; a square is its sides' edge
    indices (top, left, right, bottom), in pixel row-major order.
    """
    vertex_set: set[tuple[int, int]] = set()
    edge_set: set[tuple[int, int, int]] = set()
    for r, c in pixels:
        vertex_set.update(((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)))
        edge_set.update(((r, c, 0), (r + 1, c, 0), (r, c, 1), (r, c + 1, 1)))
    vertices = sorted(vertex_set)
    vertex_index = {v: i for i, v in enumerate(vertices)}
    edge_keys = sorted(edge_set)
    edge_index = {e: i for i, e in enumerate(edge_keys)}
    edges = tuple(
        (vertex_index[(r, c)], vertex_index[(r, c + 1) if horizontal == 0 else (r + 1, c)])
        for r, c, horizontal in edge_keys
    )
    squares = tuple(
        (edge_index[(r, c, 0)], edge_index[(r, c, 1)], edge_index[(r, c + 1, 1)], edge_index[(r + 1, c, 0)])
        for r, c in sorted(pixels)
    )
    return tuple(vertices), edges, squares


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


def count_holes_4(pixels: set[tuple[int, int]], height: int, width: int) -> int:
    """Background components that do not touch the border: b1 of the image.

    Background pixels are (row, column) positions inside the height x width
    frame that are not in pixels, joined through shared edges (4-connected).
    A component with a pixel in the first or last row or column reaches the
    unbounded outside; every other one is a hole in the closed foreground
    squares. One breadth-first pass over the frame, so linear in its size.
    """
    seen = [[(r, c) in pixels for c in range(width)] for r in range(height)]
    holes = 0
    for r0 in range(height):
        for c0 in range(width):
            if seen[r0][c0]:
                continue
            seen[r0][c0] = True
            queue = [(r0, c0)]
            bounded = True
            for r, c in queue:
                if r in (0, height - 1) or c in (0, width - 1):
                    bounded = False
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < height and 0 <= nc < width and not seen[nr][nc]:
                        seen[nr][nc] = True
                        queue.append((nr, nc))
            holes += bounded
    return holes


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
