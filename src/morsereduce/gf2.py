"""Dense exact linear algebra over the two-element field.

Matrices are immutable and bit-packed: each row is one arbitrary-precision
integer whose bit j is the entry in column j. Row operations are single
integer XORs, so everything here is exact — no floats, no overflow, and
zero-dimensional matrices compose like any other.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

__all__ = [
    "Gf2Matrix",
    "Permutation",
    "Singular",
    "NotNilpotent",
    "hstack",
    "vstack",
    "join4",
    "parse_matrix_text",
    "format_matrix_text",
]


class Singular(Exception):
    """Raised when a matrix required to be invertible is not."""


class NotNilpotent(Exception):
    """Raised when a claimed nilpotency bound fails to annihilate a matrix."""


class Gf2Matrix:
    """An immutable rows x cols matrix over GF(2).

    ``bits[i]`` holds row i with bit ``1 << j`` as the entry in column j;
    bits at or above ``cols`` are required to be zero.
    """

    __slots__ = ("rows", "cols", "bits")

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __init__(self, rows: int, cols: int, bits: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension: {rows}x{cols}")
        packed = tuple(bits)
        if len(packed) != rows:
            raise ValueError(f"expected {rows} row words, got {len(packed)}")
        for i, word in enumerate(packed):
            if word < 0 or word >> cols:
                raise ValueError(f"row {i} has bits outside {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "bits", packed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Gf2Matrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, bits: tuple[int, ...]) -> Gf2Matrix:
        # Internal constructor for values already known to be in range.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "bits", bits)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Gf2Matrix:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension: {rows}x{cols}")
        return cls._raw(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        if n < 0:
            raise ValueError(f"negative dimension: {n}")
        return cls._raw(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> Gf2Matrix:
        """Build a matrix from nested 0/1 entries; ``cols`` disambiguates 0-row shapes."""
        bits = []
        width = cols
        for row in rows:
            word = 0
            n = 0
            for j, entry in enumerate(row):
                if entry not in (0, 1):
                    raise ValueError(f"entry {entry!r} is not 0 or 1")
                word |= entry << j
                n = j + 1
            if width is None:
                width = n
            elif n != width:
                raise ValueError(f"ragged rows: {n} != {width}")
            bits.append(word)
        return cls(len(bits), width or 0, bits)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return (self.bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[(word >> j) & 1 for j in range(self.cols)] for word in self.bits]

    def is_zero(self) -> bool:
        return not any(self.bits)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            word == 1 << i for i, word in enumerate(self.bits)
        )

    def is_lower_unitriangular(self) -> bool:
        """True iff square with 1s on the diagonal and 0s strictly above it."""
        return self.rows == self.cols and all(
            word >> i == 1 for i, word in enumerate(self.bits)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self) -> str:
        return f"<Gf2Matrix {self.rows}x{self.cols}>"

    def __str__(self) -> str:
        return "\n".join(
            " ".join(str((word >> j) & 1) for j in range(self.cols))
            for word in self.bits
        )

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch for sum: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return Gf2Matrix._raw(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.bits, other.bits))
        )

    def mul(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        obits = other.bits
        out = []
        for word in self.bits:
            acc = 0
            while word:
                low = word & -word
                acc ^= obits[low.bit_length() - 1]
                word ^= low
            out.append(acc)
        return Gf2Matrix._raw(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        return self.mul(other)

    def transpose(self) -> Gf2Matrix:
        out = [0] * self.cols
        for i, word in enumerate(self.bits):
            flag = 1 << i
            while word:
                low = word & -word
                out[low.bit_length() - 1] |= flag
                word ^= low
        return Gf2Matrix._raw(self.cols, self.rows, tuple(out))

    def pow(self, k: int) -> Gf2Matrix:
        if self.rows != self.cols:
            raise ValueError(f"pow needs a square matrix, got {self.rows}x{self.cols}")
        if k < 0:
            raise ValueError("negative exponent")
        result = Gf2Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    def rank(self) -> int:
        # Pivot dictionary, as in inverse and right_kernel_basis: each row
        # is XORed against the pivot stored for its current key bit until
        # it is zero or claims a free key. Rank needs no canonical form, so
        # the key is the leading bit (bit_length is O(1) on ints) and the
        # cost is pure row XORs.
        pivots: dict[int, int] = {}
        limit = min(self.rows, self.cols)
        for word in self.bits:
            w = word
            while w:
                lead = w.bit_length()
                p = pivots.get(lead)
                if p is None:
                    pivots[lead] = w
                    if len(pivots) == limit:
                        return limit
                    break
                w ^= p
        return len(pivots)

    def inverse(self) -> Gf2Matrix:
        """Two-sided inverse; raises Singular, naming a dependent row, if none exists.

        Gauss-Jordan on [self | I] by the pivot-dictionary elimination that
        rank and right_kernel_basis also use (see _rref), so the cost
        follows the fill of the rows rather than rows x cols.
        """
        if self.rows != self.cols:
            raise ValueError(f"inverse needs a square matrix, got {self.rows}x{self.cols}")
        n = self.rows
        # Augment each row with the matching identity row in the high bits.
        pivots, dependent = _rref(
            (word | (1 << (n + i)) for i, word in enumerate(self.bits)), n
        )
        if dependent >= 0:
            raise Singular(
                f"{n}x{n} matrix is singular: row {dependent} is a sum of earlier rows"
            )
        return Gf2Matrix._raw(n, n, tuple(pivots[c] >> n for c in range(n)))

    def inv_unit_lower_triangular(self) -> Gf2Matrix:
        """Inverse by forward substitution; input must be unit lower triangular."""
        if not self.is_lower_unitriangular():
            raise ValueError("matrix is not unit lower triangular")
        inv: list[int] = []
        for i, word in enumerate(self.bits):
            acc = 1 << i
            below = word ^ (1 << i)
            while below:
                low = below & -below
                acc ^= inv[low.bit_length() - 1]
                below ^= low
            inv.append(acc)
        return Gf2Matrix._raw(self.rows, self.rows, tuple(inv))

    def right_kernel_basis(self) -> Gf2Matrix:
        """A cols x k matrix whose columns span {v : self @ v = 0}, k = cols - rank.

        The basis is the canonical one read off the reduced row-echelon
        form, computed by the pivot-dictionary elimination that rank and
        inverse also use (see _rref). Pivot columns are the rows' lowest
        set bits; there is one basis column per free column, in increasing
        order, with a 1 in that free column and the RREF entries in the
        pivot columns. The cost follows the fill of the rows, not
        rows x cols.
        """
        nc = self.cols
        pivots, _ = _rref(self.bits, nc)
        free = [c for c in range(nc) if c not in pivots]
        flag = {c: 1 << idx for idx, c in enumerate(free)}
        out = [flag.get(c, 0) for c in range(nc)]
        for pc, word in pivots.items():
            rest = word ^ (1 << pc)
            acc = 0
            while rest:
                low = rest & -rest
                acc |= flag[low.bit_length() - 1]
                rest ^= low
            out[pc] = acc
        return Gf2Matrix._raw(nc, len(free), tuple(out))

    def nilpotent_series_inverse(self, bound: int) -> Gf2Matrix:
        """Inverse of (I + self) as the finite sum I + self + ... + self^(bound-1).

        Requires ``self.pow(bound)`` to vanish; raises NotNilpotent otherwise.
        The inverse identity is re-checked on the result before returning.
        """
        if self.rows != self.cols:
            raise ValueError(f"series needs a square matrix, got {self.rows}x{self.cols}")
        if bound < 0:
            raise ValueError("negative bound")
        if not self.pow(bound).is_zero():
            raise NotNilpotent(f"matrix^{bound} is nonzero")
        n = self.rows
        # Build S(t) = I + n + ... + n^(t-1) by binary splitting:
        # doubling t uses S(2t) = S(t) + n^t S(t), increment uses S(t+1) = S(t) + n^t.
        total = Gf2Matrix.zeros(n, n)
        power = Gf2Matrix.identity(n)
        for ch in bin(bound)[2:]:
            total = total + power.mul(total)
            power = power.mul(power)
            if ch == "1":
                total = total + power
                power = power.mul(self)
        one_plus = self + Gf2Matrix.identity(n)
        if not (one_plus.mul(total).is_identity() and total.mul(one_plus).is_identity()):
            raise AssertionError("series inverse self-check failed")
        return total

    def permute(self, row_perm: Permutation, col_perm: Permutation) -> Gf2Matrix:
        """Relocate entries: result[row_perm(i)][col_perm(j)] = self[i][j]."""
        if row_perm.size != self.rows or col_perm.size != self.cols:
            raise ValueError(
                f"permutation sizes {row_perm.size}/{col_perm.size} do not match {self.rows}x{self.cols}"
            )
        cmap = col_perm.image
        out = [0] * self.rows
        for i, word in enumerate(self.bits):
            acc = 0
            while word:
                low = word & -word
                acc |= 1 << cmap[low.bit_length() - 1]
                word ^= low
            out[row_perm.image[i]] = acc
        return Gf2Matrix._raw(self.rows, self.cols, tuple(out))

    def split_rows(self, i: int) -> tuple[Gf2Matrix, Gf2Matrix]:
        """Split into the first i rows and the rest."""
        if not 0 <= i <= self.rows:
            raise ValueError(f"row split {i} out of range for {self.rows} rows")
        return (
            Gf2Matrix._raw(i, self.cols, self.bits[:i]),
            Gf2Matrix._raw(self.rows - i, self.cols, self.bits[i:]),
        )

    def split_cols(self, j: int) -> tuple[Gf2Matrix, Gf2Matrix]:
        """Split into the first j columns and the rest."""
        if not 0 <= j <= self.cols:
            raise ValueError(f"column split {j} out of range for {self.cols} columns")
        mask = (1 << j) - 1
        left = tuple(word & mask for word in self.bits)
        right = tuple(word >> j for word in self.bits)
        return (
            Gf2Matrix._raw(self.rows, j, left),
            Gf2Matrix._raw(self.rows, self.cols - j, right),
        )

    def split4(self, i: int, j: int) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix, Gf2Matrix]:
        """Quadrants (top-left, top-right, bottom-left, bottom-right) at row i, column j."""
        top, bottom = self.split_rows(i)
        tl, tr = top.split_cols(j)
        bl, br = bottom.split_cols(j)
        return tl, tr, bl, br


def _rref(words: Iterable[int], width: int) -> tuple[dict[int, int], int]:
    """Reduced row-echelon form of bit-packed rows, pivoting in columns below width.

    Returns ``(pivots, dependent)``. ``pivots`` maps each pivot column to
    its RREF row; a row's pivot column is its lowest set bit, and the row
    is zero in every other pivot column. ``dependent`` is the index of the
    first row whose low ``width`` bits are a sum of earlier rows', or -1.

    Each row is XORed against the pivot stored for its lowest set bit
    until that bit is free, and the row joins the dictionary, or the row
    is dependent: it is zero or its lowest set bit is at or above
    ``width``. A back-substitution pass, from the highest pivot column
    down, then clears the other pivot columns. Both passes visit set bits
    only, so the cost follows the fill.
    """
    pivots: dict[int, int] = {}
    dependent = -1
    for i, w in enumerate(words):
        col = (w & -w).bit_length() - 1
        p = pivots.get(col)
        while p is not None:
            w ^= p
            col = (w & -w).bit_length() - 1
            p = pivots.get(col)
        if 0 <= col < width:
            pivots[col] = w
        elif dependent < 0:
            dependent = i
    mask = 0
    for col in pivots:
        mask |= 1 << col
    for col in sorted(pivots, reverse=True):
        w = pivots[col]
        above = (w & mask) ^ (1 << col)
        while above:
            low = above & -above
            w ^= pivots[low.bit_length() - 1]
            above ^= low
        pivots[col] = w
    return pivots, dependent


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}; image[i] is where position i is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        seen = [False] * n
        for v in self.image:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of range({n}): {self.image}")
            seen[v] = True

    @property
    def size(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    def __call__(self, i: int) -> int:
        return self.image[i]


def hstack(left: Gf2Matrix, right: Gf2Matrix) -> Gf2Matrix:
    if left.rows != right.rows:
        raise ValueError(f"row mismatch: {left.rows} vs {right.rows}")
    shift = left.cols
    bits = tuple(a | (b << shift) for a, b in zip(left.bits, right.bits))
    return Gf2Matrix._raw(left.rows, left.cols + right.cols, bits)


def vstack(top: Gf2Matrix, bottom: Gf2Matrix) -> Gf2Matrix:
    if top.cols != bottom.cols:
        raise ValueError(f"column mismatch: {top.cols} vs {bottom.cols}")
    return Gf2Matrix._raw(top.rows + bottom.rows, top.cols, top.bits + bottom.bits)


def join4(tl: Gf2Matrix, tr: Gf2Matrix, bl: Gf2Matrix, br: Gf2Matrix) -> Gf2Matrix:
    return vstack(hstack(tl, tr), hstack(bl, br))


def parse_matrix_text(text: str) -> Gf2Matrix:
    """Parse the dense text format: a "rows cols" line, then one 0/1 token per entry.

    An empty dimension means there are no data lines. Raises ValueError on
    malformed headers, non-binary tokens, or a token count mismatch.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"bad matrix header: {tokens[0]!r} {tokens[1]!r}") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"negative dimension in header: {rows} {cols}")
    entries = tokens[2:]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    bits = [0] * rows
    for pos, tok in enumerate(entries):
        if tok == "1":
            bits[pos // cols] |= 1 << (pos % cols)
        elif tok != "0":
            raise ValueError(f"entry {pos} is {tok!r}, not 0 or 1")
    return Gf2Matrix(rows, cols, bits)


def format_matrix_text(m: Gf2Matrix) -> str:
    """Render a matrix in the dense text format accepted by parse_matrix_text."""
    lines = [f"{m.rows} {m.cols}"]
    for word in m.bits:
        lines.append(" ".join(str((word >> j) & 1) for j in range(m.cols)))
    return "\n".join(lines) + "\n"
