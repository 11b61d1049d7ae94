"""Dense exact linear algebra over the two-element field.

Matrices are immutable and bit-packed: each row is one arbitrary-precision
integer whose bit j is the entry in column j. Row operations are single
integer XORs, so everything here is exact — no floats, no overflow, and
zero-dimensional matrices compose like any other.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import eq, le

__all__ = [
    "Gf2Matrix",
    "Permutation",
    "Singular",
    "NotNilpotent",
    "hstack",
    "vstack",
    "parse_matrix_text",
    "format_matrix_text",
]


# Row count from which transpose peels each row word from its lowest set
# bit (see _transpose_words). Below it a column word is at most 2 KB,
# where an operation on the whole word costs about what a narrow one
# does, and the plain loop, with no band to find, is the cheaper one.
_WIDE = 1 << 14


class Singular(Exception):
    """Raised when a matrix required to be invertible is not."""


class NotNilpotent(Exception):
    """Raised when a claimed nilpotency bound fails to annihilate a matrix."""


class Gf2Matrix:
    """An immutable rows x cols matrix over GF(2).

    ``bits[i]`` holds row i with bit ``1 << j`` as the entry in column j;
    bits at or above ``cols`` are required to be zero.

    ``mul`` tries four steps in turn, each on the actual operands: the
    record, the identity pass-through, the pin, and the one row loop over
    the left factor's set bits.

    ``_record`` is None or ``(right, is_identity)``: the right factor of
    the last product ``mul`` formed with this matrix on the left that
    came out zero (False) or the identity (True). It holds nothing else,
    and in particular no product. ``_permute_pair`` also carries a zero
    record across a permutation: when A recorded B as a zero product,
    (P A Q^-1)(Q B) = P (A B) is zero too, so the permuted A
    records the permuted B, and no product of the two is formed.

    ``_pin`` is None or a _Pin: a claim, made by the block elimination,
    that this matrix is a homotopy [L^-1 in one column band; 0] or a lift
    [L^-1 T; 0; I] for a unit lower triangular L. Like the record, it
    names factors and holds no product; mul checks it on this matrix's
    own bits before it relies on it (see _Pin).
    """

    __slots__ = ("rows", "cols", "bits", "_record", "_pin")

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
        object.__setattr__(self, "_record", None)
        object.__setattr__(self, "_pin", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Gf2Matrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, bits: tuple[int, ...]) -> Gf2Matrix:
        # Internal constructor for values already known to be in range.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "bits", bits)
        object.__setattr__(m, "_record", None)
        object.__setattr__(m, "_pin", None)
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
        return cls._raw(n, n, tuple(_unit_words(n)))

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
        # The last and first rows reject most square non-identities at
        # once. The full scan then asks that row i's highest set bit be
        # bit i, so each row holds at least that bit, and that there be n
        # set bits in all, so each row holds only that bit.
        n = self.rows
        if n != self.cols:
            return False
        if n == 0:
            return True
        bits = self.bits
        return (
            bits[-1].bit_count() == 1
            and bits[-1].bit_length() == n
            and bits[0] == 1
            and all(map(eq, map(int.bit_length, bits), range(1, n + 1)))
            and sum(map(int.bit_count, bits)) == n
        )

    def is_lower_unitriangular(self) -> bool:
        """True iff square with 1s on the diagonal and 0s strictly above it."""
        # Row i qualifies exactly when its highest set bit is bit i.
        return self.rows == self.cols and all(
            map(eq, map(int.bit_length, self.bits), range(1, self.rows + 1))
        )

    def _is_strictly_lower(self) -> bool:
        # Row i qualifies exactly when it has no set bit at or above bit i.
        return self.rows == self.cols and all(
            map(le, map(int.bit_length, self.bits), range(self.rows))
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
        # 1. The record. Matrices are immutable, so the same operands always
        # give the same product: one this factor already formed with an
        # equal right factor and found to be zero or I is known at once.
        record = self._record
        if record is not None and (record[0] is other or record[0] == other):
            if record[1]:
                return Gf2Matrix.identity(self.rows)
            return Gf2Matrix.zeros(self.rows, other.cols)
        # 2. A product by the identity is the other factor itself.
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        # 3. A pinned factor answers by forward substitution through its L,
        # once its claim has held on its bits. 4. Otherwise the row loop
        # costs one row XOR per set bit of this factor.
        pin = self._pin
        words = None if pin is None else self._pinned_product(pin, other)
        if words is None:
            words = _mul_rows(self.bits, other.bits)
        product = Gf2Matrix._raw(self.rows, other.cols, words)
        # A square that recorded itself would be freed only by the cycle
        # collector, so a matrix's own square is not recorded.
        if other is not self:
            if product.is_zero():
                object.__setattr__(self, "_record", (other, False))
            elif product.is_identity():
                object.__setattr__(self, "_record", (other, True))
        return product

    def _pinned_product(self, pin: _Pin, other: Gf2Matrix) -> tuple[int, ...] | None:
        """The row words of self·other through self's pin, or None for the row loop.

        The pin is checked once, on the first call; if it fails or does
        not pay (see _Pin.holds), it is dropped and None is returned.
        """
        if not pin.checked:
            if not pin.holds(self):
                object.__setattr__(self, "_pin", None)
                return None
            pin.checked = True
        lower, rhs = pin.lower, pin.rhs
        a = lower.rows
        if rhs is None:  # h = [L^-1 in columns offset.. offset + a; 0]
            top = lower._forward(other.bits[pin.offset : pin.offset + a])
            return top + (0,) * (self.rows - a)
        # g = [L^-1 T; 0; I], so g X = [L^-1 (T X); 0; X]
        top = lower._forward(_mul_rows(rhs.bits, other.bits))
        return top + (0,) * (self.rows - a - self.cols) + other.bits

    def transpose(self) -> Gf2Matrix:
        return Gf2Matrix._raw(self.cols, self.rows, _transpose_words(self.bits, self.cols))

    def _power_is_zero(self, k: int) -> bool:
        """Whether self^k = 0, decided exactly.

        Entry (i, j) of self^k sums over the chains i = i0, i1, ..., ik = j
        of k steps along nonzero entries. In a strictly lower triangular
        matrix every step goes to a smaller index, so one pass over the set
        bits finds the longest chain from each row; if every chain has
        fewer than k steps, self^k = 0 with no product. Any other case
        computes pow(k).
        """
        if self._is_strictly_lower():
            steps: list[int] = []  # steps[i]: the longest chain from row i
            for word in self.bits:
                longest = 0
                while word:
                    j = word.bit_length() - 1
                    if steps[j] >= longest:
                        longest = steps[j] + 1
                    word ^= 1 << j
                if longest >= k:
                    break
                steps.append(longest)
            else:
                return True
        return self.pow(k).is_zero()

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
        if self.is_identity():  # immutable, so the identity is its own inverse
            return self
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
        n = self.rows
        return Gf2Matrix._raw(n, n, self._forward(_unit_words(n)))

    def solve_unit_lower(self, rhs: Gf2Matrix) -> Gf2Matrix:
        """The X with self X = rhs, by forward substitution.

        self must be unit lower triangular. Row i of X is row i of rhs
        plus the rows of X that row i of self selects left of the
        diagonal, so the cost is nnz(self) row XORs, where the product
        inverse(self) rhs would cost nnz(inverse(self)).
        """
        if self.cols != rhs.rows:
            raise ValueError(
                f"shape mismatch for solve: {self.rows}x{self.cols} with {rhs.rows}x{rhs.cols}"
            )
        return Gf2Matrix._raw(self.rows, rhs.cols, self._forward(rhs.bits))

    def _forward(self, rhs: Iterable[int]) -> tuple[int, ...]:
        # The one forward-substitution loop, over one right-hand-side
        # row word per row of self.
        if not self.is_lower_unitriangular():
            raise ValueError("matrix is not unit lower triangular")
        out: list[int] = []
        for i, (word, acc) in enumerate(zip(self.bits, rhs)):
            below = word ^ (1 << i)
            while below:
                j = below.bit_length() - 1
                acc ^= out[j]
                below ^= 1 << j
            out.append(acc)
        return tuple(out)

    def right_kernel_basis(self) -> Gf2Matrix:
        """A cols x k matrix whose columns span {v : self·v = 0}, k = cols - rank.

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
                j = rest.bit_length() - 1
                acc |= flag[j]
                rest ^= 1 << j
            out[pc] = acc
        return Gf2Matrix._raw(nc, len(free), tuple(out))

    def nilpotent_series_inverse(self, bound: int) -> Gf2Matrix:
        """Inverse of (I + self), equal to the finite sum I + self + ... + self^(bound-1).

        Requires ``self.pow(bound)`` to vanish; raises NotNilpotent otherwise.
        Over GF(2) the sum telescopes, (I + self) S = I + self^bound, so it
        inverts I + self exactly when self^bound = 0, and is then that
        inverse. Whether self^bound = 0 is decided exactly by
        _power_is_zero: a strictly lower triangular matrix whose chains of
        nonzero entries are all shorter than bound needs no power, and any
        other case computes self^bound. The inverse comes from forward
        substitution when I + self is unit lower triangular and from
        inverse() otherwise. Both (I + self) S = I and S (I + self) = I are
        checked on the result.
        """
        if self.rows != self.cols:
            raise ValueError(f"series needs a square matrix, got {self.rows}x{self.cols}")
        if bound < 0:
            raise ValueError("negative bound")
        n = self.rows
        if not self._power_is_zero(bound):
            raise NotNilpotent(f"matrix^{bound} is nonzero")
        one_plus = self + Gf2Matrix.identity(n)
        if self._is_strictly_lower():
            total = Gf2Matrix._raw(n, n, one_plus._forward(_unit_words(n)))
        else:
            total = one_plus.inverse()
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
        # Each row is peeled banded, as in _set_bits, inlined: with a call
        # per row, permuting a 192x192 image's D1 measured 8% slower (207
        # against 192 ms).
        for i, word in zip(row_perm.image, self.bits):
            lo = 0
            if word:
                lo = (word ^ (word - 1)).bit_length() - 1
                word >>= lo
            acc = 0
            while word:
                j = word.bit_length() - 1
                acc |= 1 << cmap[lo + j]
                word ^= 1 << j
            out[i] = acc
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
        if j == 0:  # immutable, so the whole matrix is shared, not copied row by row
            return Gf2Matrix.zeros(self.rows, 0), self
        mask = (1 << j) - 1
        left = tuple(word & mask for word in self.bits)
        right = tuple(word >> j for word in self.bits)
        return (
            Gf2Matrix._raw(self.rows, j, left),
            Gf2Matrix._raw(self.rows, self.cols - j, right),
        )


def _permute_pair(
    left: Gf2Matrix, right: Gf2Matrix, row_perm: Permutation, mid_perm: Permutation
) -> tuple[Gf2Matrix, Gf2Matrix]:
    """left and right permuted with one permutation between them, the zero record carried.

    Returns left.permute(row_perm, mid_perm) and right (left.cols rows)
    with its rows moved by mid_perm. right's columns stay put, so each of
    its row words moves whole: rows are immutable ints, and the permuted
    right shares them with right. The product of the two is the permuted
    product of left and right, so when left's record names right itself
    (``is``) as a zero product, the permuted left records the permuted
    right as one (see Gf2Matrix). Any other record is not carried, and a
    later product is formed.
    """
    left_p = left.permute(row_perm, mid_perm)
    out = [0] * right.rows
    for i, word in zip(mid_perm.image, right.bits):
        out[i] = word
    right_p = Gf2Matrix._raw(right.rows, right.cols, tuple(out))
    record = left._record
    if record is not None and record[0] is right and not record[1]:
        object.__setattr__(left_p, "_record", (right_p, False))
    return left_p, right_p


class _Pin:
    """A claim that a matrix is h = [0 U 0; 0 0 0] with U = L^-1, or g = [L^-1 T; 0; I].

    lower is the unit lower triangular a x a block L, and rhs is None
    for h or the a x c block T for g. For h, U fills the top a rows in
    columns offset to offset + a; for g, the a rows of the lift are
    followed by zero rows and then the c x c identity. The pin names
    blocks its maker keeps anyway and holds no product and no copy.

    holds(m) checks the claim once, on m's own bits: U's rows lie in
    their band and L U = I, or L lift = T and the rows below the lift
    are [0; I]; every other row of m is zero. Each product L U and
    L lift is compared row by row with I or T as it is formed, so
    neither is kept. Then m B for h is [L^-1 (B's rows offset..); 0]
    and m X for g is [L^-1 (T X); 0; X], both by forward substitution
    in nnz(L) row XORs where the row loop costs nnz(U) or nnz(lift).
    The check and the solves pay only when U or the lift holds more set
    bits than L and T together, so holds() is False for one that does
    not, and mul keeps its row loop.
    """

    __slots__ = ("lower", "rhs", "offset", "checked")

    def __init__(self, lower: Gf2Matrix, rhs: Gf2Matrix | None = None, offset: int = 0):
        self.lower = lower
        self.rhs = rhs
        self.offset = offset
        self.checked = False

    def holds(self, m: Gf2Matrix) -> bool:
        lower, rhs = self.lower, self.rhs
        a = lower.rows
        top, rest = m.bits[:a], m.bits[a:]
        fill = sum(map(int.bit_count, lower.bits))
        if rhs is not None:
            fill += sum(map(int.bit_count, rhs.bits))
        if (
            not lower.is_lower_unitriangular()
            or len(top) < a
            or sum(map(int.bit_count, top)) <= fill
        ):
            return False
        if rhs is None:
            offset = self.offset
            outside = ~(((1 << a) - 1) << offset)
            if m.cols < offset + a or any(rest) or any(w & outside for w in top):
                return False
            band = tuple(w >> offset for w in top)
            target: Iterable[int] = _unit_words(a)
        else:
            c = m.cols
            b = m.rows - a - c
            if (rhs.rows, rhs.cols) != (a, c) or b < 0 or any(rest[:b]):
                return False
            if rest[b:] != tuple(_unit_words(c)):
                return False
            band, target = top, rhs.bits
        return all(map(eq, _row_products(lower.bits, band), target))


def _unit_words(n: int) -> Iterable[int]:
    """The row words 1 << i of the n x n identity, shifted at C speed."""
    return map(int.__lshift__, repeat(1, n), range(n))


def _mul_rows(words: Iterable[int], obits: tuple[int, ...]) -> tuple[int, ...]:
    """The row loop of a product, formed whole."""
    return tuple(_row_products(words, obits))


def _row_products(words: Iterable[int], obits: tuple[int, ...]) -> Iterator[int]:
    """The rows of a product one at a time: each row word selects rows of obits to XOR."""
    for word in words:
        acc = 0
        while word:
            j = word.bit_length() - 1
            acc ^= obits[j]
            word ^= 1 << j
        yield acc


def _set_bits(word: int) -> list[int]:
    """The indices of a nonzero word's set bits, in increasing order.

    The word is first shifted right by its lowest set bit,
    lo = (w ^ (w - 1)).bit_length() - 1, and only the narrow band left is
    peeled: a sparse word is about as wide as its top bit even after its
    other bits are cleared, so peeling it whole costs two operations on
    that width per set bit, and this costs two in all.
    """
    lo = (word ^ (word - 1)).bit_length() - 1
    word >>= lo
    out = []
    while word:
        j = word.bit_length() - 1
        word ^= 1 << j
        out.append(lo + j)
    out.reverse()
    return out


def _transpose_words(bits: tuple[int, ...], cols: int) -> tuple[int, ...]:
    """The column words of a matrix: word j has bit i set where row i has bit j.

    A matrix of fewer than _WIDE rows, whose column words are that narrow,
    takes the plain loop. From _WIDE rows on, each row is peeled banded,
    as in _set_bits, and each column word is built from its first row on
    and shifted into place once, so each set bit costs a narrow OR. On the
    matrices a certified run on a 32x32 image transposes, the banded loop
    measured 37% slower than the plain one (3.9 against 2.8 ms an image);
    on a 192x192 image's D1 it is 22% faster (149 against 191 ms).
    """
    out = [0] * cols
    if len(bits) < _WIDE:
        for i, word in enumerate(bits):
            flag = 1 << i
            while word:
                j = word.bit_length() - 1
                out[j] |= flag
                word ^= 1 << j
        return tuple(out)
    first = [0] * cols  # the first row with a bit in each column
    for i, word in enumerate(bits):
        if word:  # _set_bits inlined: a call per row measured 8% slower here
            lo = (word ^ (word - 1)).bit_length() - 1
            word >>= lo
            while word:
                j = word.bit_length() - 1
                word ^= 1 << j
                j += lo
                if out[j]:
                    out[j] |= 1 << (i - first[j])
                else:
                    out[j] = 1
                    first[j] = i
    return tuple(map(int.__lshift__, out, first))


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
        while above:  # every pivot row is already reduced, so any order works
            j = above.bit_length() - 1
            w ^= pivots[j]
            above ^= 1 << j
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
                self._raise_first_fault()
            seen[v] = True

    def _raise_first_fault(self) -> None:
        """Raise a ValueError naming the first position that keeps image
        from being a permutation, its value and why."""
        n = len(self.image)
        first: dict[int, int] = {}  # the position that first sent each value
        for i, v in enumerate(self.image):
            if not isinstance(v, int):
                why = "not an int"
            elif not 0 <= v < n:
                why = "out of range"
            elif v in first:
                why = f"repeated from position {first[v]}"
            else:
                first[v] = i
                continue
            raise ValueError(
                f"not a permutation of range({n}): position {i} holds {reprlib.repr(v)}, {why}"
            )

    @classmethod
    def _raw(cls, image: tuple[int, ...]) -> Permutation:
        # Internal constructor for an image already known to be a permutation.
        p = object.__new__(cls)
        object.__setattr__(p, "image", image)
        return p

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
