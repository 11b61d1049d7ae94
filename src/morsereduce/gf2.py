"""Dense exact linear algebra over the two-element field.

Matrices are immutable and bit-packed: each row is one arbitrary-precision
integer whose bit j is the entry in column j. Row operations are single
integer XORs, so everything here is exact — no floats, no overflow, and
zero-dimensional matrices compose like any other.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import eq

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


class Singular(Exception):
    """Raised when a matrix required to be invertible is not."""


class NotNilpotent(Exception):
    """Raised when a claimed nilpotency bound fails to annihilate a matrix."""


class Gf2Matrix:
    """An immutable rows x cols matrix over GF(2).

    ``bits[i]`` holds row i with bit ``1 << j`` as the entry in column j;
    bits at or above ``cols`` are required to be zero.

    ``mul`` tries four steps in turn, each on the actual operands: the
    record, the identity pass-through, the pin, and then one loop over
    the left factor's set bits. That loop is the index product when both
    factors are held as their index, and the row loop over the right
    factor's words otherwise. ``mul`` reads the record and writes
    nothing.

    ``_record`` is None or a matrix B such that this matrix times B is
    known to be zero. It holds nothing else, and in particular no
    product. Only two places write it: ``_annihilates``, the boundary
    check D1 . D2 = 0 that TruncatedComplex runs, records D2 on D1 when
    the product it formed came out zero; and ``_permute_pair`` carries
    that record across a permutation (see there). So the repeat checks
    of one pair of boundary matrices form one product between them.

    ``_pin`` is None or a _Pin: a claim that this matrix is a homotopy
    [L^-1 in one column band; 0] or a lift [L^-1 T; 0; I] for a unit
    lower triangular L. The block elimination pins its h and g, and
    nilpotent_series_inverse pins S = (I + N)^-1, the homotopy form with
    no zero rows. Like the record, it names matrices and holds no
    product; mul checks it on this matrix's own bits before it relies on
    it (see _Pin).

    ``_answers`` is None or a dict from a question, "is_identity" or
    "is_lower_unitriangular", to its answer. Its one rule: an answer
    comes only from a full scan of this matrix's own bits or index
    (_scan) or from its own construction (``identity`` sets both), so it
    holds for these bits and no others. Every other constructor starts
    with no answer: copies, splits, permutations, sums and _from_index
    results ask again. The checks ask the same matrices these questions
    many times over (mul's identity pass-through on both factors, a pin's
    L before each forward substitution), and each is scanned once.

    ``_index`` is None or a tuple with one tuple per row: the columns of
    the row's set bits, in increasing order. Only code that already holds
    those columns sets it (see _from_index): ``boundary_matrices`` for
    D1ᵀ and D2ᵀ, ``parse_matrix_text``, ``transpose``, ``permute``,
    ``_permute_pair`` for a right factor held as its index, the index
    product, and ``split_rows`` and ``split_cols`` of an indexed matrix.
    A matrix made that way builds its words on the first read of ``bits``
    (see __getattr__), so words that nothing reads are never built.
    ``bits`` stays the one canonical form that equality, hashing, records,
    pins, ``+`` and every check read. The loops over a row's set bits
    (_index_rows, _row_products), the index product, ``get``, ``is_zero``,
    ``is_identity``, ``rank``'s spanning forest, ``is_lower_unitriangular``
    and ``_forward`` read the index when there is one.

    ``_transposed`` is None or the indexed matrix that ``transpose`` made
    this one from, so that the transpose of a transpose is read off the
    index rows already held, not derived again. The reference points one
    way only, from a transpose to its source, so it makes no reference
    cycle. ``rank`` reads the source's index rows, which are this
    matrix's columns.
    """

    __slots__ = ("rows", "cols", "bits", "_record", "_pin", "_answers", "_index", "_transposed")

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __init__(self, rows: int, cols: int, bits: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension: {rows}x{cols}")
        packed = tuple(bits)
        if len(packed) != rows:
            raise ValueError(f"expected {rows} row words, got {len(packed)}")
        # Every word is in range exactly when the least and the greatest
        # are, and min and max compare at C speed.
        if packed and (min(packed) < 0 or max(packed) >> cols):
            i = next(i for i, word in enumerate(packed) if word < 0 or word >> cols)
            raise ValueError(f"row {i} has bits outside {cols} columns")
        self._set_slots(rows, cols, packed, None)

    def _set_slots(
        self, rows: int, cols: int, bits: tuple[int, ...] | None, index: tuple | None
    ) -> Gf2Matrix:
        # The one slot initializer of every constructor. bits is None only
        # for a matrix held as its index, and is then left unset (see
        # __getattr__).
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "cols", cols)
        if bits is not None:
            setattr_(self, "bits", bits)
        setattr_(self, "_record", None)
        setattr_(self, "_pin", None)
        setattr_(self, "_answers", None)
        setattr_(self, "_index", index)
        setattr_(self, "_transposed", None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Gf2Matrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, bits: tuple[int, ...]) -> Gf2Matrix:
        # Internal constructor for values already known to be in range.
        return object.__new__(cls)._set_slots(rows, cols, bits, None)

    @classmethod
    def _from_index(
        cls, rows: int, cols: int, index: Iterable[Sequence[int]]
    ) -> Gf2Matrix:
        """A rows x cols matrix held as its index, with no words until bits is read.

        index[i] lists the columns of row i's set bits, distinct and in
        increasing order, all below cols, with one entry per row. Nothing
        here checks that; each caller's columns are in range by
        construction. ``boundary_matrices`` passes the cell lists of a
        cubical complex, each edge's two vertices and each square's four
        edges already sorted and distinct; ``parse_matrix_text`` lists
        pos % cols for each "1" token; ``transpose`` lists row numbers
        below self.rows under each column; ``permute`` maps each column
        through a Permutation of range(cols); ``_permute_pair`` moves
        rows of an index whole; the index product sorts the columns of a
        right factor's rows that occur an odd number of times; and
        ``split_rows`` and ``split_cols`` take slices of an index already
        in range, the right part of a column split shifted down by the
        split point.
        """
        return object.__new__(cls)._set_slots(rows, cols, None, tuple(map(tuple, index)))

    def __getattr__(self, name: str) -> tuple[int, ...]:
        # Python calls this only for a name it did not find, and every
        # slot but bits is set by each constructor: so this runs on the
        # first read of bits of a matrix made by _from_index, and builds
        # its words once.
        if name != "bits":
            raise AttributeError(f"'Gf2Matrix' object has no attribute {name!r}")
        words = _words(self._index)
        object.__setattr__(self, "bits", words)
        return words

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Gf2Matrix:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension: {rows}x{cols}")
        return cls._raw(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        if n < 0:
            raise ValueError(f"negative dimension: {n}")
        eye = cls._raw(n, n, tuple(_unit_words(n)))
        object.__setattr__(eye, "_answers", {"is_identity": True, "is_lower_unitriangular": True})
        return eye

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
        index = self._index
        if index is not None:  # bisect row i's sorted columns for j
            row = index[i]
            k = bisect_left(row, j)
            return int(k < len(row) and row[k] == j)
        return (self.bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[(word >> j) & 1 for j in range(self.cols)] for word in self.bits]

    def is_zero(self) -> bool:
        index = self._index
        return not any(self.bits if index is None else index)

    def is_identity(self) -> bool:
        # The first and last rows reject most square non-identities at
        # once; anything else is scanned once (see _scan).
        n = self.rows
        if n != self.cols:
            return False
        if self._index is None:
            bits = self.bits
            if n and (bits[0] != 1 or bits[-1] != 1 << (n - 1)):
                return False
        return self._answer("is_identity")

    def is_lower_unitriangular(self) -> bool:
        """True iff square with 1s on the diagonal and 0s strictly above it."""
        return self.rows == self.cols and self._answer("is_lower_unitriangular")

    def _answer(self, question: str) -> bool:
        # The answer of this matrix's one full scan for question.
        answers = self._answers
        if answers is None:
            answers = {}
            object.__setattr__(self, "_answers", answers)
        got = answers.get(question)
        if got is None:
            got = answers[question] = self._scan(question)
        return got

    def _scan(self, question: str) -> bool:
        """Answer question about a square matrix by a full scan of its bits or index.

        Row i of a unit lower triangular matrix has its highest set bit at
        bit i: the last column of its index row, when there is an index.
        Such a matrix holds each diagonal bit, so it is the identity
        exactly when it has n set bits in all.
        """
        index = self._index
        if question == "is_lower_unitriangular":
            if index is not None:
                return all(row and row[-1] == i for i, row in enumerate(index))
            return all(map(eq, map(int.bit_length, self.bits), range(1, self.rows + 1)))
        if index is None:
            count = sum(map(int.bit_count, self.bits))
        else:
            count = sum(map(len, index))
        return count == self.rows and self.is_lower_unitriangular()

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
        return "\n".join(" ".join(map(str, row)) for row in self.to_rows())

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch for sum: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        # A zero term leaves the other as it is, shared and not copied, so
        # that a term held as its index builds no words for the sum.
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return Gf2Matrix._raw(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.bits, other.bits))
        )

    def mul(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        # 1. The record. Matrices are immutable, so a right factor this
        # one is recorded as annihilating gives the zero matrix again.
        if self._record is other:
            return Gf2Matrix.zeros(self.rows, other.cols)
        # 2. A product by the identity is the other factor itself.
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        # 3. A pinned factor answers by forward substitution through its L,
        # once its claim has held on its bits. 4. Otherwise one loop over
        # this factor's set bits: on the index rows of other when both are
        # held as their index, so that neither builds words; else one row
        # XOR per set bit.
        pin = self._pin
        words = None if pin is None else self._pinned_product(pin, other)
        if words is not None:
            return Gf2Matrix._raw(self.rows, other.cols, words)
        if self._index is not None and other._index is not None:
            return Gf2Matrix._from_index(self.rows, other.cols, _index_product(self, other))
        return Gf2Matrix._raw(self.rows, other.cols, _mul_rows(self, other.bits))

    def _annihilates(self, other: Gf2Matrix) -> bool:
        """Whether self . other = 0, recording other on self when it is.

        A zero factor answers with no product. Otherwise mul gives the
        product, formed or read off the record, and a zero product records
        other itself. A record that closed a reference cycle would be freed
        only by the cycle collector, so none is written when other is self
        or already records self.
        """
        if self.is_zero() or other.is_zero():
            return True
        if not self.mul(other).is_zero():
            return False
        if other is not self and other._record is not self:
            object.__setattr__(self, "_record", other)
        return True

    def _pinned_product(self, pin: _Pin, other: Gf2Matrix) -> tuple[int, ...] | None:
        """The row words of self·other through self's pin, or None for the row loop.

        The pin is checked once, on the first call; if it fails (see
        _Pin.holds), it is dropped and None is returned.
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
        top = lower._forward(_mul_rows(rhs, other.bits))
        return top + (0,) * (self.rows - a - self.cols) + other.bits

    def transpose(self) -> Gf2Matrix:
        """The transpose, held as its index whether or not self has one.

        A matrix that transpose made from an indexed source answers with
        a new matrix on that source's index rows, shared and not copied,
        so that it holds no words even where the source has built its
        own. Otherwise one pass over the index rows appends each row
        number to the columns it has set; those lists are the transpose's
        index rows, and the transpose remembers an indexed self as its
        source. The callers in the pipeline read the rows of a transpose
        only as index rows (the columns of D1 in rs_algorithm and
        _relation_edges, and the D1 and D2 that boundary_matrices takes
        from D1ᵀ and D2ᵀ), so its words are built only if bits is read.
        """
        source = self._transposed
        if source is not None:
            return Gf2Matrix._from_index(self.cols, self.rows, source._index)
        columns: list[list[int]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(_index_rows(self)):
            for j in row:
                columns[j].append(i)
        t = Gf2Matrix._from_index(self.cols, self.rows, columns)
        if self._index is not None:
            object.__setattr__(t, "_transposed", self)
        return t

    def pow(self, k: int) -> Gf2Matrix:
        """self^k, the zero matrix with no product when every chain is shorter than k.

        Entry (i, j) of self^k sums over the chains i = i0, i1, ..., ik = j
        of k steps along nonzero entries. In a strictly lower triangular
        matrix every step goes to a smaller index, so one pass over the set
        bits finds the longest chain from each row; if every chain has
        fewer than k steps, self^k = 0 and no product is formed. The pass
        stops at the first row with a bit at or above its own index: then,
        as for a chain of k steps or more, self^k is formed by repeated
        squaring.
        """
        if self.rows != self.cols:
            raise ValueError(f"pow needs a square matrix, got {self.rows}x{self.cols}")
        if k < 0:
            raise ValueError("negative exponent")
        steps: list[int] = []  # steps[i]: the longest chain from row i
        for i, word in enumerate(self.bits):
            if word >> i:  # not strictly lower triangular
                break
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
            return Gf2Matrix.zeros(self.rows, self.cols)
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
        """The rank over GF(2).

        A matrix whose index rows, or whose source's (see transpose), hold
        at most 2 columns each is the incidence matrix of a graph, and its
        rank is counted as a spanning forest (_forest_rank) with no words.
        In the pipeline these are D1, through D1ᵀ, and D2 and the critical
        rows of D2 themselves. Any other matrix takes the forward
        elimination that inverse and right_kernel_basis also use (see
        _echelon), and its rank is the number of pivots.
        """
        for graph in (self, self._transposed):
            index = None if graph is None else graph._index
            if index is not None and max(map(len, index), default=0) <= 2:
                return _forest_rank(index, graph.cols)
        return len(_echelon(self.bits, self.cols)[0])

    def inverse(self) -> Gf2Matrix:
        """Two-sided inverse; raises Singular, naming a dependent row, if none exists.

        Gauss-Jordan on [self | I] by the pivot-dictionary elimination that
        rank and right_kernel_basis also use (see _echelon), then
        _back_substitute, so the cost follows the fill of the rows rather
        than rows x cols.
        """
        if self.rows != self.cols:
            raise ValueError(f"inverse needs a square matrix, got {self.rows}x{self.cols}")
        if self.is_identity():  # immutable, so the identity is its own inverse
            return self
        n = self.rows
        # Augment each row with the matching identity row in the high bits.
        pivots, dependent = _echelon(
            (word | (1 << (n + i)) for i, word in enumerate(self.bits)), n
        )
        if dependent >= 0:
            raise Singular(
                f"{n}x{n} matrix is singular: row {dependent} is a sum of earlier rows"
            )
        _back_substitute(pivots)
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
        index = self._index
        if index is not None:  # each row's last column is its diagonal
            for row, acc in zip(index, rhs):
                for j in row[:-1]:
                    acc ^= out[j]
                out.append(acc)
            return tuple(out)
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
        form, computed by the pivot-dictionary elimination that inverse
        also uses (_echelon, then _back_substitute). Pivot columns are the
        rows' lowest set bits; there is one basis column per free column,
        in increasing order, with a 1 in that free column and the RREF
        entries in the pivot columns. The cost follows the fill of the
        rows, not rows x cols.

        When every row is zero or a unit vector, the distinct unit rows
        are already that RREF, and no elimination runs: the free columns
        are the ones no row covers, and each basis column is the unit
        vector of its free column. Every kernel that decompose takes on
        the perturbation route is of this kind.
        """
        nc = self.cols
        bits = self.bits
        if any(w & (w - 1) for w in bits):
            pivots = _back_substitute(_echelon(bits, nc)[0])
        else:
            pivots = {w.bit_length() - 1: w for w in bits if w}
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
        inverse. pow decides self^bound = 0 exactly, with no product when
        self is strictly lower triangular with every chain shorter than
        bound (see there).

        When I + self is unit lower triangular, S is
        inv_unit_lower_triangular(), the forward substitution, and is
        pinned as S = (I + self)^-1 (see _Pin). S (I + self) is then
        formed first: the pin's own check is (I + self) S = I, row by row
        on S's bits, and once it holds the product is solved through
        I + self in nnz(I + self) row XORs, where the row loop would cost
        nnz(S). A pin that fails is dropped and the row loop forms the
        product. Otherwise S is inverse(), and (I + self) S = I and
        S (I + self) = I are both formed. Either way both identities are
        checked on S before it is returned.
        """
        if self.rows != self.cols:
            raise ValueError(f"series needs a square matrix, got {self.rows}x{self.cols}")
        if bound < 0:
            raise ValueError("negative bound")
        n = self.rows
        if not self.pow(bound).is_zero():
            raise NotNilpotent(f"matrix^{bound} is nonzero")
        one_plus = self + Gf2Matrix.identity(n)
        pin = _Pin(one_plus)
        if one_plus.is_lower_unitriangular():
            total = one_plus.inv_unit_lower_triangular()
            object.__setattr__(total, "_pin", pin)
        else:
            total = one_plus.inverse()
        # A pin checked by the first product has checked the second.
        if not (
            total.mul(one_plus).is_identity()
            and (pin.checked or one_plus.mul(total).is_identity())
        ):
            raise AssertionError("series inverse self-check failed")
        return total

    def permute(self, row_perm: Permutation, col_perm: Permutation) -> Gf2Matrix:
        """Relocate entries: result[row_perm(i)][col_perm(j)] = self[i][j]."""
        if row_perm.size != self.rows or col_perm.size != self.cols:
            raise ValueError(
                f"permutation sizes {row_perm.size}/{col_perm.size} do not match {self.rows}x{self.cols}"
            )
        # The result is held as its index: each row's columns, moved and
        # sorted. Its words are built only if bits is read. Each row is
        # made a tuple at once: a list per row would live until the end
        # and set off full garbage collections.
        cmap = col_perm.image.__getitem__
        out: list = [()] * self.rows
        for i, row in zip(row_perm.image, _index_rows(self)):
            out[i] = tuple(sorted(map(cmap, row)))
        return Gf2Matrix._from_index(self.rows, self.cols, out)

    def split_rows(self, i: int) -> tuple[Gf2Matrix, Gf2Matrix]:
        """Split into the first i rows and the rest; an index splits with them."""
        if not 0 <= i <= self.rows:
            raise ValueError(f"row split {i} out of range for {self.rows} rows")
        index = self._index
        if index is not None:
            return (
                Gf2Matrix._from_index(i, self.cols, index[:i]),
                Gf2Matrix._from_index(self.rows - i, self.cols, index[i:]),
            )
        return (
            Gf2Matrix._raw(i, self.cols, self.bits[:i]),
            Gf2Matrix._raw(self.rows - i, self.cols, self.bits[i:]),
        )

    def split_cols(self, j: int) -> tuple[Gf2Matrix, Gf2Matrix]:
        """Split into the first j columns and the rest.

        An index splits row by row at the first column at or above j, and
        the right part's columns shift down by j.
        """
        if not 0 <= j <= self.cols:
            raise ValueError(f"column split {j} out of range for {self.cols} columns")
        if j == 0:  # immutable, so the whole matrix is shared, not copied row by row
            return Gf2Matrix.zeros(self.rows, 0), self
        index = self._index
        if index is not None:
            left, right = [], []
            shift = (-j).__add__
            for row in index:
                k = bisect_left(row, j)
                left.append(row[:k])
                right.append(tuple(map(shift, row[k:])))
            return (
                Gf2Matrix._from_index(self.rows, j, left),
                Gf2Matrix._from_index(self.rows, self.cols - j, right),
            )
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
    """left and right permuted with one permutation between them, the record carried.

    Returns left.permute(row_perm, mid_perm) and right (left.cols rows)
    with its rows moved by mid_perm. right's columns stay put, so each of
    its rows moves whole, as a row word or, when right is held as its
    index, as an index row: both are immutable, and the permuted right
    shares them with right. The product of the two is the permuted
    product of left and right: when left records right itself (``is``),
    (P A Q^-1)(Q B) = P (A B) is zero too, and the permuted left records
    the permuted right. A record of any other matrix is not carried.
    """
    left_p = left.permute(row_perm, mid_perm)
    index = right._index
    out: list = [0] * right.rows
    for i, row in zip(mid_perm.image, right.bits if index is None else index):
        out[i] = row
    if index is None:
        right_p = Gf2Matrix._raw(right.rows, right.cols, tuple(out))
    else:
        right_p = Gf2Matrix._from_index(right.rows, right.cols, out)
    if left._record is right:
        object.__setattr__(left_p, "_record", right_p)
    return left_p, right_p


class _Pin:
    """A claim that a matrix is h = [0 U 0; 0 0 0] with U = L^-1, or g = [L^-1 T; 0; I].

    lower is the unit lower triangular a x a block L, and rhs is None
    for h or the a x c block T for g. For h, U fills the top a rows in
    columns offset to offset + a; for g, the a rows of the lift are
    followed by zero rows and then the c x c identity. The pin names
    blocks its maker keeps anyway and holds no product and no copy. A
    series inverse S = (I + N)^-1 is pinned as h with L = I + N, offset
    0 and no zero rows.

    holds(m) checks the claim once, on m's own bits: U's rows lie in
    their band and L U = I, or L lift = T and the rows below the lift
    are [0; I]; every other row of m is zero. Each product L U and
    L lift is compared row by row with I or T as it is formed, so
    neither is kept. Then m B for h is [L^-1 (B's rows offset..); 0]
    and m X for g is [L^-1 (T X); 0; X], both by forward substitution
    in nnz(L) row XORs where the row loop costs nnz(U) or nnz(lift).
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
        if not lower.is_lower_unitriangular() or len(top) < a:
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
            # With fewer than a + c rows, rest is shorter than I's c rows.
            if (rhs.rows, rhs.cols) != (a, c) or rest != (0,) * b + tuple(_unit_words(c)):
                return False
            band, target = top, rhs.bits
        return all(map(eq, _row_products(lower, band), target))


def _unit_words(n: int) -> Iterable[int]:
    """The row words 1 << i of the n x n identity, shifted at C speed."""
    return map(int.__lshift__, repeat(1, n), range(n))


def _mul_rows(left: Gf2Matrix, obits: tuple[int, ...]) -> tuple[int, ...]:
    """The row loop of a product with left as the left factor, formed whole."""
    return tuple(_row_products(left, obits))


def _row_products(left: Gf2Matrix, obits: tuple[int, ...]) -> Iterator[int]:
    """The rows of a product one at a time: each row of left selects rows of obits to XOR.

    The rows are left's index rows when it has an index. Otherwise each
    word is peeled where it stands, with no list made per row as
    _index_rows would: the products that a certified run on a 32x32
    image forms have no index and rows of a few hundred bits, and there
    the lists made the row loop 1.9 times slower (25 against 13 ms an
    image).
    """
    index = left._index
    if index is not None:
        for row in index:
            acc = 0
            for j in row:
                acc ^= obits[j]
            yield acc
        return
    for word in left.bits:
        acc = 0
        while word:
            j = word.bit_length() - 1
            acc ^= obits[j]
            word ^= 1 << j
        yield acc


def _index_product(left: Gf2Matrix, right: Gf2Matrix) -> list[tuple[int, ...]]:
    """The index rows of the product of two matrices held as their index.

    Row i of the product sets the columns that occur an odd number of
    times among the index rows of right that row i of left selects: each
    column of each selected row is toggled in one set per row of left,
    with no set made per selected row (a set per row took 1.10 against
    0.75 ms for D1·D2 of a 32x32 image, medians over 8 images). Each row
    is made a tuple at once, as in permute.
    """
    rows = right._index
    out = []
    for row in left._index:
        odd: set[int] = set()
        for j in row:
            for c in rows[j]:
                if c in odd:
                    odd.remove(c)
                else:
                    odd.add(c)
        out.append(tuple(sorted(odd)) if odd else ())
    return out


def _forest_rank(index: Sequence[Sequence[int]], cols: int) -> int:
    """The GF(2) rank of a matrix whose index rows hold at most 2 columns each.

    Each row is an edge of a graph on the columns and one extra ground
    vertex, cols: a row of two columns joins them, a row of one joins its
    column to the ground, and an empty row is no edge. With the ground
    column added every row has even weight, so the ground column is the
    sum of the others and adding it changes no rank. The rank of a
    graph's incidence matrix over GF(2) is the number of edges of a
    spanning forest, which a union-find counts as the edges that join
    two trees (Tarjan, JACM 1975). A repeated row closes a cycle and
    counts nothing.
    """
    parent = list(range(cols + 1))
    rank = 0
    for row in index:
        if len(row) == 2:
            a, b = row
        elif row:
            a, b = row[0], cols
        else:
            continue
        while parent[a] != a:  # find, halving the path
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def _index_rows(m: Gf2Matrix) -> Iterable[Sequence[int]]:
    """The columns of each row's set bits, in increasing order.

    This is m's index when it has one. Otherwise each row word is peeled
    by _set_bits as the loop reaches it, and nothing is stored: a sparse
    word is as wide as its highest column, so every pass over its bits
    costs operations on that width, where an index row costs one step a
    column.
    """
    index = m._index
    return map(_set_bits, m.bits) if index is None else index


def _words(index: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The row words of index rows, each a sequence of distinct columns in increasing order.

    Each word is built on its band, from its lowest column on, and
    shifted into place once, so a row costs one operation as wide as the
    matrix rather than one per set bit.
    """
    out = []
    for row in index:
        word = 0
        if row:
            lo = row[0]
            for j in row:
                word |= 1 << (j - lo)
            word <<= lo
        out.append(word)
    return tuple(out)


def _set_bits(word: int) -> list[int]:
    """The indices of a word's set bits, in increasing order ([] for 0).

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


def _echelon(words: Iterable[int], width: int) -> tuple[dict[int, int], int]:
    """Forward elimination of bit-packed rows, pivoting in columns below width.

    Returns ``(pivots, dependent)``: ``pivots`` maps each pivot column to
    an echelon row whose lowest set bit it is, and ``dependent`` is the
    index of the first row whose low ``width`` bits are a sum of earlier
    rows', or -1. Each row is XORed against the pivot stored for its
    lowest set bit until that bit is free, and joins the dictionary unless
    it is zero or its lowest set bit is at or above ``width``. Only set
    bits are visited, so the cost follows the fill.
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
    return pivots, dependent


def _back_substitute(pivots: dict[int, int]) -> dict[int, int]:
    """Clear _echelon's pivot rows in every pivot column but their own, in place.

    The rows are taken from the highest pivot column down, visiting set
    bits only; the result is the reduced row-echelon form.
    """
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
    return pivots


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}; image[i] is where position i is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        # A ValueError names the first position that keeps image from
        # being a permutation, its value and why.
        n = len(self.image)
        first = [-1] * n  # the position that first sent each value
        for i, v in enumerate(self.image):
            if not isinstance(v, int):
                why = "not an int"
            elif not 0 <= v < n:
                why = "out of range"
            elif first[v] >= 0:
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


# The largest dimension a matrix text may declare: with the other dimension
# 0 it needs no entries, yet parsing makes one list per row or column.
_TEXT_DIM_LIMIT = 1 << 20


def parse_matrix_text(text: str) -> Gf2Matrix:
    """Parse the dense text format: a "rows cols" line, then one 0/1 token per entry.

    An empty dimension means there are no data lines. Raises ValueError on
    malformed headers, dimensions outside 0.._TEXT_DIM_LIMIT, non-binary
    tokens, or a token count mismatch.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(
            f"bad matrix header: {_shown(tokens[0])} {_shown(tokens[1])}"
        ) from None
    if not (0 <= rows <= _TEXT_DIM_LIMIT and 0 <= cols <= _TEXT_DIM_LIMIT):
        raise ValueError(
            f"header {_shown(tokens[0], str)} {_shown(tokens[1], str)}:"
            f" each dimension must be 0 to {_TEXT_DIM_LIMIT}"
        )
    del tokens[:2]  # the entries are left
    if len(tokens) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(tokens)}")
    # Every token is one character exactly when the joined digits are as
    # many as the tokens, and each is a 0 or a 1 when those two count them all.
    digits = "".join(tokens)
    if len(digits) != len(tokens) or digits.count("0") + digits.count("1") != len(digits):
        pos, tok = next((pos, tok) for pos, tok in enumerate(tokens) if tok not in ("0", "1"))
        raise ValueError(f"entry {pos} is {_shown(tok)}, not 0 or 1")
    # Freed before the lists below are made: the garbage collections that
    # making them starts would each walk a list of rows x cols tokens.
    del tokens
    index: list[list[int]] = [[] for _ in range(rows)]
    pos = digits.find("1")
    while pos >= 0:
        index[pos // cols].append(pos % cols)
        pos = digits.find("1", pos + 1)
    return Gf2Matrix._from_index(rows, cols, index)


# The longest token an error message prints; a longer one is named by its
# length, as image._decimal names a Netpbm field.
_SHOWN_CHARS = 24


def _shown(token: str, show: Callable[[str], str] = repr) -> str:
    """A token of a matrix text as an error message shows it."""
    return show(token) if len(token) <= _SHOWN_CHARS else f"<{len(token)} characters>"


def format_matrix_text(m: Gf2Matrix) -> str:
    """Render a matrix in the dense text format accepted by parse_matrix_text."""
    header = f"{m.rows} {m.cols}\n"
    return header + str(m) + "\n" if m.rows else header
