"""Unit tests for the bit-packed GF(2) matrix core."""

import gc
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morsereduce import gf2
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import (
    Gf2Matrix,
    NotNilpotent,
    Permutation,
    Singular,
    format_matrix_text,
    hstack,
    parse_matrix_text,
    vstack,
)
from morsereduce.image import random_image

import oracle


def random_matrix(rng, rows, cols, density=0.5):
    return Gf2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def identity_perm(n):
    return Permutation(tuple(range(n)))


def inverse_perm(p):
    """The permutation that sends p(i) back to i."""
    return Permutation(tuple(sorted(range(p.size), key=p)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Gf2Matrix(2, 2, [0b100, 0])  # bit outside columns
    with pytest.raises(ValueError):
        Gf2Matrix(2, 2, [0])  # wrong row count
    with pytest.raises(ValueError):
        Gf2Matrix(-1, 2, [])
    m = Gf2Matrix(2, 3, [0b101, 0b010])
    assert m.to_rows() == [[1, 0, 1], [0, 1, 0]]
    assert m.get(0, 2) == 1 and m.get(1, 2) == 0


def test_zero_dimensional_shapes_compose():
    a = Gf2Matrix.zeros(0, 5)
    b = Gf2Matrix.zeros(5, 0)
    assert a.mul(b) == Gf2Matrix.zeros(0, 0)
    assert b.mul(a) == Gf2Matrix.zeros(5, 5)
    assert Gf2Matrix.identity(0).is_zero()
    assert Gf2Matrix.zeros(0, 0).pow(3) == Gf2Matrix.identity(0)


def test_add_is_xor_and_self_inverse():
    rng = random.Random(1)
    m = random_matrix(rng, 5, 7)
    assert (m + m).is_zero()
    assert m + Gf2Matrix.zeros(5, 7) == m
    with pytest.raises(ValueError):
        m + Gf2Matrix.zeros(7, 5)


def test_a_zero_term_hands_back_the_other_term_with_no_words_built():
    indexed = Gf2Matrix(3, 4, [0b1010, 0b0001, 0]).transpose()
    for zero in (Gf2Matrix.zeros(4, 3), Gf2Matrix(4, 3, [0] * 4).transpose().transpose()):
        assert indexed + zero is indexed and zero + indexed is indexed
    assert not words_built(indexed)


def test_mul_matches_oracle():
    rng = random.Random(2)
    for _ in range(40):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        want = oracle.mat_mul(a.to_rows(), b.to_rows()) if r and k else oracle.zeros(r, c)
        assert a.mul(b).to_rows() == want


def test_mul_shape_mismatch():
    with pytest.raises(ValueError):
        Gf2Matrix.zeros(2, 3).mul(Gf2Matrix.zeros(4, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_associative_and_distributive(data):
    dims = [data.draw(st.integers(0, 5), label=f"n{i}") for i in range(4)]
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    a = random_matrix(rng, dims[0], dims[1])
    b = random_matrix(rng, dims[1], dims[2])
    c = random_matrix(rng, dims[2], dims[3])
    b2 = random_matrix(rng, dims[1], dims[2])
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b + b2) == a.mul(b) + a.mul(b2)


def test_identity_is_neutral():
    rng = random.Random(3)
    m = random_matrix(rng, 4, 6)
    assert Gf2Matrix.identity(4).mul(m) == m
    assert m.mul(Gf2Matrix.identity(6)) == m
    assert Gf2Matrix.identity(3).is_identity()
    assert not Gf2Matrix.zeros(3, 3).is_identity()


def test_transpose_involution_and_product_rule():
    rng = random.Random(4)
    a = random_matrix(rng, 5, 3)
    b = random_matrix(rng, 3, 4)
    assert a.transpose().transpose() == a
    assert a.mul(b).transpose() == b.transpose().mul(a.transpose())
    assert a.transpose().to_rows() == oracle.transpose(a.to_rows(), 3)


def test_rank_matches_oracle():
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), rng.random())
        assert m.rank() == oracle.rank(m.to_rows())
    assert Gf2Matrix.identity(6).rank() == 6
    assert Gf2Matrix.zeros(4, 9).rank() == 0


def test_inverse_round_trip():
    rng = random.Random(6)
    found = 0
    while found < 20:
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, n)
        if m.rank() < n:
            continue
        found += 1
        inv = m.inverse()
        assert m.mul(inv).is_identity()
        assert inv.mul(m).is_identity()


def test_inverse_rejects_singular_and_nonsquare():
    with pytest.raises(Singular):
        Gf2Matrix.from_rows([[1, 1], [1, 1]]).inverse()
    with pytest.raises(ValueError):
        Gf2Matrix.zeros(2, 3).inverse()
    assert Gf2Matrix.identity(0).inverse() == Gf2Matrix.identity(0)


def test_unit_lower_triangular_inverse_frozen_example():
    lower = Gf2Matrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    inv = lower.inv_unit_lower_triangular()
    # Solved by hand: forward substitution of the unit system.
    assert inv.to_rows() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert lower.mul(inv).is_identity()


def test_unit_lower_triangular_inverse_matches_general():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(0, 10)
        rows = [[1 if j == i else (1 if j < i and rng.random() < 0.5 else 0) for j in range(n)] for i in range(n)]
        m = Gf2Matrix.from_rows(rows, cols=n)
        fast = m.inv_unit_lower_triangular()
        assert fast == m.inverse()
        assert fast.is_lower_unitriangular()
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[1, 1], [0, 1]]).inv_unit_lower_triangular()


def test_is_lower_unitriangular():
    assert Gf2Matrix.from_rows([[1, 0], [1, 1]]).is_lower_unitriangular()
    assert not Gf2Matrix.from_rows([[1, 1], [0, 1]]).is_lower_unitriangular()
    assert not Gf2Matrix.from_rows([[0, 0], [0, 1]]).is_lower_unitriangular()
    assert not Gf2Matrix.zeros(2, 3).is_lower_unitriangular()
    assert Gf2Matrix.identity(0).is_lower_unitriangular()


def test_right_kernel_basis_properties():
    rng = random.Random(8)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7), rng.random())
        k = m.right_kernel_basis()
        assert k.rows == m.cols
        assert k.cols == m.cols - oracle.rank(m.to_rows())
        assert m.mul(k).is_zero()
        assert k.rank() == k.cols  # columns independent: they span the whole kernel


@st.composite
def dense_matrices(draw, square=False):
    rows = draw(st.integers(0, 12))
    cols = rows if square else draw(st.integers(0, 12))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return Gf2Matrix(rows, cols, words)


@st.composite
def one_bit_stacks(draw, square=False):
    """vstack of two matrices with at most one bit per row, like vstack(f, h)."""
    cols = draw(st.integers(0, 12))
    word = st.just(0) if cols == 0 else st.one_of(
        st.just(0), st.integers(0, cols - 1).map(lambda j: 1 << j)
    )
    if square:
        split = draw(st.integers(0, cols))
        top = draw(st.lists(word, min_size=split, max_size=split))
        bottom = draw(st.lists(word, min_size=cols - split, max_size=cols - split))
    else:
        top, bottom = draw(st.lists(word, max_size=12)), draw(st.lists(word, max_size=12))
    return vstack(Gf2Matrix(len(top), cols, top), Gf2Matrix(len(bottom), cols, bottom))


@st.composite
def full_rank_wide(draw, square=False):
    """An r x c matrix of rank r: invertible L U times [I | R], columns shuffled."""
    r = draw(st.integers(0, 10))
    c = r if square else draw(st.integers(r, 12))
    lower = [draw(st.integers(0, (1 << i) - 1)) | (1 << i) for i in range(r)]
    upper = [(draw(st.integers(0, (1 << r) - 1)) >> (i + 1) << (i + 1)) | (1 << i) for i in range(r)]
    right = draw(st.lists(st.integers(0, (1 << (c - r)) - 1), min_size=r, max_size=r))
    perm = draw(st.permutations(range(c)))
    base = hstack(Gf2Matrix.identity(r), Gf2Matrix(r, c - r, right))
    m = Gf2Matrix(r, r, lower).mul(Gf2Matrix(r, r, upper)).mul(base)
    m = m.permute(identity_perm(r), Permutation(tuple(perm)))
    assert m.rank() == r
    return m


def any_matrix():
    return st.one_of(
        dense_matrices(),
        one_bit_stacks(),
        st.integers(0, 12).map(Gf2Matrix.identity),
        full_rank_wide(),
        full_rank_wide().map(Gf2Matrix.transpose),
    )


def square_matrix():
    return st.one_of(
        dense_matrices(square=True),
        one_bit_stacks(square=True),
        st.integers(0, 12).map(Gf2Matrix.identity),
        full_rank_wide(square=True),
    )


@settings(max_examples=300, deadline=None)
@given(any_matrix())
@example(Gf2Matrix.zeros(0, 0))
@example(Gf2Matrix.zeros(0, 5))
@example(Gf2Matrix.zeros(5, 0))
def test_right_kernel_basis_is_the_canonical_rref_basis(m):
    want = oracle.kernel_basis(m.to_rows(), m.cols)
    got = m.right_kernel_basis()
    assert (got.rows, got.cols) == (m.cols, m.cols - oracle.rank(m.to_rows()))
    assert got.to_rows() == want


@st.composite
def unit_row_matrices(draw):
    """Rows that are each zero or a unit vector in a band at a random
    offset, some of them repeated; width 0 leaves only zero rows."""
    cols = draw(st.integers(0, 40))
    if cols == 0:
        word = st.just(0)
    else:
        offset = draw(st.integers(0, cols - 1))
        top = draw(st.integers(offset, cols - 1))
        word = st.one_of(st.just(0), st.integers(offset, top).map(lambda j: 1 << j))
    words = draw(st.lists(word, max_size=30))
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=10))
    words = draw(st.permutations(words))
    return Gf2Matrix(len(words), cols, words)


def eliminated_kernel(m):
    """The canonical kernel basis built from _echelon and _back_substitute's pivots."""
    pivots = gf2._back_substitute(gf2._echelon(m.bits, m.cols)[0])
    free = [c for c in range(m.cols) if c not in pivots]
    rows = [[0] * len(free) for _ in range(m.cols)]
    for k, c in enumerate(free):
        rows[c][k] = 1
        for pc, word in pivots.items():
            rows[pc][k] = (word >> c) & 1
    return rows


@settings(max_examples=300, deadline=None)
@given(unit_row_matrices())
@example(Gf2Matrix.zeros(0, 0))
@example(Gf2Matrix.zeros(4, 0))
@example(Gf2Matrix.zeros(3, 5))
@example(Gf2Matrix(4, 3, [0b100, 0b100, 0, 0b1]))
def test_unit_row_kernels_are_read_off_with_no_elimination(m):
    want = eliminated_kernel(m)
    assert want == oracle.kernel_basis(m.to_rows(), m.cols)
    calls = []
    echelon = gf2._echelon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_echelon", lambda *a: calls.append(a) or echelon(*a))
        got = m.right_kernel_basis()
    assert calls == []
    assert (got.rows, got.cols) == (m.cols, m.cols - oracle.rank(m.to_rows()))
    assert got.to_rows() == want


@settings(max_examples=300, deadline=None)
@given(any_matrix())
@example(Gf2Matrix.zeros(0, 0))
@example(Gf2Matrix.zeros(0, 5))
@example(Gf2Matrix.zeros(5, 0))
def test_rank_of_the_forward_elimination_matches_oracle(m):
    assert m.rank() == oracle.rank(m.to_rows())


@settings(max_examples=300, deadline=None)
@given(square_matrix())
@example(Gf2Matrix.zeros(0, 0))
def test_inverse_matches_oracle_or_raises_singular(m):
    want = oracle.inverse(m.to_rows())
    if want is None:
        with pytest.raises(Singular):
            m.inverse()
    else:
        assert m.inverse().to_rows() == want


@pytest.mark.parametrize(
    "rows,dependent",
    [
        ([[1, 1], [1, 1]], 1),
        ([[0, 0], [1, 0]], 0),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 2),
        ([[1, 0, 1], [1, 1, 0], [0, 1, 1]], 2),
        ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 1]], 2),
    ],
)
def test_singular_names_the_dependent_row(rows, dependent):
    with pytest.raises(Singular, match=rf"row {dependent} is a sum of earlier rows"):
        Gf2Matrix.from_rows(rows).inverse()


def with_textbook_index(m):
    """A copy of m that keeps, as its index, the set columns of its textbook rows."""
    return Gf2Matrix._from_index(m.rows, m.cols, oracle.set_columns(m.to_rows()))


def sparse_words(rng, rows, cols):
    """Row words with 0-4 ones each, at random columns below cols."""
    return [
        sum(1 << j for j in rng.sample(range(cols), rng.randint(0, min(4, cols))))
        for _ in range(rows)
    ]


@st.composite
def kernel_matrices(draw, rows, cols, wide=False):
    """A rows x cols matrix: sparse rows as wide as cols, or dense small ones.

    Sparse rows come from a drawn seed, so a matrix of a few thousand
    columns costs hypothesis a handful of draws.
    """
    if wide:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return Gf2Matrix(rows, cols, sparse_words(rng, rows, cols))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return Gf2Matrix(rows, cols, words)


WIDE = st.integers(0, 3000)
SMALL = st.integers(0, 12)


@st.composite
def kernel_operands(draw):
    """(a, b) with a.cols == b.rows: one dimension wide and sparse, or all small and dense."""
    kind = draw(st.sampled_from(["wide_inner", "wide_outer", "dense"]))
    r = draw(SMALL)
    if kind == "dense":
        k, c = draw(SMALL), draw(SMALL)
    else:
        wide, narrow = draw(WIDE), draw(st.integers(0, 40))
        k, c = (wide, narrow) if kind == "wide_inner" else (narrow, wide)
    sparse = kind != "dense"
    return draw(kernel_matrices(r, k, sparse)), draw(kernel_matrices(k, c, sparse))


@settings(max_examples=200, deadline=None)
@given(kernel_operands())
@example((Gf2Matrix.zeros(0, 5), Gf2Matrix.zeros(5, 3)))
@example((Gf2Matrix.zeros(4, 0), Gf2Matrix.zeros(0, 6)))
@example((Gf2Matrix.zeros(3, 2999), Gf2Matrix(2999, 2, [3] * 2999)))
# column 0 of each product row is selected twice and cancels
@example((Gf2Matrix(2, 3, [0b011, 0b110]), Gf2Matrix(3, 2, [0b01, 0b11, 0b01])))
def test_mul_and_transpose_match_the_textbook_on_wide_sparse_rows(operands):
    # Each factor is read as it comes, with no index, and again through an
    # index of its textbook rows. With both factors indexed, the product
    # is formed on index rows: neither factor builds words, and the
    # product is held as its index. A transpose is held as its index
    # either way, and so is the transpose of a transpose, with no words
    # even when its source has built its own; the source a transpose
    # remembers holds exactly the transposed bits.
    a, b = operands
    product = oracle.mat_mul(a.to_rows(), b.to_rows(), b.cols)
    for left in (a, with_textbook_index(a)):
        assert left.mul(b).to_rows() == product
    left, right = with_textbook_index(a), with_textbook_index(b)
    both = left.mul(right)
    assert not (words_built(left) or words_built(right) or words_built(both))
    assert list(map(list, both._index)) == oracle.set_columns(product)
    assert both.to_rows() == product
    for m in (a, b):
        columns = oracle.transpose(m.to_rows(), m.cols)
        for source in (m, with_textbook_index(m)):
            t = source.transpose()
            assert t.to_rows() == columns
            assert list(map(list, t._index)) == oracle.set_columns(columns)
            assert t._transposed is (source if source._index is not None else None)
            assert source.bits is source.bits  # the source's words, built first
            back = t.transpose()
            assert back is not source and back._index is not None and not words_built(back)
            assert back.to_rows() == m.to_rows()


@st.composite
def narrow_products(draw):
    """(a, b): b at most 70 columns wide, a up to 2000 columns wide, sparse or dense.

    "zero" takes b's columns from the kernel of a, and "identity" pairs
    a = [I | X] with b = [I; 0] under one shuffle of the inner index, so
    that the product is zero or I; "any" draws b freely.
    """
    kind = draw(st.sampled_from(["any", "zero", "identity"]))
    dense = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def words(rows, width):
        if dense:
            return [rng.getrandbits(width) for _ in range(rows)]
        return sparse_words(rng, rows, width)

    if kind == "identity":
        inner = draw(st.integers(0, 600))
        n = draw(st.integers(0, min(40, inner)))
        a = hstack(Gf2Matrix.identity(n), Gf2Matrix(n, inner - n, words(n, inner - n)))
        b = vstack(Gf2Matrix.identity(n), Gf2Matrix.zeros(inner - n, n))
        shuffle = list(range(inner))
        rng.shuffle(shuffle)
        p = Permutation(tuple(shuffle))
        return a.permute(identity_perm(n), p), b.permute(p, identity_perm(n))
    inner, cols = draw(st.integers(0, 2000)), draw(st.integers(0, 70))
    rows = draw(SMALL)
    a = Gf2Matrix(rows, inner, words(rows, inner))
    if kind == "zero":
        kernel = a.right_kernel_basis()
        return a, kernel.split_cols(min(cols, kernel.cols))[0]
    return a, Gf2Matrix(inner, cols, words(inner, cols))


@settings(max_examples=150, deadline=None)
@given(narrow_products(), st.booleans())
@example((Gf2Matrix.zeros(0, 7), Gf2Matrix.zeros(7, 3)), False)
@example((Gf2Matrix.zeros(3, 0), Gf2Matrix.zeros(0, 70)), False)
@example((Gf2Matrix(2, 3, [0b111, 0b011]), Gf2Matrix(3, 1, [1, 1, 0])), False)
@example((Gf2Matrix(2, 3, [0b011, 0b110]), Gf2Matrix(3, 1, [1, 1, 1])), True)
def test_mul_writes_no_record_and_the_boundary_check_records_only_a_zero_product(
    operands, indexed
):
    # Narrow right factors, under dense and sparse left factors, take the
    # one row loop, or the index product when both are held as their
    # index: it must give the textbook product and leave both factors'
    # records as they were. The boundary check then agrees with the
    # textbook on whether the product is zero, and records the right
    # factor itself only then.
    a, b = operands
    if indexed:
        a, b = with_textbook_index(a), with_textbook_index(b)
    want = oracle.mat_mul(a.to_rows(), b.to_rows(), b.cols)
    got = a.mul(b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.to_rows() == want
    assert a._record is None and b._record is None
    zero = oracle.is_zero(want)
    assert a._annihilates(b) is zero
    assert a._record is (b if zero and not a.is_zero() and not b.is_zero() else None)
    assert b._record is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(SMALL, WIDE).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(st.integers(0, 300), SMALL).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(SMALL, SMALL).flatmap(lambda s: kernel_matrices(*s)),
), st.integers(0, 2**32 - 1))
@example(Gf2Matrix.zeros(0, 7), 0)
@example(Gf2Matrix.zeros(7, 0), 0)
def test_permute_matches_the_textbook_on_wide_sparse_rows(m, seed):
    rng = random.Random(seed)
    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    want = oracle.permute(m.to_rows(), rows, cols)
    for source in (m, with_textbook_index(m)):
        got = source.permute(Permutation(tuple(rows)), Permutation(tuple(cols)))
        assert got.to_rows() == want
        assert list(map(list, got._index)) == oracle.set_columns(want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(SMALL, WIDE).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(st.integers(0, 300), SMALL).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(SMALL, SMALL).flatmap(lambda s: kernel_matrices(*s)),
), st.integers(0, 2**32 - 1))
@example(Gf2Matrix.zeros(0, 7), 0)
@example(Gf2Matrix.zeros(7, 0), 0)
def test_permute_with_fixed_columns_moves_the_row_words_themselves(m, seed):
    # _permute_pair keeps its right factor's columns in place, so each of
    # that factor's row words moves whole.
    rng = random.Random(seed)
    rows = list(range(m.rows))
    rng.shuffle(rows)
    perm = Permutation(tuple(rows))
    _, got = gf2._permute_pair(Gf2Matrix.zeros(0, m.rows), m, identity_perm(0), perm)
    assert got.to_rows() == oracle.permute(m.to_rows(), rows, list(range(m.cols)))
    assert all(got.bits[i] is word for i, word in zip(rows, m.bits))
    assert m.permute(perm, identity_perm(m.cols)) == got


@st.composite
def banded_matrices(draw):
    """r x 3000 matrices whose set bits lie in one window of at most 64
    columns at offset 2900 or more, each row zero, one bit or dense."""
    rows = draw(st.integers(0, 24))
    width = draw(st.integers(1, 64))
    offset = draw(st.integers(2900, 3000 - width))
    kinds = draw(st.lists(st.sampled_from("z1d"), min_size=rows, max_size=rows))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    draw_word = {
        "z": lambda: 0,
        "1": lambda: 1 << rng.randrange(width),
        "d": lambda: rng.getrandbits(width) | 1 << (width - 1),
    }
    return Gf2Matrix(rows, 3000, [draw_word[k]() << offset for k in kinds])


@pytest.mark.parametrize("indexed", [False, True], ids=["unindexed", "indexed"])
@settings(max_examples=100, deadline=None)
@given(banded_matrices(), st.integers(0, 2**32 - 1))
@example(Gf2Matrix(4, 3000, [0, 1 << 2999, (2**64 - 1) << 2936, 1 << 2900]), 0)
@example(Gf2Matrix(3, 3000, [1 << 2950, 0, 1 << 2950]), 1)
def test_banded_rows_permute_and_transpose_as_the_textbook(indexed, m, seed):
    # Rows far from column 0 are read through the index, or peeled from
    # their lowest set bit; either way each word is built on its band.
    rng = random.Random(seed)
    if indexed:
        m = with_textbook_index(m)
    t = m.transpose()
    assert t.to_rows() == oracle.transpose(m.to_rows(), m.cols)
    assert t.transpose() == m  # a tall matrix whose columns start at row 2900 or later
    for a in (m, t):
        rows, cols = list(range(a.rows)), list(range(a.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        got = a.permute(Permutation(tuple(rows)), Permutation(tuple(cols)))
        assert got.to_rows() == oracle.permute(a.to_rows(), rows, cols)


def boundary_pair():
    """A 2x3 d1 and a 3x1 d2 with d1 d2 = 0, and permutations to move them."""
    d1 = Gf2Matrix(2, 3, [0b011, 0b110])
    d2 = Gf2Matrix(3, 1, [1, 1, 1])
    return d1, d2, Permutation((1, 0)), Permutation((2, 0, 1))


def test_permute_pair_carries_the_zero_record_that_names_the_right_factor(monkeypatch):
    d1, d2, rows, mid = boundary_pair()
    assert d1._annihilates(d2) and d1._record is d2
    d1p, d2p = gf2._permute_pair(d1, d2, rows, mid)
    assert d1p == d1.permute(rows, mid) and d2p == d2.permute(mid, identity_perm(1))
    assert d1p._record is d2p and d2p._record is None
    loops = []
    loop = gf2._mul_rows
    monkeypatch.setattr(gf2, "_mul_rows", lambda w, o: loops.append(None) or loop(w, o))
    assert d1p.mul(d2p).is_zero() and loops == []
    assert d1.permute(rows, mid).mul(d2p).is_zero() and len(loops) == 1


def test_permute_pair_carries_no_other_record():
    cases = []
    d1, d2, *_ = boundary_pair()
    d1.mul(d2)  # a product with no check: no record
    cases.append((d1, d2))
    d1, d2, *_ = boundary_pair()
    d1._annihilates(Gf2Matrix(d2.rows, d2.cols, d2.bits))  # records an equal copy, not d2 itself
    cases.append((d1, d2))
    d1, d2, *_ = boundary_pair()
    d1._annihilates(d2)
    d1._annihilates(Gf2Matrix(3, 2, [0b11, 0b11, 0b11]))  # overwritten by another zero product
    cases.append((d1, d2))
    a = Gf2Matrix(3, 3, [1, 0b11, 0b101])
    inv = a.inverse()
    assert not a._annihilates(inv)  # the identity: no record
    cases.append((a, inv))
    for left, right in cases:
        assert left._record is not right
        left_p, _ = gf2._permute_pair(
            left, right, identity_perm(left.rows), identity_perm(left.cols)
        )
        assert left_p._record is None


@st.composite
def unit_lower(draw, largest=300):
    """Unit lower triangular: 0-4 ones left of the diagonal per row, or dense and small."""
    if draw(st.booleans()):
        n = draw(st.integers(0, largest))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        below = [sparse_words(rng, 1, i)[0] for i in range(n)]
    else:
        n = draw(SMALL)
        below = [draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    return Gf2Matrix(n, n, [word | (1 << i) for i, word in enumerate(below)])


@settings(max_examples=200, deadline=None)
@given(unit_lower())
@example(Gf2Matrix.identity(0))
def test_inv_unit_lower_triangular_matches_forward_substitution(m):
    assert m.inv_unit_lower_triangular().to_rows() == oracle.unit_lower_inverse(m.to_rows())


def words_built(m):
    """Whether m's bits slot is set, read past the constructor that builds it on first read."""
    try:
        object.__getattribute__(m, "bits")
    except AttributeError:
        return False
    return True


def index_makers(m, rng):
    """Constructors of fresh matrices equal to m, one per way an index is kept.

    Each call makes a new matrix held as its index, with no words built.
    """
    def parsed(x):
        return parse_matrix_text(format_matrix_text(x))

    rows, cols = list(range(m.rows)), list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    p, q = Permutation(tuple(rows)), Permutation(tuple(cols))
    extra_rows = Gf2Matrix(2, m.cols, sparse_words(rng, 2, m.cols))
    extra_cols = Gf2Matrix(m.rows, 3, sparse_words(rng, m.rows, 3))
    makers = {
        "transpose": lambda: m.transpose().transpose(),
        "permute": lambda: m.permute(p, q).permute(inverse_perm(p), inverse_perm(q)),
        "split_rows_top": lambda: parsed(vstack(m, extra_rows)).split_rows(m.rows)[0],
        "split_rows_bottom": lambda: parsed(vstack(extra_rows, m)).split_rows(2)[1],
        "split_cols_left": lambda: parsed(hstack(m, extra_cols)).split_cols(m.cols)[0],
        "split_cols_right": lambda: parsed(hstack(extra_cols, m)).split_cols(3)[1],
        "parse_matrix_text": lambda: parsed(m),
    }
    if m.cols == 0:  # a split at column 0 hands back a zero-column matrix of words
        del makers["split_cols_left"]
    return makers


def index_answers(make, m, rng):
    """What the readers of bits answer on matrices from make, which equal m.

    Each question goes to a fresh matrix, so that it is answered with no
    words built, unless the question itself reads bits.
    """
    inner = rng.randint(0, 5)
    right = Gf2Matrix(m.cols, inner, sparse_words(rng, m.cols, inner))
    left = Gf2Matrix(inner, m.rows, sparse_words(rng, inner, m.rows))
    other = Gf2Matrix(m.rows, m.cols, sparse_words(rng, m.rows, m.cols))
    cells = []
    if m.rows and m.cols:
        cells = [(rng.randrange(m.rows), rng.randrange(m.cols)) for _ in range(8)]
    cells += [(i, j) for i, row in enumerate(oracle.set_columns(m.to_rows())) for j in row][:8]
    probe = make()
    had_words = words_built(probe)
    got = [probe.get(i, j) for i, j in cells]
    answers = {
        "get": got,
        "get_builds_no_words": words_built(probe) == had_words,
        "mul_left": make().mul(right),
        "mul_right": left.mul(make()),
        "mul_identity": make().mul(Gf2Matrix.identity(m.cols)),
        "rank": make().rank(),
        "add": make() + other,
        "eq": make() == m,
        "hash": hash(make()) == hash(m),
        "is_identity": make().is_identity(),
        "is_lower_unitriangular": make().is_lower_unitriangular(),
    }
    if m.is_lower_unitriangular():
        rhs = Gf2Matrix(m.rows, inner, sparse_words(rng, m.rows, inner))
        answers["inv_unit_lower_triangular"] = make().inv_unit_lower_triangular()
        answers["solve_unit_lower"] = make().solve_unit_lower(rhs)
    return answers


def built(make):
    """make, with each matrix's words built before it is returned."""
    def make_built():
        x = make()
        assert x.bits is x.bits  # built once, then a plain slot
        return x
    return make_built


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(SMALL, WIDE).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(st.integers(0, 300), SMALL).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    any_matrix(),
    unit_lower(largest=60),
), st.integers(0, 2**32 - 1))
@example(Gf2Matrix.zeros(0, 7), 0)
@example(Gf2Matrix.zeros(7, 0), 0)
@example(Gf2Matrix.identity(5), 1)
@example(Gf2Matrix(3, 3, [1, 0, 0b110]), 2)  # a zero row, and a row with no diagonal
def test_index_made_matrices_build_the_textbook_words_on_first_read(m, seed):
    # Every constructor that keeps an index leaves bits unset; the words
    # built on first read are the textbook rows', and every reader of
    # bits answers alike before and after they are built.
    textbook = m.to_rows()
    want = index_answers(lambda: Gf2Matrix(m.rows, m.cols, m.bits), m, random.Random(seed))
    assert want["eq"] and want["hash"]
    for name, make in index_makers(m, random.Random(seed)).items():
        x = make()
        assert not words_built(x), name
        assert list(map(list, x._index)) == oracle.set_columns(textbook), name
        assert list(x.bits) == oracle.words(textbook), name
        assert words_built(x), name
        assert index_answers(make, m, random.Random(seed)) == want, name
        assert index_answers(built(make), m, random.Random(seed)) == want, name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
@example(0, 0, 0)
def test_index_made_boundaries_build_the_textbook_words_on_first_read(width, height, seed):
    img = random_image(width, height, 0.5, seed)
    vertices, edges, squares = oracle.cubical_cells(set(img.foreground()))
    d1 = [[int(v in edge) for edge in edges] for v in range(len(vertices))]
    d2 = [[int(e in square) for square in squares] for e in range(len(edges))]
    for degree, textbook in ((1, d1), (2, d2)):
        def make():
            return boundary_matrices(build_cubical(img)).d(degree)

        made = make()
        assert made.rank() == oracle.rank(textbook)
        assert not words_built(made)  # not by the D1 . D2 check, nor by a spanning-forest rank
        assert list(made.bits) == oracle.words(textbook)
        m = Gf2Matrix(made.rows, made.cols, oracle.words(textbook))
        want = index_answers(lambda: Gf2Matrix(m.rows, m.cols, m.bits), m, random.Random(seed))
        assert index_answers(make, m, random.Random(seed)) == want
        assert index_answers(built(make), m, random.Random(seed)) == want


def test_a_missing_attribute_of_an_index_made_matrix_still_raises():
    m = Gf2Matrix(2, 3, [0b101, 0b010]).transpose()
    assert not words_built(m)
    for name in ("words", "_bits", "Bits", "__deepcopy__"):
        with pytest.raises(AttributeError, match=name):
            getattr(m, name)
        assert not hasattr(m, name)
    assert not words_built(m)  # asking for another name builds no words
    with pytest.raises(AttributeError, match="immutable"):
        m.bits = (1, 1, 0)
    assert m.bits == (0b01, 0b10, 0b01)


@st.composite
def graph_index(draw, largest=12):
    """(rows, cols, index): index rows of 0-2 sorted distinct columns, repeats likely."""
    rows, cols = draw(st.integers(0, largest)), draw(st.integers(0, largest))
    pool = [()] + [(j,) for j in range(cols)]
    pool += [(a, b) for a in range(cols) for b in range(a + 1, cols)]
    distinct = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return rows, cols, draw(st.lists(st.sampled_from(distinct), min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(graph_index())
@example((0, 6, []))
@example((6, 0, [()] * 6))
@example((4, 3, [(0, 2)] * 4))  # one row, repeated
@example((3, 3, [(0,), (0, 1), (1,)]))  # a cycle through the ground vertex
def test_spanning_forest_rank_is_the_word_rank(shape):
    # Rows of 0-2 ones, and (as the transpose) columns of 0-2 ones: both
    # ranks are counted by union-find on the index, with no words built,
    # and equal the word rank of the same entries and the oracle's.
    rows, cols, index = shape
    textbook = [[int(j in row) for j in range(cols)] for row in index]
    want = oracle.rank(textbook)
    by_rows = Gf2Matrix._from_index(rows, cols, index)
    by_cols = by_rows.transpose()
    assert by_rows.rank() == want and by_cols.rank() == want
    assert not words_built(by_rows) and not words_built(by_cols)
    assert Gf2Matrix(rows, cols, oracle.words(textbook)).rank() == want
    assert Gf2Matrix(cols, rows, by_cols.bits).rank() == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    any_matrix(),
    st.tuples(SMALL, WIDE).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(WIDE, SMALL).flatmap(lambda s: kernel_matrices(*s, wide=True)),
))
@example(Gf2Matrix.zeros(0, 0))
@example(Gf2Matrix.zeros(0, 5))
@example(Gf2Matrix.zeros(5, 0))
def test_identity_factors_match_the_textbook_product(a):
    rows, cols = a.to_rows(), a.cols
    left = Gf2Matrix.identity(a.rows).mul(a)
    right = a.mul(Gf2Matrix.identity(a.cols))
    for got in (left, right):
        assert (got.rows, got.cols) == (a.rows, a.cols)
    assert left.to_rows() == oracle.mat_mul(oracle.identity(a.rows), rows, cols)
    assert right.to_rows() == oracle.mat_mul(rows, oracle.identity(cols), cols)


@st.composite
def near_identity_operands(draw):
    """(m, left, right): m one edit away from the identity, and factors to put around it.

    The edit is one extra off-diagonal bit, one missing diagonal bit or
    two swapped rows; the 1 x 1 zero matrix is a missing bit at n = 1.
    """
    kind = draw(st.sampled_from(["extra", "missing", "swap"]))
    n = draw(st.integers(1 if kind == "missing" else 2, 12))
    words = [1 << i for i in range(n)]
    i = draw(st.integers(0, n - 1))
    j = (i + draw(st.integers(1, max(1, n - 1)))) % n
    if kind == "extra":
        words[i] |= 1 << j
    elif kind == "missing":
        words[i] = 0
    else:
        words[i], words[j] = words[j], words[i]
    m = Gf2Matrix(n, n, words)
    return m, draw(kernel_matrices(draw(SMALL), n)), draw(kernel_matrices(n, draw(SMALL)))


@settings(max_examples=200, deadline=None)
@given(near_identity_operands())
@example((Gf2Matrix.zeros(1, 1), Gf2Matrix(1, 1, [1]), Gf2Matrix(1, 1, [1])))
@example((Gf2Matrix(2, 2, [1, 0b11]), Gf2Matrix(1, 2, [0b11]), Gf2Matrix(2, 1, [1, 1])))
@example((Gf2Matrix(2, 2, [0b10, 0b01]), Gf2Matrix(1, 2, [0b01]), Gf2Matrix(2, 1, [1, 0])))
def test_near_identity_factors_take_the_full_product(operands):
    m, left, right = operands
    assert not m.is_identity()
    assert m.mul(right).to_rows() == oracle.mat_mul(m.to_rows(), right.to_rows(), right.cols)
    assert left.mul(m).to_rows() == oracle.mat_mul(left.to_rows(), m.to_rows(), m.cols)


@st.composite
def identity_candidates(draw):
    """Square and other matrices near the identity or unit lower triangular.

    Covers the identity, one-edit neighbours of it, unit lower triangular
    matrices (with their last row cut to its diagonal bit in half the
    draws), the identity padded by a zero row or column, and dense ones.
    """
    kind = draw(st.sampled_from(["identity", "near", "lower", "padded", "dense"]))
    if kind == "identity":
        return Gf2Matrix.identity(draw(st.integers(0, 300)))
    if kind == "near":
        return draw(near_identity_operands())[0]
    if kind == "lower":
        m = draw(unit_lower())
        if m.rows and draw(st.booleans()):
            words = list(m.bits)
            words[-1] = 1 << (m.rows - 1)
            m = Gf2Matrix(m.rows, m.cols, words)
        return m
    if kind == "padded":
        eye = Gf2Matrix.identity(draw(st.integers(0, 12)))
        if draw(st.booleans()):
            return vstack(eye, Gf2Matrix.zeros(1, eye.cols))
        return hstack(eye, Gf2Matrix.zeros(eye.rows, 1))
    return draw(dense_matrices())


@settings(max_examples=300, deadline=None)
@given(identity_candidates())
@example(Gf2Matrix.zeros(0, 0))
@example(Gf2Matrix.zeros(3, 0))
@example(Gf2Matrix.zeros(0, 3))
@example(Gf2Matrix(3, 3, [1, 0b11, 0b100]))  # unit lower, last row a single bit
@example(Gf2Matrix(3, 3, [1, 0b10, 0b110]))  # bit above the diagonal in a middle row
def test_identity_and_unitriangular_tests_match_their_definitions(m):
    rows = m.to_rows()
    assert m.is_identity() == oracle.is_identity(rows, m.cols)
    assert m.is_lower_unitriangular() == oracle.is_lower_unitriangular(rows, m.cols)


QUESTIONS = ("is_identity", "is_lower_unitriangular")


def textbook_answers(m):
    rows = m.to_rows()
    return oracle.is_identity(rows, m.cols), oracle.is_lower_unitriangular(rows, m.cols)


def answers(m, first=0):
    """m's answers to both questions, asked twice, QUESTIONS[first] first."""
    order = QUESTIONS[first:] + QUESTIONS[:first]
    got = [getattr(m, q)() for q in order]
    assert [getattr(m, q)() for q in order] == got
    return tuple(got[::-1] if first else got)


def fresh(m):
    """m, checked to hold no answer yet."""
    assert m._answers is None
    return m


@settings(max_examples=300, deadline=None)
@given(
    identity_candidates().filter(lambda m: m.rows == m.cols),
    st.sampled_from(["words", "index", "index, words later"]),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
@example(Gf2Matrix.identity(4), "index", 0, 0)
@example(Gf2Matrix.identity(1), "words", 1, 0)  # the flip leaves the 1 x 1 zero matrix
@example(Gf2Matrix(3, 3, [1, 0b11, 0b100]), "index, words later", 1, 5)
def test_a_remembered_answer_is_that_of_a_fresh_scan(m, form, first, seed):
    # Asked once, each question is answered from this matrix's own bits or
    # index; asked again, from the answer it remembers. No matrix made
    # from it, or from its bits with one bit flipped, starts with its
    # answers, whatever it was made by.
    n = m.rows
    rng = random.Random(seed)
    rows = m.to_rows()
    if form == "words":
        x = fresh(Gf2Matrix(n, n, m.bits))
    else:
        x = fresh(Gf2Matrix._from_index(n, n, oracle.set_columns(rows)))
    want = textbook_answers(m)
    if form == "index, words later":
        assert getattr(x, QUESTIONS[first])() == want[first]
        assert x.bits == m.bits
    assert answers(x, first) == want
    assert words_built(x) == (form != "index")
    if n == 0:
        return

    i, j = rng.randrange(n), rng.randrange(n)
    flipped = [row[:] for row in rows]
    flipped[i][j] ^= 1
    f = Gf2Matrix.from_rows(flipped, cols=n)
    eye, zero = Gf2Matrix.identity(n), Gf2Matrix.zeros(n, n)
    # [I 0; F I] is unit lower triangular whatever F is; its lower left
    # block is split off whole, through an index or through words.
    stacked = vstack(hstack(eye, zero), hstack(f, eye))
    if form != "words":
        stacked = Gf2Matrix._from_index(2 * n, 2 * n, oracle.set_columns(stacked.to_rows()))
    assert answers(stacked) == (False, True) or f == zero
    _, bottom = stacked.split_rows(n)
    row_perm = Permutation(tuple(rng.sample(range(n), n)))
    col_perm = Permutation(tuple(rng.sample(range(n), n)))
    made = {
        "_raw": Gf2Matrix._raw(n, n, f.bits),
        "_from_index": Gf2Matrix._from_index(n, n, oracle.set_columns(flipped)),
        "split": fresh(bottom).split_cols(n)[0],
        "+": x + Gf2Matrix(n, n, [(1 << j) if r == i else 0 for r in range(n)]),
        "permute": x.permute(row_perm, col_perm),
    }
    for how, y in made.items():
        want_y = textbook_answers(y)
        assert y.to_rows() == (
            oracle.permute(rows, list(row_perm.image), list(col_perm.image))
            if how == "permute" else flipped
        ), how
        assert answers(fresh(y), 1 - first) == want_y, how


@pytest.mark.parametrize("n", [0, 1, 2, 7, 70])
def test_inverse_of_an_identity_is_an_equal_matrix(n):
    for eye in (Gf2Matrix.identity(n), Gf2Matrix(n, n, [1 << i for i in range(n)])):
        inv = eye.inverse()
        assert inv == eye
        assert inv.to_rows() == oracle.identity(n)


@st.composite
def repeated_products(draw):
    """(a, base, rights): a left factor, a right factor and a sequence of rights.

    a times base is zero (base spans part of the kernel of a), the identity
    (a is unit lower triangular and base is its inverse) or neither. Each
    right factor in the sequence is base itself, an equal copy of it, base
    with one bit flipped, or another random matrix of its shape.
    """
    kind = draw(st.sampled_from(["zero", "identity", "other"]))
    if kind == "identity":
        a = draw(unit_lower(largest=40))
        base = a.inverse()
    else:
        a = draw(kernel_matrices(draw(SMALL), draw(SMALL)))
        cols = draw(SMALL)
        if kind == "zero":
            kernel = a.right_kernel_basis()
            base = kernel.mul(draw(kernel_matrices(kernel.cols, cols)))
        else:
            base = draw(kernel_matrices(a.cols, cols))
    rights = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["same", "copy", "flip", "random"]))
        if how == "same":
            rights.append(base)
        elif how == "copy":
            rights.append(Gf2Matrix(base.rows, base.cols, base.bits))
        elif how == "flip" and base.rows and base.cols:
            i = draw(st.integers(0, base.rows - 1))
            j = draw(st.integers(0, base.cols - 1))
            words = list(base.bits)
            words[i] ^= 1 << j
            rights.append(Gf2Matrix(base.rows, base.cols, words))
        else:
            rights.append(draw(kernel_matrices(base.rows, base.cols)))
    return a, base, rights


@settings(max_examples=300, deadline=None)
@given(repeated_products())
@example((Gf2Matrix(2, 2, [1, 0b11]), Gf2Matrix(2, 2, [1, 0b11]),
          [Gf2Matrix(2, 2, [1, 0b11]), Gf2Matrix(2, 2, [1, 0b10])]))
@example((Gf2Matrix(1, 2, [0b11]), Gf2Matrix(2, 1, [1, 1]),
          [Gf2Matrix(2, 1, [1, 1]), Gf2Matrix(2, 1, [1, 0])]))
def test_repeated_products_on_one_left_factor_match_the_textbook(operands):
    # A boundary check that found a zero product records its right factor;
    # a later product may reuse that only for the same right factor, not
    # for an equal copy or a near miss.
    a, base, rights = operands
    rows = a.to_rows()
    assert a._annihilates(base) is oracle.is_zero(oracle.mat_mul(rows, base.to_rows(), base.cols))
    for b in [base, *rights]:
        assert a.mul(b).to_rows() == oracle.mat_mul(rows, b.to_rows(), b.cols)


def test_the_record_is_the_bare_right_factor(monkeypatch):
    d1, d2, *_ = boundary_pair()
    assert d1._annihilates(d2)
    assert d1._record is d2
    assert [obj for obj in gc.get_referents(d1) if isinstance(obj, Gf2Matrix)] == [d2]
    loops = []
    loop = gf2._mul_rows
    monkeypatch.setattr(gf2, "_mul_rows", lambda w, o: loops.append(None) or loop(w, o))
    # A repeat on d2 itself hands back a new zero matrix with no row loop;
    # an equal copy of d2 is not matched, and its product is formed.
    first, again = d1.mul(d2), d1.mul(d2)
    assert first.is_zero() and again.is_zero() and first is not again and loops == []
    assert d1.mul(Gf2Matrix(d2.rows, d2.cols, d2.bits)).is_zero() and len(loops) == 1


def test_no_record_points_back_at_a_factor_that_names_it():
    # a b = 0 and b a = 0: a records b, so b records nothing, and the two
    # make no reference cycle. Nor does a matrix record its own square.
    a, b = Gf2Matrix(2, 2, [0b10, 0]), Gf2Matrix(2, 2, [0b10, 0])
    assert a._annihilates(b) and b._annihilates(a)
    assert a._record is b and b._record is None
    assert b._annihilates(b) and b._record is None
    # A product that comes out I records nothing, a pinned factor's included.
    one_plus = Gf2Matrix(3, 3, [1, 0b11, 0b111])
    s = one_plus.inv_unit_lower_triangular()
    object.__setattr__(s, "_pin", gf2._Pin(one_plus))
    assert one_plus.mul(s).is_identity() and s.mul(one_plus).is_identity()
    assert one_plus._record is None and s._record is None


@st.composite
def unit_lower_systems(draw):
    """(l, rhs): l as in unit_lower(); rhs sparse and up to 3000 wide when l
    has at most 40 rows (which keeps the oracle's lists small), else dense
    and at most 12 wide."""
    l = draw(unit_lower())
    if l.rows <= 40 and draw(st.booleans()):
        return l, draw(kernel_matrices(l.rows, draw(WIDE), wide=True))
    return l, draw(kernel_matrices(l.rows, draw(SMALL)))


@settings(max_examples=200, deadline=None)
@given(unit_lower_systems())
@example((Gf2Matrix.identity(0), Gf2Matrix.zeros(0, 5)))
@example((Gf2Matrix(3, 3, [1, 0b11, 0b101]), Gf2Matrix.zeros(3, 0)))
@example((Gf2Matrix(2, 2, [1, 0b11]), Gf2Matrix(2, 2999, [1 << 2998, 1])))
def test_solve_unit_lower_is_the_inverse_times_the_right_side(operands):
    l, rhs = operands
    want = oracle.mat_mul(oracle.unit_lower_inverse(l.to_rows()), rhs.to_rows(), rhs.cols)
    got = l.solve_unit_lower(rhs)
    assert (got.rows, got.cols) == (rhs.rows, rhs.cols)
    assert got.to_rows() == want


@pytest.mark.parametrize("m", [
    Gf2Matrix(2, 2, [0b11, 0b10]),  # a bit above the diagonal
    Gf2Matrix(2, 2, [1, 0b01]),  # a zero on the diagonal
    Gf2Matrix(2, 3, [1, 0b10]),  # not square
])
def test_solve_unit_lower_refuses_other_matrices(m):
    with pytest.raises(ValueError, match="not unit lower triangular"):
        m.solve_unit_lower(Gf2Matrix.zeros(m.cols, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        Gf2Matrix.identity(2).solve_unit_lower(Gf2Matrix.zeros(3, 2))


def test_pow_laws():
    rng = random.Random(9)
    m = random_matrix(rng, 5, 5)
    assert m.pow(0).is_identity()
    assert m.pow(1) == m
    assert m.pow(5) == m.pow(2).mul(m.pow(3))
    with pytest.raises(ValueError):
        Gf2Matrix.zeros(2, 3).pow(2)
    with pytest.raises(ValueError):
        m.pow(-1)


def test_nilpotent_series_inverse():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 9)
        rows = [[1 if j < i and rng.random() < 0.6 else 0 for j in range(n)] for i in range(n)]
        strict = Gf2Matrix.from_rows(rows, cols=n)
        series = strict.nilpotent_series_inverse(n)
        one_plus = strict + Gf2Matrix.identity(n)
        assert series == one_plus.inverse()
    with pytest.raises(NotNilpotent):
        Gf2Matrix.identity(3).nilpotent_series_inverse(5)
    # Exact bound: smallest annihilating exponent works, one less does not.
    shift = Gf2Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert shift.nilpotent_series_inverse(3) == (shift + Gf2Matrix.identity(3)).inverse()
    with pytest.raises(NotNilpotent):
        shift.nilpotent_series_inverse(2)


@st.composite
def series_operands(draw):
    """A square matrix and a bound; half the matrices are strictly lower
    triangular, so nilpotent of index at most n, and half are arbitrary."""
    n = draw(st.integers(0, 7))
    strict = draw(st.booleans())
    rows = [
        [draw(st.integers(0, 1)) if j < i or not strict else 0 for j in range(n)]
        for i in range(n)
    ]
    return Gf2Matrix.from_rows(rows, cols=n), draw(st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(series_operands())
@example((Gf2Matrix.zeros(0, 0), 0))
@example((Gf2Matrix.zeros(3, 3), 0))
@example((Gf2Matrix.identity(2), 0))
def test_series_inverse_refuses_exactly_the_non_nilpotent_bounds(operands):
    m, bound = operands
    if m.pow(bound).is_zero():
        assert m.nilpotent_series_inverse(bound) == (m + Gf2Matrix.identity(m.rows)).inverse()
    else:
        with pytest.raises(NotNilpotent):
            m.nilpotent_series_inverse(bound)


@st.composite
def nilpotent_candidates(draw):
    """(m, bound) for the series, with bound near the index that matters.

    Either m is strictly lower triangular, n <= 40, with a bound in
    n-2..n+1, or m = P J P^-1 for an invertible P and a J made of shift
    blocks, which is nilpotent but not triangular, with a bound from 0
    to n+1.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.05, 0.3, 0.9]))
        words = [sum(1 << j for j in range(i) if rng.random() < density) for i in range(n)]
        return Gf2Matrix(n, n, words), draw(st.integers(max(0, n - 2), n + 1))
    words: list[int] = []
    while len(words) < n:
        size = draw(st.integers(1, n - len(words)))
        start = len(words)
        words.extend([0] + [1 << (start + i) for i in range(size - 1)])
    lower = [rng.getrandbits(i) | (1 << i) for i in range(n)]
    upper = [(rng.getrandbits(n) >> (i + 1) << (i + 1)) | (1 << i) for i in range(n)]
    p = Gf2Matrix(n, n, lower).mul(Gf2Matrix(n, n, upper))
    return p.mul(Gf2Matrix(n, n, words)).mul(p.inverse()), draw(st.integers(0, n + 1))


@settings(max_examples=200, deadline=None)
@given(nilpotent_candidates())
@example((Gf2Matrix.zeros(0, 0), 0))
@example((Gf2Matrix(3, 3, [0, 1, 0b10]), 2))  # a full shift needs its whole index
@example((Gf2Matrix(3, 3, [0, 1, 0b10]), 3))
@example((Gf2Matrix(2, 2, [0b10, 0]), 1))  # nilpotent, strictly upper triangular
def test_series_inverse_is_exact_on_nilpotent_matrices(operands):
    m, bound = operands
    rows = m.to_rows()
    annihilated = oracle.is_zero(oracle.power(rows, bound))
    if annihilated:
        one_plus = oracle.mat_add(rows, oracle.identity(m.rows))
        assert m.nilpotent_series_inverse(bound).to_rows() == oracle.inverse(one_plus)
    else:
        with pytest.raises(NotNilpotent):
            m.nilpotent_series_inverse(bound)


def square_of_shape(rng, n, density, shape):
    """An n x n matrix of the given density: strictly lower triangular,
    nearly so (one bit set on or above the diagonal, in a random row), or
    general."""
    words = [
        sum(1 << j for j in range(i if shape != "general" else n) if rng.random() < density)
        for i in range(n)
    ]
    if shape == "nearly" and n:
        i = rng.randrange(n)
        words[i] |= 1 << rng.randrange(i, n)
    return Gf2Matrix(n, n, words)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    density=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    shape=st.sampled_from(["strict", "nearly", "general"]),
)
@example(seed=0, n=0, density=0.5, shape="strict")
@example(seed=0, n=12, density=0.0, shape="general")
def test_pow_is_the_textbook_power(seed, n, density, shape):
    m = square_of_shape(random.Random(seed), n, density, shape)
    rows = m.to_rows()
    for k in range(n + 2):
        got = m.pow(k)
        assert (got.rows, got.cols) == (n, n)
        assert got.to_rows() == oracle.power(rows, k)


def test_pow_forms_no_product_when_every_chain_is_shorter(monkeypatch):
    # Rows 1 and 2 both step to 0, and row 3 steps to both: chains of 2
    # steps, which cancel in pairs, so M^2 = 0 although a chain has 2 steps.
    m = Gf2Matrix(4, 4, [0, 0b1, 0b1, 0b110])
    assert oracle.is_zero(oracle.power(m.to_rows(), 2))
    products = []
    real = Gf2Matrix.mul
    monkeypatch.setattr(Gf2Matrix, "mul", lambda a, b: products.append((a, b)) or real(a, b))
    assert m.pow(3).is_zero() and m.pow(9).is_zero() and products == []
    assert m.pow(2).is_zero() and products  # a chain of 2 steps: the power is formed
    products.clear()
    assert not m.pow(1).is_zero() and products
    products.clear()
    assert Gf2Matrix(2, 2, [0b10, 0]).pow(5).is_zero() and products  # not lower
    products.clear()
    # Strictly lower until row 2 sets its diagonal bit: the walk stops
    # there, and the power is formed.
    assert not Gf2Matrix(3, 3, [0, 0b1, 0b101]).pow(4).is_zero() and products
    products.clear()
    assert m.pow(0).is_identity() and Gf2Matrix.zeros(3, 3).pow(0).is_identity()
    assert Gf2Matrix.zeros(0, 0).pow(0) == Gf2Matrix.identity(0)
    assert Gf2Matrix.zeros(3, 3).pow(1).is_zero() and products == []
    with pytest.raises(ValueError, match="pow needs a square matrix, got 2x3"):
        Gf2Matrix(2, 3, [0, 0b1]).pow(4)


def random_unit_lower(rng, n, per_row):
    """An n x n unit lower triangular matrix with up to per_row bits left of each diagonal."""
    words = []
    for i in range(n):
        w = 1 << i
        for _ in range(per_row if i else 0):
            w |= 1 << rng.randrange(i)
        words.append(w)
    return Gf2Matrix(n, n, words)


def bits_of(row):
    return sum(x << j for j, x in enumerate(row))


def pinned_homotopy(lower, offset, below, after):
    """h = [0 L^-1 0; 0 0 0], pinned as the block elimination pins it.

    L^-1 fills the top rows in the columns from offset, with after more
    columns to its right and below zero rows under it.
    """
    a = lower.rows
    top = [bits_of(row) << offset for row in oracle.unit_lower_inverse(lower.to_rows())]
    h = Gf2Matrix(a + below, offset + a + after, top + [0] * below)
    object.__setattr__(h, "_pin", gf2._Pin(lower, offset=offset))
    return h


def pinned_lift(lower, rhs, zeros):
    """g = [L^-1 T; 0; I] with zeros zero rows, pinned as the block elimination pins it."""
    c = rhs.cols
    lift = oracle.mat_mul(oracle.unit_lower_inverse(lower.to_rows()), rhs.to_rows(), c)
    g = Gf2Matrix.from_rows(lift + oracle.zeros(zeros, c) + oracle.identity(c), cols=c)
    object.__setattr__(g, "_pin", gf2._Pin(lower, rhs))
    return g


WIDTHS = st.one_of(st.just(0), st.integers(1, 64), st.integers(65, 100))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    per_row=st.integers(0, 2),
    offset=st.integers(0, 3),
    below=st.integers(0, 3),
    after=st.integers(0, 3),
    width=WIDTHS,
)
@example(seed=1, n=300, per_row=2, offset=2, below=3, after=1, width=100)
@example(seed=2, n=300, per_row=1, offset=0, below=0, after=0, width=7)
@example(seed=3, n=300, per_row=2, offset=1, below=2, after=2, width=0)  # n x 0 right factor
@example(seed=4, n=0, per_row=0, offset=2, below=0, after=3, width=4)  # 0 x n homotopy
def test_pinned_homotopy_products_match_the_textbook_product(
    seed, n, per_row, offset, below, after, width
):
    rng = random.Random(seed)
    lower = random_unit_lower(rng, n, per_row)
    h = pinned_homotopy(lower, offset, below, after)
    b = random_matrix(rng, h.cols, width)
    assume(not h.is_identity() and not b.is_identity())
    got = h.mul(b)
    assert (got.rows, got.cols) == (h.rows, width)
    assert got.to_rows() == oracle.mat_mul(h.to_rows(), b.to_rows(), width)
    # The pin is checked once, holds and is kept.
    assert h._pin is not None and h._pin.checked
    assert h.mul(b) == got


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    per_row=st.integers(0, 2),
    c=st.integers(0, 40),
    t_density=st.sampled_from([0.05, 0.3]),
    zeros=st.integers(0, 3),
    width=WIDTHS,
)
@example(seed=1, n=300, per_row=2, c=40, t_density=0.05, zeros=2, width=100)
@example(seed=2, n=300, per_row=1, c=30, t_density=0.3, zeros=0, width=9)
@example(seed=3, n=300, per_row=2, c=20, t_density=0.05, zeros=1, width=0)  # n x 0 right factor
@example(seed=4, n=12, per_row=2, c=0, t_density=0.3, zeros=1, width=5)  # 0 x n right factor
def test_pinned_lift_products_match_the_textbook_product(
    seed, n, per_row, c, t_density, zeros, width
):
    rng = random.Random(seed)
    lower = random_unit_lower(rng, n, per_row)
    rhs = random_matrix(rng, n, c, t_density)
    g = pinned_lift(lower, rhs, zeros)
    x = random_matrix(rng, c, width)
    assume(not g.is_identity() and not x.is_identity())
    got = g.mul(x)
    assert (got.rows, got.cols) == (g.rows, width)
    assert got.to_rows() == oracle.mat_mul(g.to_rows(), x.to_rows(), width)
    assert g._pin is not None and g._pin.checked
    assert g.mul(x) == got


def test_a_pin_that_does_not_hold_is_dropped_for_the_row_loop():
    rng = random.Random(5)
    lower = random_unit_lower(rng, 60, 2)
    rhs = random_matrix(rng, 60, 20, 0.3)
    b = random_matrix(rng, 60, 30)
    b2 = random_matrix(rng, 63, 30)
    x = random_matrix(rng, 20, 30)
    h = pinned_homotopy(lower, 0, 1, 0)
    h2 = pinned_homotopy(lower, 2, 1, 1)
    g = pinned_lift(lower, rhs, 1)
    g0 = pinned_lift(lower, rhs, 0)
    assert all(m._pin.holds(m) for m in (h, h2, g, g0))

    def pinned(m, pin):
        """A fresh matrix with m's bits and the claim pin."""
        bad = Gf2Matrix(m.rows, m.cols, m.bits)
        object.__setattr__(bad, "_pin", pin)
        return bad

    def flipped(m, i, j):
        """m with bit (i, j) flipped, under m's own claim."""
        bits = list(m.bits)
        bits[i] ^= 1 << j
        pin = gf2._Pin(m._pin.lower, m._pin.rhs, m._pin.offset)
        return pinned(Gf2Matrix(m.rows, m.cols, bits), pin)

    # L's first two rows swapped: invertible, not unit lower triangular,
    # and with its inverse as the top rows L U = I holds.
    not_unit = Gf2Matrix(60, 60, (lower.bits[1], lower.bits[0]) + lower.bits[2:])
    u = not_unit.inverse()
    not_unit_h = Gf2Matrix(61, 60, u.bits + (0,))
    empty = gf2._Pin(Gf2Matrix.identity(0), offset=4)  # a = 0, at a column past the end
    cases = [
        (flipped(h, 59, 3), b),  # one bit of U flipped
        (flipped(h, 60, 0), b),  # a bit set in the zero rows
        (flipped(g, 0, 7), x),  # one bit of the lift flipped
        (flipped(g, 60, 2), x),  # a bit set in the zero rows
        (flipped(g, 61, 1), x),  # the identity block broken
        (pinned(not_unit_h, gf2._Pin(not_unit)), b),  # L is not unit lower triangular
        (pinned(h.split_rows(59)[0], gf2._Pin(lower)), b),  # fewer than a rows
        # Fewer than offset + a columns. With a > 0, U's band would not
        # fit either; with a = 0 no other clause fails.
        (pinned(Gf2Matrix.zeros(2, 3), empty), x.split_rows(3)[0]),
        # A bit left of U's band: U itself is intact, so L U = I still holds.
        (flipped(h2, 5, 0), b2),
        # T is not a x c: one row short, and its rows are L lift's first rows.
        (pinned(g, gf2._Pin(lower, rhs.split_rows(59)[0])), x),
        (pinned(g0.split_rows(79)[0], gf2._Pin(lower, rhs)), x),  # fewer than a + c rows
    ]
    for bad, right in cases:
        assert not bad._pin.holds(bad)
        got = bad.mul(right)
        assert bad._pin is None
        assert got.to_rows() == oracle.mat_mul(bad.to_rows(), right.to_rows(), right.cols)


def test_permute_relocates_entries():
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 1]])
    rp = Permutation((1, 0))
    cp = Permutation((2, 0, 1))
    p = m.permute(rp, cp)
    for i in range(2):
        for j in range(3):
            assert p.get(rp(i), cp(j)) == m.get(i, j)
    assert m.permute(identity_perm(2), identity_perm(3)) == m


def test_permutation_validation_and_call():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    p = Permutation((2, 0, 1))
    assert [p(i) for i in range(3)] == [2, 0, 1] and p.size == 3


@pytest.mark.parametrize(
    "image, message",
    [
        ((0,) + tuple(range(5000)), r"position 1 holds 0, repeated from position 0$"),
        (tuple(range(5000)) + (5001,), r"range\(5001\): position 5000 holds 5001, out of range$"),
        ((-1,) + tuple(range(1, 5001)), r"position 0 holds -1, out of range$"),
        ((2**4000,) + tuple(range(1, 5001)), r"position 0 holds \d+\.\.\.\d+, out of range$"),
        (tuple(range(4999)) + ("x" * 10**4,), r"position 4999 holds 'x+\.\.\.x+', not an int$"),
    ],
)
def test_permutation_error_names_the_first_bad_position(image, message):
    with pytest.raises(ValueError, match=message) as err:
        Permutation(image)
    assert len(str(err.value)) < 200


def test_split_and_stack_round_trip():
    rng = random.Random(11)
    m = random_matrix(rng, 7, 9)
    for i in (0, 3, 7):
        for j in (0, 4, 9):
            top, bottom = m.split_rows(i)
            tl, tr = top.split_cols(j)
            bl, br = bottom.split_cols(j)
            assert vstack(hstack(tl, tr), hstack(bl, br)) == m
    top, bottom = m.split_rows(2)
    assert vstack(top, bottom) == m
    left, right = m.split_cols(5)
    assert hstack(left, right) == m
    with pytest.raises(ValueError):
        m.split_rows(8)
    with pytest.raises(ValueError):
        hstack(Gf2Matrix.zeros(2, 2), Gf2Matrix.zeros(3, 2))


def test_matrix_text_round_trip():
    rng = random.Random(12)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert parse_matrix_text(format_matrix_text(m)) == m
    empty = parse_matrix_text("0 4\n")
    assert empty == Gf2Matrix.zeros(0, 4)
    assert format_matrix_text(Gf2Matrix.zeros(3, 0)) == "3 0\n\n\n\n"


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(SMALL, WIDE).flatmap(lambda s: kernel_matrices(*s, wide=True)),
    st.tuples(SMALL, SMALL).flatmap(lambda s: kernel_matrices(*s)),
))
@example(Gf2Matrix.zeros(0, 7))
@example(Gf2Matrix.zeros(7, 0))
def test_parsed_matrix_keeps_the_set_columns_of_its_text_as_its_index(m):
    parsed = parse_matrix_text(format_matrix_text(m))
    assert parsed == m
    assert list(map(list, parsed._index)) == oracle.set_columns(m.to_rows())


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("2\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 0\n1\n")
    with pytest.raises(ValueError, match=r"^entry 1 is '2', not 0 or 1$"):
        parse_matrix_text("1 2\n1 2\n")
    with pytest.raises(ValueError, match=r"^entry 2 is '10', not 0 or 1$"):
        parse_matrix_text("2 2\n1 0\n10 1\n")  # one token too wide, though the digits count right
    with pytest.raises(ValueError):
        parse_matrix_text("a b\n")
    with pytest.raises(ValueError):
        parse_matrix_text("-1 2\n")


@pytest.mark.parametrize("text, message", [
    ("1" * 5000 + " 0\n", "bad matrix header: <5000 characters> '0'"),
    ("x" * 25 + " y\n", "bad matrix header: <25 characters> 'y'"),
    ("x" * 24 + " y\n", f"bad matrix header: '{'x' * 24}' 'y'"),
    ("1" * 4000 + " 0\n", "header <4000 characters> 0: each dimension must be 0 to 1048576"),
    ("1 2\n1 " + "2" * 100 + "\n", "entry 1 is <100 characters>, not 0 or 1"),
])
def test_a_token_too_long_to_print_is_named_by_its_length(text, message):
    with pytest.raises(ValueError) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == message


def test_matrix_text_header_is_bounded_in_each_dimension():
    # A zero dimension needs no entries, so only the bound stops a short
    # header from making a million row or column lists.
    over = (1 << 20) + 1
    for header in (f"{over} 0\n", f"0 {over}\n"):
        with pytest.raises(ValueError, match=r"each dimension must be 0 to 1048576$"):
            parse_matrix_text(header)
    assert parse_matrix_text(f"{over - 1} 0\n") == Gf2Matrix.zeros(over - 1, 0)
