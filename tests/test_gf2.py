"""Unit tests for the bit-packed GF(2) matrix core."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsereduce.gf2 import (
    Gf2Matrix,
    NotNilpotent,
    Permutation,
    Singular,
    format_matrix_text,
    hstack,
    join4,
    parse_matrix_text,
    vstack,
)

import oracle


def random_matrix(rng, rows, cols, density=0.5):
    return Gf2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


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
    m = m.permute(Permutation.identity(r), Permutation(tuple(perm)))
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


def test_permute_relocates_entries():
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 1]])
    rp = Permutation((1, 0))
    cp = Permutation((2, 0, 1))
    p = m.permute(rp, cp)
    for i in range(2):
        for j in range(3):
            assert p.get(rp(i), cp(j)) == m.get(i, j)
    assert m.permute(Permutation.identity(2), Permutation.identity(3)) == m


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    p = Permutation((2, 0, 1))
    assert p.inverse().image == (1, 2, 0)
    assert p.inverse().inverse() == p
    assert Permutation.identity(3)(1) == 1


def test_split_and_stack_round_trip():
    rng = random.Random(11)
    m = random_matrix(rng, 7, 9)
    for i in (0, 3, 7):
        for j in (0, 4, 9):
            tl, tr, bl, br = m.split4(i, j)
            assert join4(tl, tr, bl, br) == m
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


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("2\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 0\n1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("1 2\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix_text("a b\n")
    with pytest.raises(ValueError):
        parse_matrix_text("-1 2\n")
