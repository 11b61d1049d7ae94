"""Unit tests for chain complexes, Betti numbers, and reduction checking."""

import pytest

from morsereduce.complexes import (
    BoundaryViolation,
    ReductionTriple,
    TruncatedComplex,
    betti,
    verify_reduction,
)
from morsereduce.gf2 import Gf2Matrix

import oracle


def test_truncated_complex_validates_composition():
    with pytest.raises(BoundaryViolation):
        TruncatedComplex(Gf2Matrix.from_rows([[1]]), Gf2Matrix.from_rows([[1]]))
    with pytest.raises(ValueError):
        TruncatedComplex(Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(4, 1))
    t = TruncatedComplex(Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(3, 1))
    assert t.dims() == (2, 3, 1)


def test_complex_accessors_and_validation():
    d1 = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    c = TruncatedComplex(d1, Gf2Matrix.zeros(2, 0))
    assert c.dim(0) == 2 and c.dim(2) == 0 and c.dim(7) == 0
    assert c.d(1) is c.d1 is d1
    assert c.d(2) == Gf2Matrix.zeros(2, 0)
    assert list(c.degrees()) == [0, 1, 2]
    assert (c.c0, c.c1, c.c2) == c.dims() == (2, 2, 0)
    with pytest.raises(ValueError, match=r"d\(2\) is 3x1, expected 2x1"):
        TruncatedComplex(d1, Gf2Matrix.zeros(3, 1))


def test_complex_is_zero_outside_degrees_zero_to_two():
    d1 = Gf2Matrix.from_rows([[1, 1, 0], [1, 1, 0]])
    d2 = Gf2Matrix.from_rows([[1, 0], [1, 0], [0, 0]])
    c = TruncatedComplex(d1, d2)
    assert c.d(0) == Gf2Matrix.zeros(0, 2) and c.d(3) == Gf2Matrix.zeros(2, 0)
    assert c.d(0).is_zero() and c.d(3).is_zero()
    assert c.dim(-1) == c.dim(3) == 0
    with pytest.raises(ValueError):
        TruncatedComplex(d1, Gf2Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        TruncatedComplex(Gf2Matrix.zeros(3, 2), d2)
    # Equality reads both matrices: the same D1 with another D2 differs.
    assert c == TruncatedComplex(d1, Gf2Matrix.from_rows([[1, 0], [1, 0], [0, 0]]))
    assert c != TruncatedComplex(d1, Gf2Matrix.zeros(3, 2))
    assert c != TruncatedComplex(Gf2Matrix.zeros(2, 3), d2)


def test_complex_rejects_nonsquaring_differential():
    d1 = Gf2Matrix.from_rows([[1, 1, 0]])
    d2 = Gf2Matrix.from_rows([[1], [0], [1]])
    with pytest.raises(BoundaryViolation, match=r"d\(1\) \. d\(2\) != 0"):
        TruncatedComplex(d1, d2)


@pytest.mark.parametrize(
    "d1, d2",
    [
        (Gf2Matrix.from_rows([[1, 1]]), Gf2Matrix.zeros(2, 1)),
        (Gf2Matrix.from_rows([[1, 1]]), Gf2Matrix.zeros(2, 0)),  # no module in degree 2
        (Gf2Matrix.zeros(1, 2), Gf2Matrix.from_rows([[1], [1]])),
        (Gf2Matrix.zeros(1, 2), Gf2Matrix.zeros(2, 1)),
    ],
)
def test_a_zero_differential_is_checked_without_a_product(monkeypatch, d1, d2):
    calls = []
    mul = Gf2Matrix.mul

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Gf2Matrix, "mul", counting)
    c = TruncatedComplex(d1, d2)
    c.check_boundaries()
    assert calls == []


def test_complex_equality():
    a = TruncatedComplex(Gf2Matrix.from_rows([[1]]), Gf2Matrix.zeros(1, 0))
    b = TruncatedComplex(Gf2Matrix.from_rows([[1]]), Gf2Matrix.zeros(1, 0))
    c = TruncatedComplex(Gf2Matrix.zeros(1, 1), Gf2Matrix.zeros(1, 0))
    assert a == b and a != c


def test_betti_zero_differential_is_dimension():
    c = TruncatedComplex(Gf2Matrix.zeros(3, 5), Gf2Matrix.zeros(5, 2))
    assert betti(c) == {0: 3, 1: 5, 2: 2}


def test_betti_matches_oracle_ranks():
    # Boundary pair of a hollow triangle plus an isolated vertex.
    d1 = Gf2Matrix.from_rows(
        [
            [1, 0, 1],
            [1, 1, 0],
            [0, 1, 1],
            [0, 0, 0],
        ]
    )
    d2 = Gf2Matrix.zeros(3, 0)
    c = TruncatedComplex(d1, d2)
    want = oracle.betti_from_matrices((4, 3, 0), d1.to_rows(), d2.to_rows())
    assert betti(c) == {0: want[0], 1: want[1], 2: want[2]}
    assert betti(c) == {0: 2, 1: 1, 2: 0}


def _identity_reduction(c: TruncatedComplex) -> ReductionTriple:
    f = {k: Gf2Matrix.identity(c.dim(k)) for k in c.degrees()}
    return ReductionTriple(c, c, f, dict(f), {})


def test_verify_reduction_identity_triple():
    d1 = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    c = TruncatedComplex(d1, Gf2Matrix.zeros(2, 0))
    report = verify_reduction(_identity_reduction(c))
    assert report.ok
    assert len(report.entries) == 21  # seven identities in each of three degrees


def test_verify_reduction_catches_tampering():
    d1 = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    c = TruncatedComplex(d1, Gf2Matrix.zeros(2, 0))
    good = _identity_reduction(c)
    bad = ReductionTriple(
        c,
        c,
        {k: good.f(k) for k in (0, 1)},
        {0: good.g(0) + Gf2Matrix.from_rows([[0, 1], [0, 0]]), 1: good.g(1)},
        {},
    )
    report = verify_reduction(bad)
    assert not report.ok
    assert any("identity" in e.name for e in report.failures())
    assert "failed" in str(report)


def test_reduction_triple_shape_validation():
    c = TruncatedComplex(Gf2Matrix.from_rows([[1, 1], [1, 1]]), Gf2Matrix.zeros(2, 0))
    small = TruncatedComplex(Gf2Matrix.zeros(1, 0), Gf2Matrix.zeros(0, 0))
    with pytest.raises(ValueError):
        ReductionTriple(c, small, {0: Gf2Matrix.zeros(2, 2)}, {}, {})
    with pytest.raises(ValueError):
        ReductionTriple(c, small, {}, {}, {0: Gf2Matrix.zeros(3, 3)})


def test_reduction_triple_builds_lazy_maps_once_and_checks_them_when_read():
    c = TruncatedComplex(Gf2Matrix.from_rows([[1, 1], [1, 1]]), Gf2Matrix.zeros(2, 0))
    built = []

    def f(k):
        built.append(k)
        return Gf2Matrix.identity(2) if k == 0 else None

    r = ReductionTriple(c, c, f, {}, lambda k: Gf2Matrix.zeros(3, 3))
    assert built == []
    assert r.f(0) is r.f(0) and built == [0]
    assert r.f(1) == Gf2Matrix.zeros(2, 2)
    with pytest.raises(ValueError):
        r.h(0)
