"""Unit tests for perturbed differentials and the perturbation-based route."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsereduce import complexes, perturbation, pipeline
from morsereduce.complexes import (
    BoundaryViolation,
    ReductionTriple,
    TruncatedComplex,
    verify_reduction,
)
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix, NotNilpotent, hstack, vstack
from morsereduce.image import random_image
from morsereduce.perturbation import (
    DecompositionFailure,
    NotInvertible,
    bpl,
    decompose,
    hexagonal_general,
    vf_reduction_via_bpl,
)
from morsereduce.reduction import SplitComplex, hexagonal_reduce, reorder
from morsereduce.verification import VerificationError, VerificationReport
from morsereduce.vectorfield import rs_algorithm, sort_by_lambda


def image_complex(width, height, density, seed):
    img = random_image(width, height, density, seed)
    return boundary_matrices(build_cubical(img))


def reduction_of(t):
    rc = reorder(t, sort_by_lambda(rs_algorithm(t.d1)))
    return rc, hexagonal_reduce(rc)


def identity_triple(cx):
    return ReductionTriple(cx, cx, {}, {}, {})


def test_perturbation_must_square_to_zero():
    base = image_complex(4, 4, 0.8, 2)
    # Flipping a single entry of the edge boundary breaks d(1) d(2) = 0
    # whenever the image has at least one square.
    d1 = base.d(1)
    flip = Gf2Matrix.from_rows(
        [
            [1 if (i, j) == (0, 0) else 0 for j in range(d1.cols)]
            for i in range(d1.rows)
        ],
        cols=d1.cols,
    )
    assert base.dim(2) > 0
    with pytest.raises(BoundaryViolation):
        TruncatedComplex(d1 + flip, base.d(2))


def test_public_constructors_check_that_the_differential_squares_to_zero():
    one = Gf2Matrix.identity(1)
    with pytest.raises(BoundaryViolation):
        TruncatedComplex(one, one)
    base = TruncatedComplex(one, Gf2Matrix.zeros(1, 1))
    with pytest.raises(BoundaryViolation):
        TruncatedComplex(base.d(1), one)


def test_the_route_perturbation_must_land_on_its_target():
    base = image_complex(5, 5, 0.6, 7)
    eye = {k: Gf2Matrix.identity(base.dim(k)) for k in base.degrees()}
    unit = ReductionTriple(base, base, eye, dict(eye), {})
    assert bpl(unit, base, 1).big is base
    flat = TruncatedComplex(Gf2Matrix.zeros(base.c0, base.c1), Gf2Matrix.zeros(base.c1, base.c2))
    assert flat != base  # same modules, zero differential
    onto_flat = bpl(unit, flat, 1)
    assert onto_flat.big is flat and onto_flat.small == flat
    other = image_complex(5, 5, 0.6, 8)
    assert [other.dim(k) for k in other.degrees()] != [base.dim(k) for k in base.degrees()]
    with pytest.raises(ValueError, match="differs from the big complex"):
        bpl(unit, other, 1)


def test_decompose_splits_off_the_paired_cells():
    t = image_complex(6, 6, 0.6, 13)
    rc, (small, triple) = reduction_of(t)
    dec = decompose(triple)
    a0, b0, _ = dec.splits[0]
    a1, b1, _ = dec.splits[1]
    assert b0 == rc.nv and a1 == rc.nv
    assert a0 == 0
    # The transformed differential matches the reduced one on the retained
    # block, bit for bit.
    assert dec.transformed.blocks(1)[2][2] == small.d1
    assert dec.transformed.blocks(2)[2][2] == small.d2


def test_decompose_rejects_tampered_triples():
    t = image_complex(5, 5, 0.7, 19)
    _, (small, triple) = reduction_of(t)
    degrees = triple.big.degrees()
    g0 = triple.g(0)
    rows = [[g0.get(i, j) for j in range(g0.cols)] for i in range(g0.rows)]
    assert small.c0 > 0
    rows[0][0] ^= 1
    tampered = ReductionTriple(
        triple.big,
        triple.small,
        {k: triple.f(k) for k in degrees},
        {0: Gf2Matrix.from_rows(rows, cols=g0.cols), 1: triple.g(1), 2: triple.g(2)},
        {k: triple.h(k) for k in range(2)},
    )
    with pytest.raises(DecompositionFailure):
        decompose(tampered)


def pairs_deleted_in_place(t, vf):
    """The trivial reduction that deletes vf's pairs where they stand, with no reordering.

    Its big complex is the toy one whose d(1) sends each paired edge to
    its paired vertex; f and g keep the critical cells in their order,
    and h(0) sends each paired vertex back to its edge.
    """
    c0, c1, c2 = t.dims()
    vertices = {v for v, _ in vf.pairs}
    edges = {e for _, e in vf.pairs}
    toy, homotopy = [0] * c0, [0] * c1
    for v, e in vf.pairs:
        toy[v] |= 1 << e
        homotopy[e] |= 1 << v
    big = TruncatedComplex(Gf2Matrix(c0, c1, toy), Gf2Matrix.zeros(c1, c2))
    kept = {
        0: [v for v in range(c0) if v not in vertices],
        1: [e for e in range(c1) if e not in edges],
    }
    f = {k: Gf2Matrix(len(cells), big.dim(k), [1 << c for c in cells]) for k, cells in kept.items()}
    f[2] = Gf2Matrix.identity(c2)
    small = TruncatedComplex(Gf2Matrix.zeros(f[0].rows, f[1].rows), Gf2Matrix.zeros(f[1].rows, c2))
    g = {k: m.transpose() for k, m in f.items()}
    return ReductionTriple(big, small, f, g, {0: Gf2Matrix(c1, c0, homotopy)})


def hand_decomposition(r):
    """decompose's change of basis and conjugated differentials, as matrices, by hand."""
    phi = {}
    for k in r.big.degrees():
        a_basis = vstack(r.f(k), r.h(k)).right_kernel_basis()
        b_basis = vstack(r.f(k), r.big.d(k)).right_kernel_basis()
        phi[k] = hstack(hstack(a_basis, b_basis), r.g(k))
    d = {k: phi[k - 1].inverse().mul(r.big.d(k).mul(phi[k])) for k in (1, 2)}
    return phi, d


def held(phi):
    """A change of basis as decompose holds it: None for the identity, else the matrix."""
    return None if phi == Gf2Matrix.identity(phi.rows) else phi


@pytest.mark.parametrize("width, height, density, seed", [(6, 6, 0.6, 13), (8, 7, 0.5, 27)])
def test_decompose_multiplies_by_a_coordinate_basis(width, height, density, seed):
    t = image_complex(width, height, density, seed)
    vf = sort_by_lambda(rs_algorithm(t.d1))
    trivial = pairs_deleted_in_place(t, vf)
    assert verify_reduction(trivial).ok
    phi, d = hand_decomposition(trivial)
    dec = decompose(trivial)
    for k in trivial.big.degrees():
        assert dec.phi[k] == held(phi[k])
    assert dec.phi[1] is not None  # the paired edges are not the first ones
    assert dec.phi_inv[1].mul(dec.phi[1]).is_identity()
    for k in (1, 2):
        assert dec.transformed.cx.d(k) == d[k]
    assert verify_reduction(bpl(trivial, t, vf.nv + 1)).ok


def test_decompose_keeps_the_matrix_path_for_bases_that_are_not_coordinates():
    t = image_complex(6, 6, 0.6, 13)
    _, (_, triple) = reduction_of(t)
    phi, d = hand_decomposition(triple)
    dec = decompose(triple)
    assert type(dec.phi[1]) is Gf2Matrix and dec.phi[1] == phi[1]  # g(1) holds L^-1 T
    assert dec.phi_inv[1].mul(dec.phi[1]).is_identity()
    # A = B = 0 and g(2) = I in degree 2, so one side of d(2)'s conjugation
    # is a matrix and the other is not multiplied.
    assert phi[2] == Gf2Matrix.identity(t.dims()[2]) and dec.phi[2] is None
    for k in (1, 2):
        assert dec.transformed.cx.d(k) == d[k]
    assert bpl(triple, triple.big, 1) == triple


def test_decompose_refuses_a_basis_with_a_repeated_coordinate():
    # g sends both small cells to the big complex's first cell: each column
    # of [A | B | g] is a coordinate vector, but the same one.
    cx = TruncatedComplex(Gf2Matrix.zeros(2, 0), Gf2Matrix.zeros(0, 0))
    g = Gf2Matrix(2, 2, [0b11, 0])
    repeated = ReductionTriple(cx, cx, {0: Gf2Matrix.identity(2)}, {0: g}, {})
    with pytest.raises(DecompositionFailure, match="not independent"):
        decompose(repeated)
    e0, e1 = Gf2Matrix(2, 1, [1, 0]), Gf2Matrix(2, 1, [0, 1])
    assert perturbation._is_identity_basis((e0, e1), 2)
    assert not perturbation._is_identity_basis((e0, e0), 2)
    assert not perturbation._is_identity_basis((e1, e0), 2)


@st.composite
def column_parts(draw):
    """An n x n matrix, often the identity or one bit off it, cut into three column parts."""
    n = draw(st.integers(0, 9))
    words = [1 << i for i in range(n)]
    kind = draw(st.sampled_from(["identity", "flip", "any"]))
    if kind == "flip" and n:
        words[draw(st.integers(0, n - 1))] ^= 1 << draw(st.integers(0, n - 1))
    elif kind == "any":
        words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    m = Gf2Matrix(n, n, words)
    i = draw(st.integers(0, n))
    j = draw(st.integers(i, n))
    a, rest = m.split_cols(i)
    b, c = rest.split_cols(j - i)
    return n, (a, b, c)


@settings(max_examples=300, deadline=None)
@given(column_parts())
def test_identity_basis_answers_as_the_stacked_matrix(case):
    n, (a, b, c) = case
    want = hstack(hstack(a, b), c) == Gf2Matrix.identity(n)
    assert perturbation._is_identity_basis((a, b, c), n) == want


def test_the_route_changes_no_basis_and_forms_no_product_with_one(monkeypatch):
    t = image_complex(6, 6, 0.6, 13)
    rc, _ = reduction_of(t)
    decompositions = []

    def spy(r):
        decompositions.append(decompose(r))
        return decompositions[-1]

    identity_factors = []
    mul = Gf2Matrix.mul
    dims = set(t.dims())

    def counting(a, b):
        for x in (a, b):
            if x.rows == x.cols and x.rows in dims and x == Gf2Matrix.identity(x.rows):
                identity_factors.append(x.rows)
        return mul(a, b)

    monkeypatch.setattr(perturbation, "decompose", spy)
    monkeypatch.setattr(Gf2Matrix, "mul", counting)
    # As the pipeline runs it: the closing verify_reduction multiplies the
    # triple's own f(2) = g(2) = I, where no cell is paired, as a check.
    vf_reduction_via_bpl(rc, verify=False)
    monkeypatch.undo()
    (dec,) = decompositions
    assert list(dec.phi.values()) == list(dec.phi_inv.values()) == [None] * 3
    assert identity_factors == []


def test_certified_image_scans_no_matrix_twice_for_one_question(monkeypatch):
    # Each matrix answers is_identity and is_lower_unitriangular from one
    # full scan at most; every later call reads the remembered answer.
    scanned = []
    scan = Gf2Matrix._scan

    def counting(m, question):
        scanned.append((m, question))  # keeps m alive, so no id is reused
        return scan(m, question)

    monkeypatch.setattr(Gf2Matrix, "_scan", counting)
    res = pipeline.reduce_pipeline(random_image(32, 32, 0.6, 1))
    monkeypatch.undo()
    assert res.ok and res.checks["bpl_match"] is True
    keys = [(id(m), question) for m, question in scanned]
    assert len(keys) == len(set(keys)) and len(keys) > 0


def test_hexagonal_general_needs_matching_pivot_inverses():
    t = image_complex(5, 5, 0.6, 23)
    _, (_, triple) = reduction_of(t)
    dec = decompose(triple)
    pivot = dec.transformed.blocks(1)[1][0]
    with pytest.raises(NotInvertible):
        hexagonal_general(dec.transformed, {1: Gf2Matrix.zeros(pivot.cols, pivot.rows)})


def test_hexagonal_general_forms_d33_plus_d31_u_d23():
    # Degrees 0..2, split (A, B, C) as (0, 1, 2), (1, 0, 2) and (0, 0, 1).
    # d(1) has rows B0 C0 C0 and columns A1 C1 C1: d21 = [1], d23 = [1 1],
    # d31 = [1; 1] and d33 = [1 1; 0 0]. d(2) = [0; 1; 1] is zero in its
    # A row, and d(1) d(2) = 0.
    d1 = Gf2Matrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    d2 = Gf2Matrix.from_rows([[0], [1], [1]])
    sc = SplitComplex(TruncatedComplex(d1, d2), {0: (0, 1, 2), 1: (1, 0, 2), 2: (0, 0, 1)})
    triple = hexagonal_general(sc, {1: Gf2Matrix.identity(1)})
    assert verify_reduction(triple).ok
    small = triple.small
    assert type(small) is TruncatedComplex
    assert small.dims() == (2, 2, 1)
    # d33 + d31 u d23 = [1 1; 0 0] + [1; 1] [1] [1 1] in degree 1, and the
    # C rows of d(2) in degree 2, where no A part lies below.
    assert small.d(1) == Gf2Matrix.from_rows([[0, 0], [1, 1]])
    assert small.d(2) == Gf2Matrix.from_rows([[1], [1]])


def test_bpl_with_zero_perturbation_reproduces_the_reduction():
    for seed in (5, 8):
        t = image_complex(7, 7, 0.55, seed)
        _, (small, triple) = reduction_of(t)
        out = bpl(triple, triple.big, 1)
        assert out.big == triple.big
        assert out.small == triple.small
        for k in triple.big.degrees():
            assert out.f(k) == triple.f(k)
            assert out.g(k) == triple.g(k)
        for k in range(2):
            assert out.h(k) == triple.h(k)


def test_bpl_requires_base_complexes_to_agree():
    t = image_complex(4, 4, 0.7, 5)
    _, (_, triple) = reduction_of(t)
    other = image_complex(4, 4, 0.3, 6)
    with pytest.raises(ValueError):
        bpl(triple, other, 1)


def test_bpl_rejects_insufficient_nilpotency_exponent():
    # Contracting the cone d(1) = I with h(0) = I is a valid reduction
    # onto the zero complex; perturbing by delta(1) = I makes delta h = I,
    # which is not nilpotent, so every exponent must be refused.
    one = Gf2Matrix.identity(1)
    big = TruncatedComplex(one, Gf2Matrix.zeros(1, 0))
    small = TruncatedComplex(Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0))
    contraction = ReductionTriple(big, small, {}, {}, {0: one})
    assert verify_reduction(contraction).ok
    target = TruncatedComplex(Gf2Matrix.zeros(1, 1), Gf2Matrix.zeros(1, 0))  # delta(1) = I
    for m in (1, 2, 5):
        with pytest.raises(NotNilpotent):
            bpl(contraction, target, m)


def test_vf_route_matches_the_direct_reduction_bit_for_bit():
    for seed in (3, 12, 27):
        t = image_complex(8, 8, 0.6, seed)
        rc, (small, triple) = reduction_of(t)
        alt = vf_reduction_via_bpl(rc)
        assert alt.small.d(1) == small.d1
        assert alt.small.d(2) == small.d2
        assert verify_reduction(alt).ok
        assert alt == triple


def test_vf_route_on_degenerate_images():
    # No pairs at all (empty image) and a single pixel both round-trip.
    for density, seed in ((0.0, 1), (1.0, 0)):
        img = random_image(1, 1, density, seed)
        t = boundary_matrices(build_cubical(img))
        rc = reorder(t, sort_by_lambda(rs_algorithm(t.d1)))
        small, triple = hexagonal_reduce(rc)
        alt = vf_reduction_via_bpl(rc)
        assert alt.small.d(1) == small.d1
        assert alt.small.d(2) == small.d2
        assert alt == triple


@pytest.mark.parametrize(
    "width, height, density, seed",
    [(4, 4, 0.0, 1), (1, 1, 1.0, 0), (6, 6, 0.6, 13), (8, 7, 0.5, 27), (9, 9, 0.8, 4)],
)
def test_direct_reduction_is_the_general_one_on_the_pair_split(width, height, density, seed):
    # Paired edges are A in degree 1, paired vertices B in degree 0, and
    # the critical cells C; hexagonal_general with u(1) = L^-1 must give
    # hexagonal_reduce's triple bit for bit.
    t = image_complex(width, height, density, seed)
    rc, (small, triple) = reduction_of(t)
    nv = rc.nv
    c0, c1, c2 = t.dims()
    s0, s1 = c0 - nv, c1 - nv
    split = SplitComplex(rc.reordered, {0: (0, nv, s0), 1: (nv, 0, s1), 2: (0, 0, c2)})
    linv = rc.L.inv_unit_lower_triangular()
    general = hexagonal_general(split, {1: linv})
    assert general.big == triple.big and general.small == small
    for k in range(-1, 4):
        assert general.f(k) == triple.f(k)
        assert general.g(k) == triple.g(k)
        assert general.h(k) == triple.h(k)
    _, (_, _, block_t), (block_s, _, _) = rc.split.blocks(1)
    assert triple.f(0) == hstack(block_s.mul(linv), Gf2Matrix.identity(s0))
    assert triple.g(1) == vstack(linv.mul(block_t), Gf2Matrix.identity(s1))
    zeros = Gf2Matrix.zeros
    assert triple.h(0) == vstack(hstack(linv, zeros(nv, s0)), hstack(zeros(s1, nv), zeros(s1, s0)))


@pytest.mark.parametrize(
    "width, height, density, seed",
    [(4, 4, 0.0, 1), (1, 1, 1.0, 0), (6, 6, 0.6, 13), (8, 7, 0.5, 27), (9, 9, 0.8, 4)],
)
def test_vf_route_starts_from_the_trivial_block_reduction(monkeypatch, width, height, density, seed):
    # The trivial reduction handed to bpl deletes the pairs: f = [0 | I],
    # g = [0; I] in degrees 0 and 1, and h(0) = [[I, 0], [0, 0]].
    seen = []

    def spy(r, target, m, **kw):
        seen.append(r)
        return bpl(r, target, m, **kw)

    monkeypatch.setattr(perturbation, "bpl", spy)
    t = image_complex(width, height, density, seed)
    rc, _ = reduction_of(t)
    vf_reduction_via_bpl(rc)
    (trivial,) = seen
    nv = rc.nv
    c0, c1, _ = t.dims()
    s0, s1 = c0 - nv, c1 - nv
    zeros, eye = Gf2Matrix.zeros, Gf2Matrix.identity
    assert trivial.f(0) == hstack(zeros(s0, nv), eye(s0))
    assert trivial.f(1) == hstack(zeros(s1, nv), eye(s1))
    assert trivial.g(0) == vstack(zeros(nv, s0), eye(s0))
    assert trivial.g(1) == vstack(zeros(nv, s1), eye(s1))
    assert trivial.h(0) == vstack(hstack(eye(nv), zeros(nv, s0)), hstack(zeros(s1, nv), zeros(s1, s0)))


def test_certified_image_forms_fast_modes_boundary_products_and_one_for_the_perturbed_complex(
    monkeypatch,
):
    # Five D1 . D2-shaped calls are those of fast mode: construction,
    # checks["boundary"], reorder's copy, hexagonal_reduce and betti. The
    # sixth is the check of bpl's perturbed complex in the split basis;
    # the toy complex and decompose's conjugate of it have a zero d(2),
    # so their checks form no product.
    img = random_image(24, 24, 0.6, 5)
    shapes = []
    mul = Gf2Matrix.mul

    def counting(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return mul(a, b)

    monkeypatch.setattr(Gf2Matrix, "mul", counting)
    res = pipeline.reduce_pipeline(img)
    monkeypatch.undo()
    assert res.ok and res.checks["bpl_match"] is True
    assert shapes.count(res.original.dims()) == 6


def count_verifications(monkeypatch, failing_in=()):
    """Count verify_reduction calls through every module's reference to it.

    The modules in failing_in get a stand-in whose report always fails.
    """
    real = complexes.verify_reduction
    calls = []
    failing = VerificationReport()
    failing.add("f_g_identity", False, 0)

    def counting(triple):
        calls.append(triple)
        return real(triple)

    def refusing(triple):
        calls.append(triple)
        return failing

    for mod in (complexes, pipeline, perturbation):
        monkeypatch.setattr(mod, "verify_reduction", refusing if mod in failing_in else counting)
    return calls


def test_certified_pipeline_verifies_its_triple_once(monkeypatch):
    calls = count_verifications(monkeypatch)
    res = pipeline.reduce_pipeline(random_image(16, 16, 0.6, 5))
    assert res.ok and res.checks["bpl_match"] is True
    assert len(calls) == 1


def test_route_verifies_itself_when_the_pipeline_check_fails(monkeypatch):
    calls = count_verifications(monkeypatch, failing_in=(pipeline,))
    res = pipeline.reduce_pipeline(random_image(16, 16, 0.6, 5))
    assert res.checks["reduction_axioms"] is False
    assert res.checks["bpl_match"] is True
    assert len(calls) == 2


def test_route_that_fails_its_own_check_is_reported_not_raised(monkeypatch):
    count_verifications(monkeypatch, failing_in=(pipeline, perturbation))
    res = pipeline.reduce_pipeline(random_image(16, 16, 0.6, 5))
    assert res.checks["reduction_axioms"] is False
    assert res.checks["bpl_match"] is False
    assert res.failed_checks["bpl_match"] == ["f_g_identity[0]"]


def test_public_route_functions_verify_by_default(monkeypatch):
    t = image_complex(8, 8, 0.6, 3)
    rc, (_, triple) = reduction_of(t)
    dec = decompose(triple)
    pivot_inverses = {
        k: dec.transformed.blocks(k)[1][0].inverse()
        for k in range(1, 3)
        if dec.splits[k][0]
    }
    count_verifications(monkeypatch, failing_in=(perturbation,))
    with pytest.raises(VerificationError):
        bpl(triple, triple.big, 1)
    with pytest.raises(VerificationError):
        hexagonal_general(dec.transformed, pivot_inverses)
    with pytest.raises(VerificationError):
        vf_reduction_via_bpl(rc)
