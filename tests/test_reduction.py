"""Unit tests for reordering and the direct reduction of image complexes."""

import gc
import random

import pytest

from morsereduce import gf2, perturbation
from morsereduce.complexes import ReductionTriple, TruncatedComplex, betti, verify_reduction
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix
from morsereduce.image import random_image
from morsereduce.pipeline import reduce_pipeline
from morsereduce.reduction import TriangularityViolation, hexagonal_reduce, reorder
from morsereduce.vectorfield import DiscreteVectorField, rs_algorithm, sort_by_lambda

from oracle import betti_from_matrices


def image_complex(width, height, density, seed):
    img = random_image(width, height, density, seed)
    return boundary_matrices(build_cubical(img))


def reorder_of(t):
    return reorder(t, sort_by_lambda(rs_algorithm(t.d1)))


def test_reorder_requires_sorted_field():
    t = image_complex(6, 6, 0.6, 3)
    vf = rs_algorithm(t.d1)
    if any(
        vf.lambdas[a] < vf.lambdas[b]
        for (a, _), (b, _) in zip(vf.pairs, vf.pairs[1:])
    ):
        with pytest.raises(ValueError):
            reorder(t, vf)
    rc = reorder(t, sort_by_lambda(vf))
    assert rc.nv == vf.nv


def test_reorder_moves_pairs_to_the_diagonal():
    t = image_complex(7, 5, 0.5, 11)
    vf = sort_by_lambda(rs_algorithm(t.d1))
    rc = reorder(t, vf)
    for k, (r, c) in enumerate(vf.pairs):
        assert rc.row_perm(r) == k and rc.col_perm(c) == k
        assert rc.L.get(k, k) == 1
    assert rc.L.is_lower_unitriangular()


def test_reorder_permutes_entries_consistently():
    t = image_complex(6, 4, 0.7, 5)
    vf = sort_by_lambda(rs_algorithm(t.d1))
    rc = reorder(t, vf)
    d1 = rc.reordered.d1
    for i in range(t.d1.rows):
        for j in range(t.d1.cols):
            assert d1.get(rc.row_perm(i), rc.col_perm(j)) == t.d1.get(i, j)
    # Blocks reassemble to the permuted matrices.
    _, (_, _, block_t), _ = rc.split.blocks(1)
    (_, _, d2_top), _, _ = rc.split.blocks(2)
    assert rc.L.rows == rc.nv and block_t.cols == t.d1.cols - rc.nv
    assert d2_top.rows == rc.nv
    assert rc.reordered.d2.rows == t.d2.rows


def test_reorder_rejects_non_triangular_blocks():
    # A fabricated "field" whose pairs are fine entry-wise but whose
    # relation order contradicts the matrix forces a non-triangular block.
    d1 = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    t = TruncatedComplex(d1, Gf2Matrix.zeros(2, 0))
    bad = DiscreteVectorField(((1, 0), (0, 1)), {0: 0, 1: 0})
    with pytest.raises(TriangularityViolation):
        reorder(t, bad)


@pytest.mark.parametrize(
    "pairs, what",
    [
        (((0, 0), (0, 1)), "row"),  # a repeated row
        (((0, 0), (1, 0)), "column"),  # a repeated column
        (((2, 0),), "row"),  # rows run 0..1
        (((0, -1),), "column"),  # columns run 0..2
        (((0, 3),), "column"),
    ],
)
def test_reorder_rejects_pairs_that_reuse_or_leave_the_indices(pairs, what):
    t = TruncatedComplex(Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]), Gf2Matrix.zeros(3, 0))
    field = DiscreteVectorField(pairs, {r: 0 for r, _ in pairs})
    with pytest.raises(ValueError, match=f"^{what} indices"):
        reorder(t, field)


def test_unit_triangular_block_is_nilpotent_after_shifting():
    for seed in (1, 2, 3):
        rc = reorder_of(image_complex(9, 9, 0.55, seed))
        n = rc.L + Gf2Matrix.identity(rc.nv)
        assert n.pow(rc.nv).is_zero()


def test_reduce_satisfies_all_axioms():
    rng = random.Random(17)
    for _ in range(8):
        w, h = rng.randint(3, 12), rng.randint(3, 12)
        t = image_complex(w, h, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
        rc = reorder_of(t)
        small, triple = hexagonal_reduce(rc)
        report = verify_reduction(triple)
        assert report.ok, str(report)


def test_reduce_shrinks_by_the_number_of_pairs():
    t = image_complex(10, 8, 0.5, 29)
    rc = reorder_of(t)
    small, _ = hexagonal_reduce(rc)
    c0, c1, c2 = t.dims()
    assert small.dims() == (c0 - rc.nv, c1 - rc.nv, c2)


def test_reduced_complex_has_equal_homology():
    for seed in (4, 9, 14):
        t = image_complex(8, 8, 0.6, seed)
        small, _ = hexagonal_reduce(reorder_of(t))
        assert betti(small) == betti(t)
        expected = betti_from_matrices(
            {0: t.c0, 1: t.c1, 2: t.c2},
            [[t.d1.get(i, j) for j in range(t.c1)] for i in range(t.c0)],
            [[t.d2.get(i, j) for j in range(t.c2)] for i in range(t.c1)],
        )
        got = betti(small)
        assert (got[0], got[1], got[2]) == expected


def test_reduction_preserves_rank_arithmetic():
    t = image_complex(9, 6, 0.65, 8)
    rc = reorder_of(t)
    small, _ = hexagonal_reduce(rc)
    assert small.d1.rank() == t.d1.rank() - rc.nv


def test_reduced_d2_matches_both_defining_formulas():
    t = image_complex(7, 7, 0.55, 31)
    rc = reorder_of(t)
    small, triple = hexagonal_reduce(rc)
    assert small.d2 == rc.split.blocks(2)[2][2]  # the critical rows of the reordered D2
    assert triple.f(1).mul(rc.reordered.d2) == small.d2


def test_empty_image_reduces_to_nothing():
    t = image_complex(4, 4, 0.0, 1)
    rc = reorder_of(t)
    small, triple = hexagonal_reduce(rc)
    assert small.dims() == (0, 0, 0)
    assert verify_reduction(triple).ok


def test_fast_pipeline_forms_no_unread_product(monkeypatch):
    # Fast mode reads no f, g or h, so L^-1 T (which feeds only g) is never
    # formed. mul is called on D1 . D2 five times: on construction, for
    # checks["boundary"], on the reordered copy, in hexagonal_reduce and in
    # betti of the original (the next test counts the products formed).
    img = random_image(24, 24, 0.5, 11)
    shapes = []
    mul = Gf2Matrix.mul

    def counting_mul(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return mul(a, b)

    monkeypatch.setattr(Gf2Matrix, "mul", counting_mul)
    res = reduce_pipeline(img, fast=True)
    monkeypatch.undo()
    nv, s0, s1 = res.nv, res.reduced.c0, res.reduced.c1
    assert nv > 0 and s1 > 0 and s0 != nv  # L^-1 T has a shape of its own
    assert (nv, nv, s1) not in shapes
    assert shapes.count(res.original.dims()) <= 5


def spy_products(monkeypatch):
    """Log (left, right, formed) for every Gf2Matrix.mul call.

    formed says whether the call ran a loop over the left factor's own
    rows, read through its index or peeled from its words, rather than
    answering from its record, an identity factor or its pin's forward
    substitution. That loop is the row loop, or the index product when
    both factors are held as their index.
    """
    log, loops = [], []
    mul, rows, index_product = Gf2Matrix.mul, gf2._mul_rows, gf2._index_product

    def counting_rows(left, obits):
        loops.append(left)
        return rows(left, obits)

    def counting_index_product(left, right):
        loops.append(left)
        return index_product(left, right)

    def logging_mul(a, b):
        before = len(loops)
        out = mul(a, b)
        log.append((a, b, any(left is a for left in loops[before:])))
        return out

    monkeypatch.setattr(gf2, "_mul_rows", counting_rows)
    monkeypatch.setattr(gf2, "_index_product", counting_index_product)
    monkeypatch.setattr(Gf2Matrix, "mul", logging_mul)
    return log


def test_fast_pipeline_forms_each_boundary_product_once_per_pair_of_factors(monkeypatch):
    # The five D1 . D2 calls of fast mode (see above) run on two pairs of
    # factors: the original D1, D2 (construction, checks["boundary"], betti)
    # and the reordered copy (construction, hexagonal_reduce). Only the
    # first call forms the product: a repeat on the same factors is
    # answered from the record the first check left, and reorder carries
    # that record to the permuted pair.
    img = random_image(24, 24, 0.5, 11)
    log = spy_products(monkeypatch)
    res = reduce_pipeline(img, fast=True)
    monkeypatch.undo()
    boundary = boundary_products(log, res.original)
    assert len(boundary) == 5
    assert boundary.count(True) == 1


def boundary_products(log, t):
    """The formed flags of the logged products of t's D1 . D2 shape."""
    return [formed for a, b, formed in log if (a.rows, a.cols, b.cols) == t.dims()]


def test_reorder_carries_the_boundary_record_to_the_permuted_pair(monkeypatch):
    t = image_complex(12, 10, 0.6, 7)
    assert t.d1._record is t.d2  # left by the constructor's check
    log = spy_products(monkeypatch)
    rc = reorder_of(t)
    monkeypatch.undo()
    d1r, d2r = rc.reordered.d1, rc.reordered.d2
    assert d1r._record is d2r and d2r._record is None
    assert boundary_products(log, t) == [False]
    assert all(d2r._index[rc.col_perm(i)] is row for i, row in enumerate(t.d2._index))


def test_reorder_forms_the_boundary_product_when_the_record_names_another_factor(monkeypatch):
    # Only the check writes a record, so the other matrix is put there by
    # hand: an equal copy of D2, which is still not D2 itself.
    t = image_complex(12, 10, 0.6, 7)
    copy = Gf2Matrix(t.d2.rows, t.d2.cols, t.d2.bits)
    object.__setattr__(t.d1, "_record", copy)
    log = spy_products(monkeypatch)
    rc = reorder_of(t)
    monkeypatch.undo()
    assert boundary_products(log, t) == [True]
    assert rc.reordered.d1._record is rc.reordered.d2
    assert t.d1._record is copy


def test_certified_pivot_check_reuses_the_series_check(monkeypatch):
    # nilpotent_series_inverse checks S (I + N) = I with S = L^-1, pinned
    # to I + N, so that product is solved through I + N with no row loop.
    # hexagonal_general then checks u d21 = I for the same u = S and an
    # equal d21 = L. S's pin, already checked, answers the second product
    # by forward substitution too: mul records no identity.
    seen = []
    general = perturbation.hexagonal_general

    def spy(sc, pivot_inverses, **kw):
        seen.append((sc.blocks(1)[1][0], pivot_inverses[1]))
        return general(sc, pivot_inverses, **kw)

    monkeypatch.setattr(perturbation, "hexagonal_general", spy)
    log = spy_products(monkeypatch)
    res = reduce_pipeline(random_image(16, 16, 0.6, 5))
    monkeypatch.undo()
    assert res.ok and res.nv > 0
    [(pivot, cand)] = seen
    assert cand == res.reordered.L.inv_unit_lower_triangular()
    series_check = [f for a, b, f in log if a is cand and b == pivot and b is not pivot]
    pivot_check = [f for a, b, f in log if a is cand and b is pivot]
    assert series_check == [False] and pivot_check == [False]
    assert cand._pin.checked and cand._pin.lower == pivot


@pytest.mark.parametrize(
    "width, height, density, seed",
    [(16, 16, 0.6, 1), (24, 20, 0.5, 2), (32, 32, 0.6, 3), (20, 24, 0.8, 4)],
)
def test_direct_lift_is_the_inverse_times_t(width, height, density, seed):
    # g(1)'s lift is solved from L X = T, and must equal the product L^-1 T.
    rc = reorder_of(image_complex(width, height, density, seed))
    _, triple = hexagonal_reduce(rc)
    lift, rest = triple.g(1).split_rows(rc.nv)
    block_t = rc.split.blocks(1)[1][2]
    assert rc.nv > 0 and lift == rc.L.inv_unit_lower_triangular().mul(block_t)
    assert rest == Gf2Matrix.identity(rest.rows)


def test_certified_products_with_h0_or_g1_on_the_left_run_no_row_loop(monkeypatch):
    # h(0) = [L^-1; 0] and g(1) = [L^-1 T; I] are pinned to L (and T):
    # once mul has checked each pin on its bits, products with them on
    # the left are forward substitutions through L.
    log = spy_products(monkeypatch)
    res = reduce_pipeline(random_image(24, 24, 0.6, 5))
    monkeypatch.undo()
    assert res.ok and res.nv > 0
    h0, g1, f1 = res.triple.h(0), res.triple.g(1), res.triple.f(1)
    assert h0._pin.checked and g1._pin.checked
    assert [f for a, b, f in log if a is h0 and b is res.reordered.reordered.d1] == [False]
    assert [f for a, b, f in log if a is g1 and b is f1] == [False]
    assert not any(f for a, _, f in log if a is h0 or a is g1)


def flipped(m, i, j):
    """m with entry (i, j) flipped, carrying a fresh copy of m's pin."""
    bits = list(m.bits)
    bits[i] ^= 1 << j
    out = Gf2Matrix(m.rows, m.cols, bits)
    object.__setattr__(out, "_pin", gf2._Pin(m._pin.lower, m._pin.rhs, m._pin.offset))
    return out


@pytest.mark.parametrize("which", ["h", "g"])
def test_a_flipped_bit_fails_its_pin_and_verify_names_the_identity(monkeypatch, which):
    rc = reorder_of(image_complex(16, 16, 0.6, 5))
    _, triple = hexagonal_reduce(rc)
    good = triple.h(0) if which == "h" else triple.g(1)
    assert good._pin.holds(good)  # the pin pays here, so only the flip can fail it
    bad = flipped(good, rc.nv - 1, 0)
    degree = 0 if which == "h" else 1
    maps = {name: getattr(triple, name) for name in "fgh"}
    maps[which] = lambda k: bad if k == degree else getattr(triple, which)(k)
    tampered = ReductionTriple(triple.big, triple.small, maps["f"], maps["g"], maps["h"])
    log = spy_products(monkeypatch)
    report = verify_reduction(tampered)
    monkeypatch.undo()
    assert bad._pin is None
    assert any(f for a, _, f in log if a is bad)
    assert "g_f_plus_dh_plus_hd_identity[1]" in [e.label() for e in report.failures()]


def test_certified_image_answers_every_power_with_no_product(monkeypatch):
    # The pipeline's nilpotency check, bpl's pre-check in both degrees and
    # the series inverse each ask pow. Every matrix they ask about is
    # strictly lower triangular with chains shorter than the exponent, so
    # pow returns zero with no product.
    powers, inside = [], []
    real_pow, real_mul = Gf2Matrix.pow, Gf2Matrix.mul

    def logging_pow(m, k):
        inside.append([])
        out = real_pow(m, k)
        powers.append((m, k, out.is_zero(), inside.pop()))
        return out

    def logging_mul(a, b):
        for products in inside:
            products.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Gf2Matrix, "pow", logging_pow)
    monkeypatch.setattr(Gf2Matrix, "mul", logging_mul)
    res = reduce_pipeline(random_image(24, 24, 0.6, 5))
    monkeypatch.undo()
    rc = res.reordered
    assert res.ok and rc.nv > 0
    c0, c1, _ = rc.original.dims()
    assert [(m.rows, k) for m, k, _, _ in powers] == [
        (rc.nv, rc.nv), (c0, rc.nv + 1), (c1, rc.nv + 1), (rc.nv, rc.nv + 1)
    ]
    assert powers[0][0] == rc.L + Gf2Matrix.identity(rc.nv)
    assert all(zero and products == [] for _, _, zero, products in powers)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "certified"])
def test_a_pipeline_run_leaves_no_reference_cycle(fast):
    # Records and pins point from a matrix to the factors it names; a
    # record that pointed back would make a cycle that only the cycle
    # collector frees. With it off, every run must be freed by reference
    # counting alone.
    gc.collect()
    gc.disable()
    try:
        for width, height, density, seed in [(16, 16, 0.6, 1), (24, 20, 0.5, 2), (20, 24, 0.8, 4)]:
            res = reduce_pipeline(random_image(width, height, density, seed), fast=fast)
            assert res.ok and res.nv > 0
        del res
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fast_image_reads_no_map_of_its_triple(monkeypatch):
    reads = []
    real = ReductionTriple._map
    monkeypatch.setattr(
        ReductionTriple, "_map", lambda r, name, k: reads.append((name, k)) or real(r, name, k)
    )
    res = reduce_pipeline(random_image(24, 24, 0.6, 5), fast=True)
    monkeypatch.undo()
    assert res.triple is not None and reads == []


def words_built(m):
    """Whether m's bits slot is set, read past the constructor that builds it on first read."""
    try:
        object.__getattribute__(m, "bits")
    except AttributeError:
        return False
    return True


def test_fast_image_builds_no_words_that_nothing_reads():
    # D1 and D2, D1ᵀ and D2ᵀ, the reordered D1 and D2, L and S are read
    # only through their index rows on --fast: the D1 . D2 check is an
    # index product and betti's ranks are spanning forests. T and R build
    # their words when mul and + read them, and D2', the critical rows of
    # the reordered D2, when the critical complex's check multiplies the
    # sum D1' = R + S L^-1 T, held as words, by it.
    res = reduce_pipeline(random_image(64, 64, 0.6, 1), fast=True)
    rc = res.reordered
    original = res.original
    (_, _, _), (block_l, _, block_t), (block_s, _, block_r) = rc.split.blocks(1)
    assert block_l is rc.L and res.ok
    assert res.reduced.d2 is rc.split.blocks(2)[2][2]  # D2' is the critical rows, not a sum
    for m in (
        original.d1, original.d2, original.d1._transposed, original.d2._transposed,
        original.d1.transpose(), rc.reordered.d1, rc.reordered.d2, rc.L, block_s,
    ):
        assert m._index is not None and not words_built(m)
    assert words_built(block_t) and words_built(block_r)
    assert words_built(res.reduced.d1) and words_built(res.reduced.d2)
