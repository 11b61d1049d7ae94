"""Acceptance suite.

Each test covers one headline guarantee of the package, prints exactly one
[PASS]/[FAIL] line with the measured scale and timing, and then asserts.
All comparisons are exact GF(2) equalities; the only tolerances are the
wall-clock budgets stated inline.
"""

import random
import time

import pytest

from morsereduce.complexes import TruncatedComplex, betti, verify_reduction
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix, Singular
from morsereduce.image import BinaryImage, random_image
from morsereduce.perturbation import Perturbation, bpl, decompose, vf_reduction_via_bpl
from morsereduce.pipeline import reduce_pipeline
from morsereduce.reduction import hexagonal_reduce, reorder
from morsereduce.vectorfield import check_admissible, rs_algorithm, sort_by_lambda

from oracle import count_components_uf, count_holes_4, cubical_cells

pytestmark = pytest.mark.acceptance


def _report(ok, name, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _image_params(count, max_side, seed):
    """Seeded image parameters shared by the oracle and axiom batteries."""
    rng = random.Random(seed)
    return [
        (rng.randint(8, max_side), rng.randint(8, max_side),
         rng.uniform(0.1, 0.9), rng.randrange(2**63))
        for _ in range(count)
    ]


def _exhaustive_4x4():
    return (BinaryImage(4, 4, bits) for bits in range(1 << 16))


def _random_matrix(rng, rows, cols, density):
    return Gf2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_homology_matches_an_independent_oracle():
    """Betti numbers survive reduction and agree with counts that use no algebra.

    500 seeded random images from 8x8 to 64x64 at densities 0.1-0.9, plus
    every one of the 65536 images of size 4x4: betti(reduced) equals
    betti(original) exactly, betti_0 equals the union-find component
    count, betti_1 equals the number of 4-connected background components
    that do not touch the border, and betti_2 is 0. The cell counts equal
    the set-and-sort oracle's, and c0 - c1 + c2 = b0 - b1 + b2. Budget:
    120 s total.
    """
    start = time.perf_counter()
    bad = []

    def check(img, label):
        res = reduce_pipeline(img, fast=True)
        pixels = set(img.foreground())
        c0, c1, c2 = res.original.dims()
        b = res.betti_original
        ok = (
            (c0, c1, c2) == tuple(map(len, cubical_cells(pixels)))
            and c0 - c1 + c2 == b[0] - b[1] + b[2]
            and b == res.betti_reduced
            and b[0] == count_components_uf(pixels)
            and b[1] == count_holes_4(pixels, img.height, img.width)
            and b[2] == 0
        )
        if not ok:
            bad.append(label)

    for w, h, d, seed in _image_params(500, 64, 20260815):
        check(random_image(w, h, d, seed), f"random({w}x{h}, d={d:.2f}, seed={seed})")
    for i, img in enumerate(_exhaustive_4x4()):
        check(img, f"4x4 #{i}")
    elapsed = time.perf_counter() - start
    detail = f"500 random + 65536 exhaustive images, exact, {elapsed:.1f}s (budget 120s)"
    if bad:
        detail += f"; first failures: {bad[:3]}"
    _report(not bad and elapsed < 120, "homology-oracle", detail)


def test_reduction_identities_hold_on_every_instance():
    """All reduction identities hold as exact matrix equations.

    On every instance of the oracle battery (the same 500 seeded random
    images and all 65536 4x4 images), the produced reduction satisfies
    f g = I, g f + d h + h d = I, f h = 0, h g = 0, h h = 0, and both
    chain-map conditions, degree by degree, exactly over GF(2).
    """
    start = time.perf_counter()
    bad = []

    def check(img, label):
        t = boundary_matrices(build_cubical(img))
        rc = reorder(t, sort_by_lambda(rs_algorithm(t.d1)))
        _, triple = hexagonal_reduce(rc)
        report = verify_reduction(triple)
        if not report.ok:
            bad.append((label, [e.label() for e in report.failures()][:3]))

    for w, h, d, seed in _image_params(500, 64, 20260815):
        check(random_image(w, h, d, seed), f"random({w}x{h}, d={d:.2f}, seed={seed})")
    for i, img in enumerate(_exhaustive_4x4()):
        check(img, f"4x4 #{i}")
    elapsed = time.perf_counter() - start
    detail = f"7 identities on 66036 instances, exact, {elapsed:.1f}s"
    if bad:
        detail += f"; first failures: {bad[:3]}"
    _report(not bad, "reduction-axioms", detail)


def test_vector_fields_are_admissible_and_triangular():
    """Constructed vector fields pass every admissibility check.

    500 seeded random matrices up to 100x100 plus all 512 matrices of
    size 3x3: the greedy pairing passes check_admissible, the reordered
    paired block L is unit lower triangular, and pow(L + I, nv) = 0.
    Exact; budget 60 s.
    """
    start = time.perf_counter()
    bad = []

    def check(m, label):
        vf = rs_algorithm(m)
        if not check_admissible(m, vf).ok:
            bad.append((label, "admissibility"))
            return
        rc = reorder(
            TruncatedComplex(m, Gf2Matrix.zeros(m.cols, 0)), sort_by_lambda(vf)
        )
        if not rc.L.is_lower_unitriangular():
            bad.append((label, "triangularity"))
        elif not (rc.L + Gf2Matrix.identity(rc.nv)).pow(rc.nv).is_zero():
            bad.append((label, "nilpotency"))

    rng = random.Random(333)
    for i in range(500):
        rows, cols = rng.randint(1, 100), rng.randint(1, 100)
        m = _random_matrix(rng, rows, cols, rng.uniform(0.02, 0.95))
        check(m, f"random #{i} ({rows}x{cols})")
    for bits in range(1 << 9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        check(Gf2Matrix.from_rows(rows), f"3x3 #{bits}")
    elapsed = time.perf_counter() - start
    detail = f"500 random (up to 100x100) + 512 exhaustive 3x3, exact, {elapsed:.1f}s (budget 60s)"
    if bad:
        detail += f"; first failures: {bad[:3]}"
    _report(not bad and elapsed < 60, "dvf-correctness", detail)


def test_perturbation_route_reproduces_the_direct_reduction():
    """The perturbation-lemma machinery round-trips on real reductions.

    On 200 seeded random images up to 32x32: decompose succeeds with its
    mandated zero-block pattern on the pipeline reduction, carrying the
    zero perturbation across reproduces the input triple exactly, and the
    vector-field route through the perturbation lemma yields small
    differentials, and a whole triple (f, g, h included), bit-identical
    to the direct reduction. Budget 120 s.
    """
    start = time.perf_counter()
    bad = []
    rng = random.Random(20260815 + 4)
    for i in range(200):
        w, h = rng.randint(1, 32), rng.randint(1, 32)
        d, seed = rng.uniform(0.1, 0.9), rng.randrange(2**63)
        label = f"#{i} ({w}x{h}, d={d:.2f}, seed={seed})"
        t = boundary_matrices(build_cubical(random_image(w, h, d, seed)))
        rc = reorder(t, sort_by_lambda(rs_algorithm(t.d1)))
        small, triple = hexagonal_reduce(rc)
        try:
            decompose(triple)
        except Exception as exc:
            bad.append((label, f"decompose: {exc}"))
            continue
        if bpl(triple, Perturbation(triple.big, {}), 1) != triple:
            bad.append((label, "zero-perturbation round trip"))
            continue
        alt = vf_reduction_via_bpl(rc)
        if not (alt.small.d(1) == small.d1 and alt.small.d(2) == small.d2):
            bad.append((label, "route mismatch"))
        elif alt != triple:
            bad.append((label, "route triple mismatch"))
    elapsed = time.perf_counter() - start
    detail = f"decompose + zero-delta round trip + route triple match on 200 images, exact, {elapsed:.1f}s (budget 120s)"
    if bad:
        detail += f"; first failures: {bad[:3]}"
    _report(not bad and elapsed < 120, "bpl-machinery", detail)


def test_certified_pipeline_speed_at_reference_scale():
    """The fully verified pipeline is fast at a ~690x1400 edge boundary.

    One synthetic image whose edge boundary matrix is within 15% of
    690x1400 runs the entire certified pipeline (vector field, reorder,
    reduce, every verification, both betti vectors) in under 5 s, and
    homology of the reduced complex alone takes under 0.5 s.
    """
    img = random_image(26, 25, 1.0, 1)
    t = boundary_matrices(build_cubical(img))
    assert abs(t.d1.rows - 690) <= 0.15 * 690 and abs(t.d1.cols - 1400) <= 0.15 * 1400

    start = time.perf_counter()
    res = reduce_pipeline(img, fast=False)
    t_pipe = time.perf_counter() - start
    start = time.perf_counter()
    b = betti(res.reduced)
    t_betti = time.perf_counter() - start

    checks_ok = res.ok and b == res.betti_reduced
    ok = checks_ok and t_pipe < 5 and t_betti < 0.5
    _report(
        ok,
        "scale-performance",
        f"edge boundary {t.d1.rows}x{t.d1.cols} -> reduced {res.reduced.c0}x{res.reduced.c1}, "
        f"certified pipeline {t_pipe:.2f}s (budget 5s), homology of reduced {t_betti*1000:.0f}ms "
        f"(budget 500ms), checks {'all true' if checks_ok else 'FAILED'}",
    )


def test_kernel_and_inverse_identities():
    """Randomized algebra checks for kernels, inverses, and series.

    1000 randomized instances: kernel bases multiply to zero with the
    rank-nullity column count (400), inverses are two-sided or Singular
    is raised exactly when the rank drops (200), the geometric series of
    a nilpotent matrix inverts I + N (200), and the forward-substitution
    inverse agrees with general inversion on unit lower triangular
    matrices (200). All exact.
    """
    start = time.perf_counter()
    bad = []
    rng = random.Random(4242)

    for i in range(400):
        m = _random_matrix(rng, rng.randint(0, 60), rng.randint(0, 60), rng.random())
        k = m.right_kernel_basis()
        if not m.mul(k).is_zero():
            bad.append(f"kernel product #{i}")
        elif k.cols != m.cols - m.rank() or k.rank() != k.cols:
            bad.append(f"kernel count #{i}")

    for i in range(200):
        n = rng.randint(1, 50)
        m = _random_matrix(rng, n, n, rng.uniform(0.2, 0.8))
        try:
            inv = m.inverse()
            if not (m.mul(inv).is_identity() and inv.mul(m).is_identity()):
                bad.append(f"inverse identity #{i}")
        except Singular:
            if m.rank() == n:
                bad.append(f"spurious Singular #{i}")

    for i in range(200):
        n = rng.randint(1, 40)
        strict = _random_matrix(rng, n, n, 0.4)
        nil = Gf2Matrix.from_rows(
            [[strict.get(r, c) if c < r else 0 for c in range(n)] for r in range(n)]
        )
        if nil.nilpotent_series_inverse(n) != (nil + Gf2Matrix.identity(n)).inverse():
            bad.append(f"series inverse #{i}")

    for i in range(200):
        n = rng.randint(1, 40)
        strict = _random_matrix(rng, n, n, 0.5)
        lower = Gf2Matrix.from_rows(
            [[1 if c == r else (strict.get(r, c) if c < r else 0) for c in range(n)] for r in range(n)]
        )
        if lower.inv_unit_lower_triangular() != lower.inverse():
            bad.append(f"triangular inverse #{i}")

    elapsed = time.perf_counter() - start
    detail = f"1000 randomized identities, exact, {elapsed:.1f}s"
    if bad:
        detail += f"; first failures: {bad[:3]}"
    _report(not bad, "gf2-kernel", detail)
