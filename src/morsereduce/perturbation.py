"""Perturbing reductions: basis decomposition and the perturbation lemma.

Any reduction (f, g, h) of a complex C splits each degree into three
summands: A = ker f intersect ker h, B = ker f intersect ker d, and the
image of g. In the concatenated basis Phi = [A | B | g] the differential
has exactly two nonzero blocks, an isomorphism d21: A_k -> B_(k-1) and a
copy of the small differential on the g-part, and the homotopy collapses
to the single block h12 = inverse(d21). A perturbation delta of d with
(d + delta) . (d + delta) = 0 and nilpotent delta h then yields a new
reduction of the perturbed complex: transport delta into the split basis,
invert the perturbed pivot through the finite geometric series of
delta21 h12, rebuild the reduction blockwise, and conjugate back.

This recovers the vector-field reduction a second way: start from the
trivial retraction that deletes the paired cells and perturb its toy
differential into the real one. Both routes must agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .complexes import FGChainComplex, ReductionTriple, verify_reduction
from .gf2 import Gf2Matrix, NotNilpotent, Singular, hstack, vstack
from .reduction import ReorderedComplex, SplitComplex, _eliminate
from .verification import VerificationError

__all__ = [
    "DecompositionFailure",
    "NotInvertible",
    "Decomposition",
    "decompose",
    "hexagonal_general",
    "bpl",
    "vf_reduction_via_bpl",
]


class DecompositionFailure(Exception):
    """The three-way basis split of a claimed reduction does not exist."""


class NotInvertible(Exception):
    """A block required to be a two-sided isomorphism is not."""


@dataclass(frozen=True)
class Decomposition:
    """Per-degree change of basis exhibiting a reduction's block structure.

    phi[k] columns are the A-basis, then the B-basis, then the columns of
    g(k); splits[k] records the three widths. phi[k] and phi_inv[k] are
    None when that matrix is the identity, as on vf_reduction_via_bpl's
    route, and otherwise the matrix and its inverse(). transformed is the
    same complex written in that basis, where only the d21 and d33 blocks
    of each differential are nonzero.
    """

    phi: Mapping[int, Gf2Matrix | None]
    phi_inv: Mapping[int, Gf2Matrix | None]
    splits: Mapping[int, tuple[int, int, int]]
    transformed: SplitComplex

    def to_split(self, m: Gf2Matrix, row: int | None, col: int | None) -> Gf2Matrix:
        """phi[row]^-1 m phi[col]: a map from degree col to degree row in the split bases.

        A side whose degree is None is left as it is.
        """
        return _product(self.phi_inv.get(row), m, self.phi.get(col))

    def from_split(self, m: Gf2Matrix, row: int | None, col: int | None) -> Gf2Matrix:
        """phi[row] m phi[col]^-1: the inverse of to_split."""
        return _product(self.phi.get(row), m, self.phi_inv.get(col))


def _product(left: Gf2Matrix | None, m: Gf2Matrix, right: Gf2Matrix | None) -> Gf2Matrix:
    """left m right, where None stands for the identity and is not multiplied."""
    if right is not None:
        m = m.mul(right)
    if left is not None:
        m = left.mul(m)
    return m


def _is_identity_basis(parts: tuple[Gf2Matrix, ...], n: int) -> bool:
    """Whether the parts side by side, each with n rows, are the n x n identity.

    Read off the parts' row words, with no matrix built: row i of the
    part whose column band starts at offset must be 1 << (i - offset)
    inside that band and 0 outside it.
    """
    offset = 0
    for part in parts:
        end = offset + part.cols
        for i, word in enumerate(part.bits):
            if word != (1 << (i - offset) if offset <= i < end else 0):
                return False
        offset = end
    return offset == n


def decompose(r: ReductionTriple) -> Decomposition:
    """Split a verified reduction's big complex as A + B + image(g).

    A_k = ker f(k) intersect ker h(k); B_k = ker f(k) intersect ker d(k).
    Raises DecompositionFailure if the three parts fail to be a basis, if
    the transformed differential has entries outside the d21/d33 blocks,
    if d21 is not an isomorphism A_k -> B_(k-1), or if d33 differs from
    the small differential. All of that holds for any genuine reduction,
    so a failure here convicts the input.

    phi[k] and phi_inv[k] are None when [A | B | g(k)] is the identity
    (see _is_identity_basis), and the differential is then not multiplied
    on that side. Otherwise phi[k] is that matrix and phi_inv[k] comes
    from inverse().
    """
    big, small = r.big, r.small
    phi: dict[int, Gf2Matrix | None] = {}
    phi_inv: dict[int, Gf2Matrix | None] = {}
    splits: dict[int, tuple[int, int, int]] = {}
    for k in big.degrees():
        a_basis = vstack(r.f(k), r.h(k)).right_kernel_basis()
        b_basis = vstack(r.f(k), big.d(k)).right_kernel_basis()
        g_k = r.g(k)
        total = a_basis.cols + b_basis.cols + g_k.cols
        if total != big.dim(k):
            raise DecompositionFailure(
                f"degree {k}: parts span {total} of {big.dim(k)} dimensions"
            )
        if _is_identity_basis((a_basis, b_basis, g_k), total):
            phi[k] = phi_inv[k] = None
        else:
            phi[k] = hstack(hstack(a_basis, b_basis), g_k)
            try:
                phi_inv[k] = phi[k].inverse()
            except Singular as exc:
                raise DecompositionFailure(f"degree {k}: parts are not independent") from exc
        splits[k] = (a_basis.cols, b_basis.cols, g_k.cols)

    dims = {k: big.dim(k) for k in big.degrees()}
    d_new = {
        k: _product(phi_inv[k - 1], big.d(k), phi[k])
        for k in range(big.lo + 1, big.hi + 1)
    }
    # A conjugate of big by phi, the identity or a matrix whose inverse
    # inverse() produced, so d . d = 0 carries over from big.
    transformed = SplitComplex(FGChainComplex._known_valid(big.lo, big.hi, dims, d_new), splits)

    for k in range(big.lo + 1, big.hi + 1):
        blocks = transformed.blocks(k)
        for i in range(3):
            for j in range(3):
                if (i, j) not in ((1, 0), (2, 2)) and not blocks[i][j].is_zero():
                    raise DecompositionFailure(
                        f"degree {k}: block ({i + 1}, {j + 1}) of the split differential is nonzero"
                    )
        # d21 is an isomorphism exactly when inverse() finds an inverse (it
        # raises ValueError on a block that is not square). On the route d21
        # is the identity, which inverse() hands back after one scan, where
        # rank would run an elimination.
        try:
            blocks[1][0].inverse()
        except (ValueError, Singular) as exc:
            raise DecompositionFailure(
                f"degree {k}: A -> B block is not an isomorphism"
            ) from exc
        if blocks[2][2] != small.d(k):
            raise DecompositionFailure(
                f"degree {k}: C-block differs from the small differential"
            )
    return Decomposition(phi, phi_inv, splits, transformed)


def hexagonal_general(
    sc: SplitComplex, pivot_inverses: Mapping[int, Gf2Matrix], *, verify: bool = True
) -> ReductionTriple:
    """Reduce a split complex whose d21 blocks are isomorphisms A_k -> B_(k-1).

    All other blocks of d may be arbitrary (the differential must still
    square to zero). pivot_inverses[k] must invert the d21 block in degree
    k wherever A_k is nonzero; the sizes and both inverse identities are
    always checked. The returned triple retracts onto the C-part, with
    small differential d33 + d31 u d23. With verify=True (the default) it
    passes verify_reduction before it is returned; verify=False leaves
    that to a caller that checks an equivalent triple itself.
    """
    lo, hi = sc.cx.lo, sc.cx.hi
    u: dict[int, Gf2Matrix] = {}
    for k in range(lo, hi + 2):
        a_k = sc.split(k)[0]
        b_prev = sc.split(k - 1)[1]
        if a_k != b_prev:
            raise NotInvertible(
                f"degree {k}: A has size {a_k} but B below has size {b_prev}"
            )
        if a_k == 0:
            continue
        if k not in pivot_inverses:
            raise NotInvertible(f"degree {k}: missing pivot inverse")
        cand = pivot_inverses[k]
        pivot = sc.blocks(k)[1][0]
        if (cand.rows, cand.cols) != (a_k, a_k):
            raise NotInvertible(f"degree {k}: pivot inverse has wrong shape")
        if not (
            pivot.mul(cand).is_identity() and cand.mul(pivot).is_identity()
        ):
            raise NotInvertible(f"degree {k}: claimed pivot inverse fails")
        u[k] = cand

    triple = _eliminate(sc, u)
    if verify:
        report = verify_reduction(triple)
        if not report.ok:
            raise VerificationError(report, "generalized block reduction")
    return triple


def bpl(
    r: ReductionTriple, target: FGChainComplex, m: int, *, verify: bool = True
) -> ReductionTriple:
    """Carry a reduction across a perturbation of its big differential.

    target is the perturbed complex, with r.big's window and modules
    (ValueError otherwise) and d . d = 0 checked when it was built. The
    perturbation delta(k) = r.big.d(k) + target.d(k) must satisfy
    pow(delta(k) h(k-1), m) = 0 in every degree (checked; NotNilpotent
    otherwise). The big complex is first decomposed, delta and h are
    transported into the split basis, the perturbed pivot
    (I + delta21 h12) d21 is inverted through the finite series of
    delta21 h12, and the rebuilt reduction is conjugated back. With
    target = r.big this reproduces the input reduction exactly.

    The nilpotency pre-check, decompose's assertions and the series
    inverse's checks always run. The pre-check is exact and forms no
    power when delta h is strictly lower triangular with chains shorter
    than m, as it is on vf_reduction_via_bpl's route (see
    Gf2Matrix._power_is_zero). With verify=True (the default) the
    returned triple passes verify_reduction. That one check also covers
    the inner triple in the split basis, which is therefore built with
    verify=False: the returned triple is the inner one conjugated by phi,
    phi is the identity or decompose obtained its inverse from inverse()
    (which raises Singular if there is none), and conjugating by an
    invertible phi keeps every identity in both directions. verify=False
    skips the closing check for a caller that verifies an equal triple
    itself.
    """
    big = r.big
    lo, hi = big.lo, big.hi
    dims = {k: big.dim(k) for k in big.degrees()}
    if (target.lo, target.hi) != (lo, hi) or any(target.dim(k) != n for k, n in dims.items()):
        raise ValueError("target complex differs from the big complex in its window or modules")
    delta = {k: big.d(k) + target.d(k) for k in range(lo + 1, hi + 1)}
    for k, delta_k in delta.items():
        if not delta_k.mul(r.h(k - 1))._power_is_zero(m):
            raise NotNilpotent(f"delta h is not annihilated by exponent {m} in degree {k}")

    dec = decompose(r)
    d_pert = {
        k: dec.transformed.cx.d(k) + dec.to_split(delta_k, k - 1, k)
        for k, delta_k in delta.items()
    }
    # target (checked) conjugated by phi, so d . d = 0 carries over.
    pert_split = SplitComplex(FGChainComplex._known_valid(lo, hi, dims, d_pert), dec.splits)

    # Transported homotopy must live entirely in its (1, 2) block. h(hi)
    # maps into the zero module above the window, so it has no block.
    h12: dict[int, Gf2Matrix] = {}
    for k in range(lo, hi):
        ht = dec.to_split(r.h(k), k + 1, k)
        a_k, b_k, _ = dec.splits[k]
        top, rest = ht.split_rows(dec.splits[k + 1][0])
        left, r2 = top.split_cols(a_k)
        mid, right = r2.split_cols(b_k)
        if not (left.is_zero() and right.is_zero() and rest.is_zero()):
            raise DecompositionFailure(
                f"degree {k}: homotopy is not confined to the A x B block"
            )
        h12[k] = mid

    pivots: dict[int, Gf2Matrix] = {}
    for k in range(lo + 1, hi + 1):
        if dec.splits[k][0] == 0:
            continue
        delta21 = pert_split.blocks(k)[1][0] + dec.transformed.blocks(k)[1][0]
        series = delta21.mul(h12[k - 1]).nilpotent_series_inverse(m)
        pivots[k] = h12[k - 1].mul(series)

    inner = hexagonal_general(pert_split, pivots, verify=False)

    f = {k: dec.from_split(inner.f(k), None, k) for k in range(lo, hi + 1)}
    g = {k: dec.from_split(inner.g(k), k, None) for k in range(lo, hi + 1)}
    h = {k: dec.from_split(inner.h(k), k + 1, k) for k in range(lo, hi)}
    triple = ReductionTriple(target, inner.small, f, g, h)
    if verify:
        report = verify_reduction(triple)
        if not report.ok:
            raise VerificationError(report, "perturbed reduction")
    return triple


def vf_reduction_via_bpl(rc: ReorderedComplex, *, verify: bool = True) -> ReductionTriple:
    """Rebuild the vector-field reduction through the perturbation lemma.

    Start from the toy differential that sends each paired edge to its
    paired vertex and nothing else; deleting those pairs is a trivial
    reduction onto the critical cells, which is the block elimination of
    rc's pair split with u = I and d31 = d23 = 0. Perturbing the toy
    differential into the reordered one (delta1 = D1 + toy, delta2 = D2)
    and pushing the trivial reduction across recovers the elimination
    reduction: complexes and f, g, h match hexagonal_reduce bit for bit.

    delta1 h0 is [[L + I, 0], [S, 0]], so its m-th power is
    [[(L + I)^m, 0], [S (L + I)^(m-1), 0]]. L + I is strictly lower
    triangular of size nv, so (L + I)^nv = 0 and exponent nv + 1
    annihilates delta1 h0. A larger exponent annihilates it exactly when
    nv + 1 does, so no looser bound is worth a retry: bpl asserts nv + 1
    and raises NotNilpotent if it fails.

    verify is passed on to bpl: by default the result passes
    verify_reduction before it is returned. The pipeline passes
    verify=False once it has verified the direct triple, because the
    route's triple must equal that triple anyway.
    """
    c0, c1, c2 = rc.original.dims()
    nv = rc.nv
    toy = Gf2Matrix(c0, c1, [1 << i for i in range(nv)] + [0] * (c0 - nv))
    # d(2) is zero, so the toy complex squares to zero.
    base = FGChainComplex._known_valid(0, 2, {0: c0, 1: c1, 2: c2}, {1: toy})
    split = SplitComplex(base, {k: rc.split.split(k) for k in base.degrees()})
    trivial = _eliminate(split, {1: Gf2Matrix.identity(nv)})
    return bpl(trivial, rc.reordered, nv + 1, verify=verify)
