"""Reduction of a truncated complex along an admissible vector field.

Sorting the pairs by decreasing lambda and moving paired cells to the
front turns the paired block of D1 into a unit lower triangular matrix L:
an off-diagonal 1 at (i, j) with j > i would witness a relation edge from
pair j's row to pair i's row, forcing lambda(j) > lambda(i) and therefore
j < i in the sort. With L invertible, Gaussian block elimination of the
paired rows and columns yields a smaller complex on the critical cells
together with an explicit strong deformation retract onto it. The same
elimination, for a complex split as A + B + C in every degree, also backs
perturbation.hexagonal_general.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .complexes import FGChainComplex, ReductionTriple, TruncatedComplex
from .gf2 import Gf2Matrix, Permutation, _permute_pair, _Pin
from .vectorfield import DiscreteVectorField

__all__ = [
    "TriangularityViolation", "ReorderedComplex", "SplitComplex", "reorder", "hexagonal_reduce"
]


class TriangularityViolation(Exception):
    """The paired block of the reordered D1 is not unit lower triangular."""


class SplitComplex:
    """A complex whose degrees carry an ordered three-part basis split."""

    __slots__ = ("cx", "_splits", "_blocks")

    def __init__(self, cx: FGChainComplex, splits: Mapping[int, tuple[int, int, int]]):
        self.cx = cx
        self._splits: dict[int, tuple[int, int, int]] = {}
        for k, (a, b, c) in splits.items():
            if min(a, b, c) < 0 or a + b + c != cx.dim(k):
                raise ValueError(f"split {a}+{b}+{c} != dim {cx.dim(k)} in degree {k}")
            self._splits[k] = (a, b, c)
        self._blocks: dict[int, tuple[tuple[Gf2Matrix, ...], ...]] = {}

    def split(self, k: int) -> tuple[int, int, int]:
        return self._splits.get(k, (0, 0, self.cx.dim(k)))

    def blocks(self, k: int) -> tuple[tuple[Gf2Matrix, ...], ...]:
        """The 3x3 blocks of d(k): rows split by degree k-1, columns by degree k.

        Computed on the first call for k; later calls return the same blocks.
        """
        if k not in self._blocks:
            ra, rb, _ = self.split(k - 1)
            ca, cb, _ = self.split(k)
            top, rest = self.cx.d(k).split_rows(ra)
            mid, bot = rest.split_rows(rb)
            out = []
            for band in (top, mid, bot):
                left, r2 = band.split_cols(ca)
                center, right = r2.split_cols(cb)
                out.append((left, center, right))
            self._blocks[k] = tuple(out)
        return self._blocks[k]


@dataclass(frozen=True)
class ReorderedComplex:
    """A truncated complex with paired cells moved to the leading positions.

    Pair p of the sorted field becomes row p and column p of the reordered
    D1, so the nv x nv upper-left block L is unit lower triangular.
    row_perm and col_perm send original indices to new positions. split
    has the paired edges as A in degree 1, the paired vertices as B in
    degree 0 and the critical cells as C; L is its block d21 in degree 1,
    and its other blocks are read from split.blocks(k).
    """

    original: TruncatedComplex
    reordered: TruncatedComplex
    nv: int
    row_perm: Permutation
    col_perm: Permutation
    split: SplitComplex
    L: Gf2Matrix


def _front_permutation(total: int, leading: list[int], what: str) -> Permutation:
    """Send leading[p] to position p and pack the rest behind, order preserved.

    The packed order has exactly total entries only if the leading
    indices are distinct and in range, so one count checks them all.
    """
    chosen = set(leading)
    order = leading + [i for i in range(total) if i not in chosen]
    if len(order) != total:
        raise ValueError(f"{what} indices of the pairs are not distinct in range({total})")
    image = [0] * total
    for p, i in enumerate(order):
        image[i] = p
    return Permutation._raw(tuple(image))


def reorder(t: TruncatedComplex, vf: DiscreteVectorField) -> ReorderedComplex:
    """Permute t so the vector field pairs occupy the leading rows/columns of D1.

    The field must already be sorted by decreasing lambda (checked) and be
    admissible on t.d1 (assumed; see check_admissible). Raises
    TriangularityViolation if the paired block fails to come out unit
    lower triangular, which cannot happen for a sorted admissible field.
    """
    lams = [vf.lambdas[r] for r, _ in vf.pairs]
    if any(a < b for a, b in zip(lams, lams[1:])):
        raise ValueError("vector field pairs are not sorted by decreasing lambda")
    nv = vf.nv
    row_perm = _front_permutation(t.c0, [r for r, _ in vf.pairs], "row")
    col_perm = _front_permutation(t.c1, [c for _, c in vf.pairs], "column")
    # D2's columns stay put, so its rows move whole; D1 . D2 = 0, once
    # checked on t, is carried to the permuted pair without a product.
    d1r, d2r = _permute_pair(t.d1, t.d2, row_perm, col_perm)
    splits = {0: (0, nv, t.c0 - nv), 1: (nv, 0, t.c1 - nv), 2: (0, 0, t.c2)}
    split = SplitComplex(TruncatedComplex(d1r, d2r), splits)
    block_l = split.blocks(1)[1][0]
    if not block_l.is_lower_unitriangular():
        raise TriangularityViolation(
            "paired block is not unit lower triangular; field unsorted or inadmissible"
        )
    return ReorderedComplex(
        original=t,
        reordered=split.cx,
        nv=nv,
        row_perm=row_perm,
        col_perm=col_perm,
        split=split,
        L=block_l,
    )


def _eliminate(sc: SplitComplex, u: Mapping[int, Gf2Matrix]) -> ReductionTriple:
    """Block elimination of the A and B parts of a split complex onto its C-parts.

    u[k] must invert the d21 block A_k -> B_(k-1) wherever A_k is nonzero
    (missing degrees are empty). The small differential d33 + d31 u d23 is
    computed here; f, g and h are built the first time they are read.
    """
    cx = sc.cx
    lo, hi = cx.lo, cx.hi
    empty = Gf2Matrix.zeros(0, 0)
    d_small: dict[int, Gf2Matrix] = {}
    d31_u: dict[int, Gf2Matrix] = {}  # formed once: feeds d_small and f
    for k in range(lo + 1, hi + 1):
        blocks = sc.blocks(k)
        d31_u[k] = blocks[2][0].mul(u.get(k, empty))
        d_small[k] = blocks[2][2] + d31_u[k].mul(blocks[1][2])
    if (lo, hi) == (0, 2):  # keep the c0..c2, d1, d2 view that callers read
        small = TruncatedComplex(d_small[1], d_small[2])
    else:
        small = FGChainComplex(lo, hi, {k: sc.split(k)[2] for k in cx.degrees()}, d_small)

    # In the A, B, C blocks: f(k) = [0 | d31 u | I], g(k) = [u d23; 0; I] and
    # h(k) = [0 u 0; 0 0 0], each assembled directly from row words. Since
    # u inverts d21, u d23 is the X with d21 X = d23: forward substitution
    # finds it in nnz(d21) row XORs when d21 is unit lower triangular, as
    # the pair split's L is, where the product costs nnz(u). Such a d21
    # also pins g and h (gf2._Pin), so that products with them on the
    # left are solved through d21 too, once mul has checked the pin.
    def f(k: int) -> Gf2Matrix | None:
        if not lo <= k <= hi:
            return None
        a, b, c = sc.split(k)
        proj = d31_u[k + 1].bits if k < hi else (0,) * c
        return Gf2Matrix(c, a + b + c, [p << a | 1 << (a + b + i) for i, p in enumerate(proj)])

    def g(k: int) -> Gf2Matrix | None:
        if not lo <= k <= hi:
            return None
        a, b, c = sc.split(k)
        _, (d21, _, d23), _ = sc.blocks(k)
        triangular = d21.is_lower_unitriangular()
        if triangular:
            lift = d21.solve_unit_lower(d23)
        else:
            lift = u.get(k, empty).mul(d23)
        m = Gf2Matrix(a + b + c, c, lift.bits + (0,) * b + tuple(1 << i for i in range(c)))
        if triangular and a:
            object.__setattr__(m, "_pin", _Pin(d21, d23))
        return m

    def h(k: int) -> Gf2Matrix | None:
        if not lo <= k <= hi:
            return None
        a, b, c = sc.split(k)
        top = [w << a for w in u.get(k + 1, empty).bits]
        m = Gf2Matrix(cx.dim(k + 1), a + b + c, top + [0] * (cx.dim(k + 1) - len(top)))
        if top:
            d21 = sc.blocks(k + 1)[1][0]
            if d21.is_lower_unitriangular():
                object.__setattr__(m, "_pin", _Pin(d21, offset=a))
        return m

    return ReductionTriple(cx, small, f, g, h)


def hexagonal_reduce(rc: ReorderedComplex) -> tuple[TruncatedComplex, ReductionTriple]:
    """Eliminate the paired cells of a reordered complex in one block step.

    Returns the critical complex (D1' = R + S L^-1 T over the unpaired
    cells, D2' = the critical rows of the reordered D2) and the reduction
    triple from the reordered complex onto it. D1 . D2 = 0 forces the
    paired rows of D2 to equal L^-1 T D2', which is why dropping them is a
    chain map. The triple's identities are checked by verify_reduction.
    It re-checks D1 . D2 = 0, then eliminates rc.split with u(1) = L^-1.
    """
    rc.reordered.check_boundaries()
    triple = _eliminate(rc.split, {1: rc.L.inv_unit_lower_triangular()})
    return triple.small, triple
