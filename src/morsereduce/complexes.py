"""Chain complexes over GF(2) in degrees 0, 1 and 2, and reductions between them.

A complex is the pair of boundary matrices D1 and D2 with D1 . D2 = 0, in
the column convention: d(k) has dim(k-1) rows and dim(k) columns, and
chains are column vectors. Every module outside degrees 0..2 is zero.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from operator import eq, xor

from .gf2 import Gf2Matrix, _unit_words
from .verification import VerificationReport

__all__ = [
    "BoundaryViolation",
    "TruncatedComplex",
    "ReductionTriple",
    "betti",
    "verify_reduction",
]


class BoundaryViolation(Exception):
    """Raised when claimed boundary matrices do not compose to zero."""


class TruncatedComplex:
    """The chain complex C2 -> C1 -> C0 given by D1 and D2 with D1 . D2 = 0.

    Every complex, the perturbation route's included, is checked when built.
    """

    __slots__ = ("d1", "d2")

    def __init__(self, d1: Gf2Matrix, d2: Gf2Matrix):
        if d1.cols != d2.rows:
            raise ValueError(f"d(2) is {d2.rows}x{d2.cols}, expected {d1.cols}x{d2.cols}")
        self.d1 = d1
        self.d2 = d2
        self.check_boundaries()

    def check_boundaries(self) -> None:
        """Raise BoundaryViolation unless D1 . D2 = 0.

        Where D1 or D2 is_zero() it is answered without a product.
        """
        d1, d2 = self.d1, self.d2
        if not (d1.is_zero() or d2.is_zero() or d1.mul(d2).is_zero()):
            raise BoundaryViolation("d(1) . d(2) != 0")

    @property
    def c0(self) -> int:
        return self.d1.rows

    @property
    def c1(self) -> int:
        return self.d1.cols

    @property
    def c2(self) -> int:
        return self.d2.cols

    def dims(self) -> tuple[int, int, int]:
        return (self.d1.rows, self.d1.cols, self.d2.cols)

    def dim(self, k: int) -> int:
        return self.dims()[k] if 0 <= k <= 2 else 0

    def d(self, k: int) -> Gf2Matrix:
        """D1 or D2 in degree 1 or 2, and the zero map in every other degree."""
        if k == 1:
            return self.d1
        if k == 2:
            return self.d2
        return Gf2Matrix.zeros(self.dim(k - 1), self.dim(k))

    def degrees(self) -> range:
        return range(3)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedComplex):
            return NotImplemented
        return self.d1 == other.d1 and self.d2 == other.d2

    def __repr__(self) -> str:
        return f"<TruncatedComplex dims {self.dims()}>"


def betti(c: TruncatedComplex) -> dict[int, int]:
    """Betti numbers over GF(2): dim(k) - rank d(k) - rank d(k+1) per degree."""
    c.check_boundaries()
    r1, r2 = c.d1.rank(), c.d2.rank()
    out = {0: c.c0 - r1, 1: c.c1 - r1 - r2, 2: c.c2 - r2}
    for k, b in out.items():
        if b < 0:
            raise BoundaryViolation(f"negative betti number in degree {k}")
    return out


class ReductionTriple:
    """A strong deformation retract (f, g, h) from a big complex onto a small one.

    f(k): big_k -> small_k and g(k): small_k -> big_k are chain maps, and
    h(k): big_k -> big_(k+1) is the homotopy; verify_reduction checks the
    five defining identities plus both chain-map conditions.

    Each map is given either as a mapping from degree to matrix, checked
    on construction, or as a function of the degree that builds the
    matrix the first time it is read, checked then. A missing degree, or
    a function returning None, means the zero map.
    """

    __slots__ = ("big", "small", "_build", "_built")

    def __init__(
        self,
        big: TruncatedComplex,
        small: TruncatedComplex,
        f: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
        g: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
        h: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
    ):
        self.big = big
        self.small = small
        self._build: dict[str, Callable[[int], Gf2Matrix | None]] = {}
        self._built: dict[tuple[str, int], Gf2Matrix] = {}
        for name, source in (("f", f), ("g", g), ("h", h)):
            if callable(source):
                self._build[name] = source
            else:
                given = dict(source)
                self._build[name] = given.get
                for k in given:
                    self._map(name, k)

    def _map(self, name: str, k: int) -> Gf2Matrix:
        m = self._built.get((name, k))
        if m is not None:
            return m
        if name == "f":
            rows, cols = self.small.dim(k), self.big.dim(k)
        elif name == "g":
            rows, cols = self.big.dim(k), self.small.dim(k)
        else:
            rows, cols = self.big.dim(k + 1), self.big.dim(k)
        m = self._build[name](k)
        if m is None:
            m = Gf2Matrix.zeros(rows, cols)
        elif (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"{name}({k}) is {m.rows}x{m.cols}, expected {rows}x{cols}")
        self._built[(name, k)] = m
        return m

    def f(self, k: int) -> Gf2Matrix:
        return self._map("f", k)

    def g(self, k: int) -> Gf2Matrix:
        return self._map("g", k)

    def h(self, k: int) -> Gf2Matrix:
        return self._map("h", k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReductionTriple):
            return NotImplemented
        if self.big != other.big or self.small != other.small:
            return False
        ks = self.big.degrees()
        return all(
            self.f(k) == other.f(k) and self.g(k) == other.g(k) and self.h(k) == other.h(k)
            for k in ks
        )


def verify_reduction(r: ReductionTriple) -> VerificationReport:
    """Check every identity a reduction must satisfy, degree by degree.

    In each degree: f g = I, g f + d h + h d = I, f h = 0, h g = 0, h h = 0,
    f d_big = d_small f, and d_big g = g d_small. All comparisons are exact.
    The three terms of g f + d h + h d are compared with I row by row, so
    their sum is never formed, and each term is dropped after its check.
    """
    report = VerificationReport()
    big, small = r.big, r.small
    for k in big.degrees():
        f_k, g_k, h_k = r.f(k), r.g(k), r.h(k)
        report.add("f_g_identity", f_k.mul(g_k).is_identity(), k)
        report.add(
            "g_f_plus_dh_plus_hd_identity",
            _sum_is_identity(g_k.mul(f_k), big.d(k + 1).mul(h_k), r.h(k - 1).mul(big.d(k))),
            k,
        )
        report.add("f_h_zero", r.f(k + 1).mul(h_k).is_zero(), k)
        report.add("h_g_zero", h_k.mul(g_k).is_zero(), k)
        report.add("h_h_zero", r.h(k + 1).mul(h_k).is_zero(), k)
        report.add("f_chain_map", r.f(k - 1).mul(big.d(k)) == small.d(k).mul(f_k), k)
        report.add("g_chain_map", big.d(k).mul(g_k) == r.g(k - 1).mul(small.d(k)), k)
    return report


def _sum_is_identity(a: Gf2Matrix, b: Gf2Matrix, c: Gf2Matrix) -> bool:
    """Whether a + b + c = I for three n x n products, XORed and compared row by row."""
    return all(map(eq, map(xor, map(xor, a.bits, b.bits), c.bits), _unit_words(a.rows)))
