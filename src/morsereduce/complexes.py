"""Finitely generated chain complexes over GF(2) and reductions between them.

A complex stores one free module per degree in a window [lo, hi] and the
boundary matrices between consecutive degrees, in the column convention:
d(k) has dim(k-1) rows and dim(k) columns, and chains are column vectors.
Everything outside the window is the zero module.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from operator import eq, xor

from .gf2 import Gf2Matrix, _unit_words
from .verification import VerificationReport

__all__ = [
    "BoundaryViolation",
    "FGChainComplex",
    "TruncatedComplex",
    "ReductionTriple",
    "betti",
    "verify_reduction",
]


class BoundaryViolation(Exception):
    """Raised when claimed boundary matrices do not compose to zero."""


class FGChainComplex:
    """A chain complex concentrated in degrees lo..hi with d(k) . d(k+1) = 0.

    Every complex, the perturbation route's included, is checked when built.
    """

    __slots__ = ("lo", "hi", "_dims", "_d")

    def __init__(
        self,
        lo: int,
        hi: int,
        dims: Mapping[int, int],
        d: Mapping[int, Gf2Matrix] | None = None,
    ):
        if lo > hi:
            raise ValueError(f"empty degree window [{lo}, {hi}]")
        self._dims: dict[int, int] = {}
        for k, n in dims.items():
            if not lo <= k <= hi:
                if n:
                    raise ValueError(f"degree {k} outside window [{lo}, {hi}]")
                continue
            if n < 0:
                raise ValueError(f"negative dimension {n} in degree {k}")
            self._dims[k] = n
        self.lo, self.hi = lo, hi
        self._d: dict[int, Gf2Matrix] = {}
        for k, m in (d or {}).items():
            if k <= lo or k > hi:
                if not m.is_zero():
                    raise ValueError(f"nonzero differential at degree {k} outside ({lo}, {hi}]")
                continue
            if m.rows != self.dim(k - 1) or m.cols != self.dim(k):
                raise ValueError(
                    f"d({k}) is {m.rows}x{m.cols}, expected {self.dim(k - 1)}x{self.dim(k)}"
                )
            self._d[k] = m
        self.check_boundaries()

    def check_boundaries(self) -> None:
        """Raise BoundaryViolation unless d(k) . d(k+1) = 0 in every degree.

        A degree where d(k) or d(k+1) is_zero() is answered without a product.
        """
        for k in range(self.lo + 1, self.hi):
            left, right = self.d(k), self.d(k + 1)
            if not (left.is_zero() or right.is_zero() or left.mul(right).is_zero()):
                raise BoundaryViolation(f"d({k}) . d({k + 1}) != 0")

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def d(self, k: int) -> Gf2Matrix:
        """Boundary matrix in degree k; implicit zero outside the stored range."""
        stored = self._d.get(k)
        if stored is not None:
            return stored
        return Gf2Matrix.zeros(self.dim(k - 1), self.dim(k))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FGChainComplex):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and all(self.dim(k) == other.dim(k) for k in self.degrees())
            and all(self.d(k) == other.d(k) for k in self.degrees())
        )

    def __repr__(self) -> str:
        dims = ", ".join(f"{k}: {self.dim(k)}" for k in self.degrees())
        return f"<{type(self).__name__} [{self.lo}, {self.hi}] dims {{{dims}}}>"


class TruncatedComplex(FGChainComplex):
    """The [0, 2] window of FGChainComplex, built from D1 and D2 with D1 . D2 = 0."""

    __slots__ = ()

    def __init__(self, d1: Gf2Matrix, d2: Gf2Matrix):
        super().__init__(0, 2, {0: d1.rows, 1: d1.cols, 2: d2.cols}, {1: d1, 2: d2})

    @property
    def d1(self) -> Gf2Matrix:
        return self.d(1)

    @property
    def d2(self) -> Gf2Matrix:
        return self.d(2)

    @property
    def c0(self) -> int:
        return self.dim(0)

    @property
    def c1(self) -> int:
        return self.dim(1)

    @property
    def c2(self) -> int:
        return self.dim(2)

    def dims(self) -> tuple[int, int, int]:
        return (self.c0, self.c1, self.c2)


def betti(c: FGChainComplex) -> dict[int, int]:
    """Betti numbers over GF(2): dim(k) - rank d(k) - rank d(k+1) per degree."""
    c.check_boundaries()
    ranks = {k: c.d(k).rank() for k in range(c.lo, c.hi + 2)}
    out = {}
    for k in c.degrees():
        b = c.dim(k) - ranks[k] - ranks.get(k + 1, 0)
        if b < 0:
            raise BoundaryViolation(f"negative betti number in degree {k}")
        out[k] = b
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
        big: FGChainComplex,
        small: FGChainComplex,
        f: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
        g: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
        h: Mapping[int, Gf2Matrix] | Callable[[int], Gf2Matrix | None],
    ):
        if (big.lo, big.hi) != (small.lo, small.hi):
            raise ValueError("big and small complexes must share a degree window")
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
