"""One constructed fault per check label and per typed failure, and inventories that keep it so.

Every label a `VerificationReport.add` call in the package can record must
have a fault case here that makes its check fail, and every raise of
`DecompositionFailure`, `NotInvertible` or `NotNilpotent` a case that
reaches it. The inventory tests parse the source, so a check or a raise
added without a fault case fails the suite.
"""

import ast
import pathlib
import re

import pytest

import morsereduce
from morsereduce.complexes import FGChainComplex, ReductionTriple, verify_reduction
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix, NotNilpotent
from morsereduce.image import random_image
from morsereduce.perturbation import (
    DecompositionFailure,
    NotInvertible,
    bpl,
    decompose,
    hexagonal_general,
)
from morsereduce.reduction import SplitComplex, hexagonal_reduce, reorder
from morsereduce.vectorfield import DiscreteVectorField, check_admissible, rs_algorithm, sort_by_lambda

# label -> (map, degree, row, column) of the one bit flipped in a valid
# hexagonal triple, and the degree whose check must then fail. "nv" stands
# for the number of pairs, the first critical row or column.
REDUCTION_FAULTS = {
    "f_g_identity": ("f", 0, 0, "nv", 0),  # the I block of f(0) = [S L^-1 | I]
    "g_f_plus_dh_plus_hd_identity": ("h", 0, 0, 0, 0),  # the diagonal of L^-1 in h(0)
    "f_h_zero": ("f", 1, 0, 0, 0),  # f(1) reads a paired edge that h(0) reaches
    "h_g_zero": ("g", 0, 0, 0, 0),  # g(0) reaches a paired vertex that h(0) reads
    "h_h_zero": ("h", 1, 0, 0, 0),  # h(1), zero, reads a paired edge that h(0) reaches
    "f_chain_map": ("f", 0, 0, 0, 1),  # f(0) reads the first paired vertex
    "g_chain_map": ("g", 2, 0, 0, 2),  # g(2) sends a critical square to square 0
}

# label -> (matrix rows, pairs, lambdas) of a field that check_admissible rejects.
ALL_ONES = [[1, 1], [1, 1]]
ADMISSIBLE_FAULTS = {
    "pairs_in_range": (ALL_ONES, ((7, 0),), {7: 0}),
    "pair_entries_one": ([[0, 1], [1, 1]], ((0, 0),), {0: 1}),
    "rows_distinct": (ALL_ONES, ((0, 0), (0, 1)), {0: 1}),
    "cols_distinct": (ALL_ONES, ((0, 0), (1, 0)), {0: 1, 1: 1}),
    "relation_acyclic": (ALL_ONES, ((0, 0), (1, 1)), {0: 1, 1: 1}),  # rows 0 and 1 reach each other
    "lambdas_match_longest_paths": (ALL_ONES, ((0, 0),), {0: 5}),
}


def labels_in_source():
    """The first argument of every `.add("...")` call in the package's modules."""
    labels = set()
    for path in pathlib.Path(morsereduce.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                labels.add(node.args[0].value)
    return labels


def test_every_verification_label_has_a_fault_case():
    assert labels_in_source() == set(REDUCTION_FAULTS) | set(ADMISSIBLE_FAULTS)


@pytest.fixture(scope="module")
def hexagonal():
    t = boundary_matrices(build_cubical(random_image(8, 8, 0.6, 3)))
    rc = reorder(t, sort_by_lambda(rs_algorithm(t.d1)))
    _, triple = hexagonal_reduce(rc)
    small = triple.small
    assert rc.nv and small.dim(0) and small.dim(1) and small.dim(2)
    assert triple.h(0)._pin is not None and triple.g(1)._pin is not None
    assert verify_reduction(triple).ok
    return rc.nv, triple


@pytest.mark.parametrize("label", sorted(REDUCTION_FAULTS))
def test_a_corrupted_triple_fails_the_check_of_its_label(hexagonal, label):
    nv, triple = hexagonal
    name, degree, i, j, failing = REDUCTION_FAULTS[label]
    j = nv if j == "nv" else j
    good = getattr(triple, name)(degree)
    bit = Gf2Matrix(good.rows, good.cols, [1 << j if r == i else 0 for r in range(good.rows)])
    bad = good + bit
    maps = {m: getattr(triple, m) for m in "fgh"}
    maps[name] = lambda k: bad if k == degree else getattr(triple, name)(k)
    tampered = ReductionTriple(triple.big, triple.small, maps["f"], maps["g"], maps["h"])
    assert f"{label}[{failing}]" in [e.label() for e in verify_reduction(tampered).failures()]


@pytest.mark.parametrize("label", sorted(ADMISSIBLE_FAULTS))
def test_a_broken_field_fails_the_check_of_its_label(label):
    rows, pairs, lambdas = ADMISSIBLE_FAULTS[label]
    report = check_admissible(Gf2Matrix.from_rows(rows), DiscreteVectorField(pairs, lambdas))
    assert label in [e.label() for e in report.failures()]


ONE = Gf2Matrix.identity(1)
LINE = FGChainComplex(0, 1, {0: 1, 1: 1}, {1: ONE})  # one edge on one vertex
FLAT = FGChainComplex(0, 1, {0: 1, 1: 1})  # the same modules, d = 0


def identity_maps(big, small, h):
    """f = g = I between complexes with one cell a degree; no identity is checked."""
    return ReductionTriple(big, small, {0: ONE, 1: ONE}, {0: ONE, 1: ONE}, h)


def vertex_in_b(big):
    """f(0) = 0 and h(0) = I put the vertex in B0; f(1) = g(1) = I keep the edge."""
    return ReductionTriple(big, FGChainComplex(0, 1, {0: 0, 1: 1}), {1: ONE}, {1: ONE}, {0: ONE})


def edge_on_vertex(pivot_inverses, a1=1):
    """hexagonal_general on LINE split as the pair (edge 0, vertex 0), or with A1 = a1."""
    splits = {0: (0, 1, 0), 1: (a1, 0, 1 - a1)}
    return hexagonal_general(SplitComplex(LINE, splits), pivot_inverses)


# (exception, a fragment of its message) -> a call that reaches that raise.
ROUTE_FAULTS = {
    # Nothing in the window is killed by f or h: A0 and B0 both hold the
    # one vertex, two dimensions in a module of one.
    (DecompositionFailure, "parts span"): lambda: decompose(
        ReductionTriple(FGChainComplex(0, 0, {0: 1}), FGChainComplex(0, 0, {0: 0}), {}, {}, {})
    ),
    # g sends both small cells to the big complex's first cell.
    (DecompositionFailure, "not independent"): lambda: decompose(
        ReductionTriple(
            FGChainComplex(0, 0, {0: 2}),
            FGChainComplex(0, 0, {0: 2}),
            {0: Gf2Matrix.identity(2)},
            {0: Gf2Matrix(2, 2, [0b11, 0])},
            {},
        )
    ),
    # The vertex is B0 (f(0) = 0, h(0) = I) and the edge is g(1), so d(1)
    # falls in block (2, 3).
    (DecompositionFailure, "of the split differential is nonzero"): lambda: decompose(
        vertex_in_b(LINE)
    ),
    # The same split with d = 0: B0 holds the vertex and A1 nothing, so d21 is 1 x 0.
    (DecompositionFailure, "not an isomorphism"): lambda: decompose(vertex_in_b(FLAT)),
    (DecompositionFailure, "C-block differs"): lambda: decompose(identity_maps(LINE, FLAT, {})),
    # h(0) = I is no homotopy of an identity reduction: it maps the g-part.
    (DecompositionFailure, "homotopy is not confined"): lambda: bpl(
        identity_maps(FLAT, FLAT, {0: ONE}), FLAT, 1
    ),
    # The cone contracted by h(0) = I, perturbed by delta(1) = I: delta h = I.
    (NotNilpotent, "delta h is not annihilated"): lambda: bpl(
        ReductionTriple(LINE, FGChainComplex(0, 1, {0: 0, 1: 0}), {}, {}, {0: ONE}), FLAT, 3
    ),
    (NotInvertible, "but B below has size"): lambda: edge_on_vertex({}, a1=0),
    (NotInvertible, "missing pivot inverse"): lambda: edge_on_vertex({}),
    (NotInvertible, "wrong shape"): lambda: edge_on_vertex({1: Gf2Matrix.zeros(1, 2)}),
    (NotInvertible, "claimed pivot inverse fails"): lambda: edge_on_vertex(
        {1: Gf2Matrix.zeros(1, 1)}
    ),
    (NotNilpotent, "is nonzero"): lambda: ONE.nilpotent_series_inverse(3),
}
ROUTE_ERRORS = {e.__name__ for e, _ in ROUTE_FAULTS}


def raises_in_source():
    """(exception name, literal text of the message) of every raise of a route error."""
    sites = []
    for path in pathlib.Path(morsereduce.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in ROUTE_ERRORS
            ):
                text = "".join(
                    part.value
                    for arg in node.exc.args
                    for part in ast.walk(arg)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
                sites.append((node.exc.func.id, text))
    return sites


def test_every_route_failure_has_a_fault_case():
    covered = []
    for name, text in raises_in_source():
        (case,) = [(e, frag) for e, frag in ROUTE_FAULTS if e.__name__ == name and frag in text]
        covered.append(case)
    assert sorted(covered, key=str) == sorted(ROUTE_FAULTS, key=str)


@pytest.mark.parametrize("error, fragment", sorted(ROUTE_FAULTS, key=str))
def test_a_constructed_input_raises_each_route_failure(error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        ROUTE_FAULTS[error, fragment]()
