"""One constructed fault per verification label, and an inventory that keeps it so.

Every label a `VerificationReport.add` call in the package can record must
have a fault case here that makes its check fail; the inventory test parses
the source, so a check added without a fault case fails the suite.
"""

import ast
import pathlib

import pytest

import morsereduce
from morsereduce.complexes import ReductionTriple, verify_reduction
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix
from morsereduce.image import random_image
from morsereduce.reduction import hexagonal_reduce, reorder
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
