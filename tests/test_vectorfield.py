"""Unit tests for vector field construction, checking, and sorting."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix
from morsereduce.image import random_image
from morsereduce.vectorfield import (
    DiscreteVectorField,
    _longest_path_lengths,
    _relation_edges,
    check_admissible,
    format_dvf,
    rs_algorithm,
    sort_by_lambda,
)

import oracle


def random_matrix(rng, rows, cols, density=0.5):
    return Gf2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_all_ones_two_by_two_traced_by_hand():
    m = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    vf = rs_algorithm(m)
    # Row 0 takes column 0, relating it to row 1; row 1 then finds only
    # column 1, whose induced edge 1 -> 0 would close a loop via 0 -> 1,
    # so row 1 stays unpaired.
    assert vf.pairs == ((0, 0),)
    assert _relation_edges(m, vf.pairs) == {(0, 1)}
    assert dict(vf.lambdas) == {0: 1}


def test_identity_pairs_everything_without_relations():
    m = Gf2Matrix.identity(3)
    vf = rs_algorithm(m)
    assert vf.pairs == ((0, 0), (1, 1), (2, 2))
    assert _relation_edges(m, vf.pairs) == set()
    assert dict(vf.lambdas) == {0: 0, 1: 0, 2: 0}


def test_zero_matrix_gives_empty_field():
    vf = rs_algorithm(Gf2Matrix.zeros(3, 4))
    assert vf.pairs == () and vf.nv == 0
    report = check_admissible(Gf2Matrix.zeros(3, 4), vf)
    assert report.ok
    assert [e.name for e in report.entries] == [
        "pairs_in_range",
        "pair_entries_one",
        "rows_distinct",
        "cols_distinct",
        "relation_acyclic",
        "lambdas_match_longest_paths",
    ]


def test_chain_example_traced_by_hand():
    # Pairing row 0 relates it to row 2; row 2 later pairs column 2 and
    # relates to row 1, so the longest paths are 2, 0, 1 edges.
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
    vf = rs_algorithm(m)
    assert vf.pairs == ((0, 0), (1, 1), (2, 2))
    assert _relation_edges(m, vf.pairs) == {(0, 2), (2, 1)}
    assert dict(vf.lambdas) == {0: 2, 1: 0, 2: 1}
    sorted_vf = sort_by_lambda(vf)
    assert sorted_vf.pairs == ((0, 0), (2, 2), (1, 1))
    assert check_admissible(m, sorted_vf).ok


def test_sort_breaks_lambda_ties_by_row():
    vf = rs_algorithm(Gf2Matrix.identity(4))
    assert sort_by_lambda(vf).pairs == vf.pairs
    shuffled = DiscreteVectorField(((3, 0), (1, 1), (2, 2), (0, 3)), {3: 0, 1: 1, 2: 0, 0: 1})
    assert sort_by_lambda(shuffled).pairs == ((0, 3), (1, 1), (2, 2), (3, 0))


def test_rs_output_is_always_admissible():
    rng = random.Random(21)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 12), rng.randint(0, 12), rng.random())
        vf = rs_algorithm(m)
        assert check_admissible(m, vf).ok
        assert len({r for r, _ in vf.pairs}) == vf.nv
        assert len({c for _, c in vf.pairs}) == vf.nv
        assert all(m.get(r, c) == 1 for r, c in vf.pairs)


def test_check_admissible_rejects_broken_fields():
    m = Gf2Matrix.from_rows([[1, 1], [1, 1]])
    zero_entry = DiscreteVectorField(((0, 0),), {0: 1})
    assert check_admissible(Gf2Matrix.from_rows([[0, 1], [1, 1]]), zero_entry).failures()

    dup_rows = DiscreteVectorField(((0, 0), (0, 1)), {0: 1})
    report = check_admissible(m, dup_rows)
    assert any(e.name == "rows_distinct" for e in report.failures())

    # Column 0 relates row 0 to row 1 and column 1 row 1 to row 0.
    cyclic = DiscreteVectorField(((0, 0), (1, 1)), {0: 1, 1: 1})
    report = check_admissible(m, cyclic)
    assert any(e.name == "relation_acyclic" for e in report.failures())

    wrong_lambda = DiscreteVectorField(((0, 0),), {0: 5})
    report = check_admissible(m, wrong_lambda)
    assert any(e.name == "lambdas_match_longest_paths" for e in report.failures())

    out_of_range = DiscreteVectorField(((7, 0),), {7: 0})
    assert not check_admissible(m, out_of_range).ok


def test_lambda_counts_edges_on_longest_path():
    # 0 -> 1 -> 2 chain built from a lower bidiagonal pattern.
    m = Gf2Matrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    vf = rs_algorithm(m)
    assert dict(vf.lambdas) == {0: 2, 1: 1, 2: 0}
    assert check_admissible(m, vf).ok


@pytest.mark.parametrize(
    "succ, cycle",
    [
        ([[1], [0]], "0 -> 1 -> 0"),
        ([[1], [2], [0]], "0 -> 1 -> 2 -> 0"),
        ([[0]], "0 -> 0"),
        # A cycle below an acyclic start; the walk may enter it at 6 or 8.
        ([[], [], [], [], [], [6], [7, 8], [], [6]], "6 -> 8 -> 6|8 -> 6 -> 8"),
    ],
)
def test_longest_paths_refuse_a_cycle(succ, cycle):
    with pytest.raises(ValueError, match=cycle):
        _longest_path_lengths(succ, range(len(succ)))


def test_format_dvf_frozen():
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
    text = format_dvf(rs_algorithm(m), m)
    assert text == "0 0 2\n2 2 1\n1 1 0\n0 -> 2\n2 -> 1\n"
    zeros = Gf2Matrix.zeros(2, 2)
    assert format_dvf(rs_algorithm(zeros), zeros) == ""


def assert_matches_reference_greedy(m):
    pairs, relation, lambdas = oracle.rs_greedy(m.to_rows(), m.cols)
    vf = rs_algorithm(m)
    assert list(vf.pairs) == pairs
    assert _relation_edges(m, vf.pairs) == relation
    assert dict(vf.lambdas) == lambdas


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 16), st.integers(0, 16), st.floats(0.1, 0.6), st.integers(0, 2**32 - 1))
def test_rs_algorithm_is_the_reference_greedy_on_random_matrices(rows, cols, density, seed):
    assert_matches_reference_greedy(random_matrix(random.Random(seed), rows, cols, density))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
@example(24, 24, 0.6, 7)
@example(48, 48, 0.35, 61 << 20)  # sparse, like the cli-sparse-192 benchmark images
def test_rs_algorithm_is_the_reference_greedy_on_image_boundaries(width, height, density, seed):
    img = random_image(width, height, density, seed)
    assert_matches_reference_greedy(boundary_matrices(build_cubical(img)).d1)
