"""Admissible discrete vector fields on GF(2) matrices.

A vector field on a matrix M is a set of (row, column) pairs with M[r][c]=1
and no row or column reused. Each pair (r, c) induces a relation edge
r -> r' for every other row r' with M[r'][c] = 1; the field is admissible
when that directed graph is acyclic. lambda(r) is the maximum number of
edges on any relation path starting at r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .gf2 import Gf2Matrix
from .verification import VerificationReport

__all__ = [
    "DiscreteVectorField",
    "rs_algorithm",
    "check_admissible",
    "sort_by_lambda",
    "format_dvf",
]


@dataclass(frozen=True, eq=True)
class DiscreteVectorField:
    """Pairs with their relation graph and longest-path labels for paired rows."""

    pairs: tuple[tuple[int, int], ...]
    relation: frozenset[tuple[int, int]]
    lambdas: Mapping[int, int] = field(compare=True)

    @property
    def nv(self) -> int:
        return len(self.pairs)


def _longest_path_lengths(succ: dict[int, list[int]], nodes: set[int]) -> dict[int, int]:
    """Edge-count length of the longest path out of each node.

    Walks depth first, keeping the current path; an edge back onto the
    path closes a cycle, and a ValueError names it.
    """
    memo: dict[int, int] = {}
    for start in nodes:
        if start in memo:
            continue
        path = {start: None}  # the nodes of the current path, in order
        todo = [iter(succ.get(start, ()))]  # their successors left to visit
        while todo:
            for v in todo[-1]:
                if v in memo:
                    continue
                if v in path:
                    on = list(path)
                    cycle = " -> ".join(map(str, on[on.index(v):] + [v]))
                    raise ValueError(f"relation graph has a cycle: {cycle}")
                path[v] = None
                todo.append(iter(succ.get(v, ())))
                break
            else:  # every successor is done
                u, _ = path.popitem()
                todo.pop()
                children = succ.get(u, ())
                memo[u] = 1 + max(memo[v] for v in children) if children else 0
    return memo


def rs_algorithm(m: Gf2Matrix) -> DiscreteVectorField:
    """Greedy admissible vector field construction.

    Rows are visited once in increasing index. For each row the candidate
    columns (entry 1, column not already paired) are tried in increasing
    index, and the first whose induced relation edges keep the graph
    acyclic is accepted. Accepting (r, c) adds r -> r' for every other row
    r' with a 1 in column c, so a candidate closes a cycle exactly when
    one of those rows already reaches r; rejected candidates change
    nothing, which lets one ancestor scan per row answer every candidate.
    The graph is kept as predecessor lists and the scan yields a set, so
    the work follows the edges, not the width of the matrix.
    """
    col_bits = m.transpose().bits
    used_cols = bytearray(m.cols)
    pred: dict[int, list[int]] = {}  # node -> its direct predecessors
    succ: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    edges: set[tuple[int, int]] = set()
    for i, word in enumerate(m.bits):
        cand = []
        while word:  # peel from the top, so each step shortens the word
            c = word.bit_length() - 1
            word ^= 1 << c
            if not used_cols[c]:
                cand.append(c)
        if not cand:
            continue
        # All nodes with a path to i in the current acyclic graph.
        ancestors: set[int] = set()
        stack = list(pred.get(i, ()))
        while stack:
            u = stack.pop()
            if u not in ancestors:
                ancestors.add(u)
                stack.extend(pred.get(u, ()))
        for c in reversed(cand):  # increasing column index
            targets = []
            col = col_bits[c] ^ (1 << i)
            while col:
                t = col.bit_length() - 1
                col ^= 1 << t
                targets.append(t)
            if not ancestors.isdisjoint(targets):
                continue  # some target already reaches row i: loop
            pairs.append((i, c))
            used_cols[c] = 1
            out = succ.setdefault(i, [])
            for t in reversed(targets):
                edges.add((i, t))
                out.append(t)
                pred.setdefault(t, []).append(i)
            break
    nodes = {i for i, _ in pairs}
    nodes.update(n for e in edges for n in e)
    lengths = _longest_path_lengths(succ, nodes)
    lambdas = {r: lengths.get(r, 0) for r, _ in pairs}
    return DiscreteVectorField(tuple(pairs), frozenset(edges), lambdas)


def check_admissible(m: Gf2Matrix, vf: DiscreteVectorField) -> VerificationReport:
    """Re-derive every vector field property from scratch against the matrix.

    Checks: pairs hit 1-entries in range, no row or column reused, the
    relation equals the edge set induced by the pairs, the relation graph
    is acyclic (topological sort, an independent witness from the
    construction's reachability test), and the lambda labels match
    longest-path lengths recomputed by DP over the topological order.
    """
    report = VerificationReport()
    in_range = all(0 <= r < m.rows and 0 <= c < m.cols for r, c in vf.pairs)
    report.add("pairs_in_range", in_range)
    report.add("pair_entries_one", in_range and all(m.get(r, c) == 1 for r, c in vf.pairs))
    report.add("rows_distinct", len({r for r, _ in vf.pairs}) == len(vf.pairs))
    report.add("cols_distinct", len({c for _, c in vf.pairs}) == len(vf.pairs))
    expected_edges = set()
    if in_range:
        col_bits = m.transpose().bits
        for r, c in vf.pairs:
            others = col_bits[c] & ~(1 << r)
            while others:
                t = others.bit_length() - 1
                expected_edges.add((r, t))
                others ^= 1 << t
    report.add("relation_matches_pairs", set(vf.relation) == expected_edges)

    # Kahn's algorithm: the graph is acyclic iff every node gets scheduled.
    nodes = {n for e in vf.relation for n in e}
    indeg = {n: 0 for n in nodes}
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in vf.relation:
        succ[a].append(b)
        indeg[b] += 1
    queue = [n for n in nodes if indeg[n] == 0]
    order: list[int] = []
    while queue:
        u = queue.pop()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    acyclic = len(order) == len(nodes)
    report.add("relation_acyclic", acyclic)

    if acyclic:
        longest = {n: 0 for n in nodes}
        for u in reversed(order):
            for v in succ[u]:
                longest[u] = max(longest[u], 1 + longest[v])
        expected_lambdas = {r: longest.get(r, 0) for r, _ in vf.pairs}
        report.add("lambdas_match_longest_paths", dict(vf.lambdas) == expected_lambdas)
    else:
        report.add("lambdas_match_longest_paths", False)
    return report


def sort_by_lambda(vf: DiscreteVectorField) -> DiscreteVectorField:
    """Reorder pairs by decreasing lambda, ties by ascending row index."""
    ordered = tuple(sorted(vf.pairs, key=lambda p: (-vf.lambdas[p[0]], p[0])))
    return DiscreteVectorField(ordered, vf.relation, dict(vf.lambdas))


def format_dvf(vf: DiscreteVectorField) -> str:
    """Textual dump: one "r c lambda" line per pair in the sorted pairing
    order, then one "r -> r'" line per relation edge in (r, r') order."""
    lines = [
        f"{r} {c} {vf.lambdas[r]}"
        for r, c in sort_by_lambda(vf).pairs
    ]
    lines.extend(f"{a} -> {b}" for a, b in sorted(vf.relation))
    return "\n".join(lines) + ("\n" if lines else "")
