"""Admissible discrete vector fields on GF(2) matrices.

A vector field on a matrix M is a set of (row, column) pairs with M[r][c]=1
and no row or column reused. Each pair (r, c) induces a relation edge
r -> r' for every other row r' with M[r'][c] = 1; the field is admissible
when that directed graph is acyclic. lambda(r) is the maximum number of
edges on any relation path starting at r.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .gf2 import Gf2Matrix, _index_rows
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
    """Pairs with the longest-path labels of their rows.

    The relation edges are not stored: they follow from the pairs and the
    matrix, and _relation_edges reads them off it.
    """

    pairs: tuple[tuple[int, int], ...]
    lambdas: Mapping[int, int] = field(compare=True)

    @property
    def nv(self) -> int:
        return len(self.pairs)


def _relation_edges(m: Gf2Matrix, pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """The edges r -> t that pairs in range of m induce: t is another row
    with a 1 in r's paired column."""
    columns = _index_rows(m.transpose())  # a tuple: a transpose is held as its index
    return {(r, t) for r, c in pairs for t in columns[c] if t != r}


def _longest_path_lengths(succ: Sequence[Sequence[int]], nodes: Iterable[int]) -> dict[int, int]:
    """Edge-count length of the longest path out of each node.

    succ[v] lists v's successors, for every row v. Walks depth first,
    keeping the current path; an edge back onto the path closes a cycle,
    and a ValueError names it.
    """
    memo: dict[int, int] = {}
    for start in nodes:
        if start in memo:
            continue
        path = {start: None}  # the nodes of the current path, in order
        todo = [iter(succ[start])]  # their successors left to visit
        while todo:
            for v in todo[-1]:
                if v in memo:
                    continue
                if v in path:
                    on = list(path)
                    cycle = " -> ".join(map(str, on[on.index(v):] + [v]))
                    raise ValueError(f"relation graph has a cycle: {cycle}")
                path[v] = None
                todo.append(iter(succ[v]))
                break
            else:  # every successor is done
                u, _ = path.popitem()
                todo.pop()
                children = succ[u]
                memo[u] = 1 + max(map(memo.__getitem__, children)) if children else 0
    return memo


def rs_algorithm(m: Gf2Matrix) -> DiscreteVectorField:
    """Greedy admissible vector field construction.

    Rows are visited once in increasing index. For each row the candidate
    columns (entry 1, column not already paired) are tried in increasing
    index, and the first whose induced relation edges keep the graph
    acyclic is accepted. Accepting (r, c) adds r -> r' for every other row
    r' with a 1 in column c, so a candidate closes a cycle exactly when
    one of those rows already reaches r.

    Rows of m, and the candidate columns from m.transpose(), are read as
    index rows (see gf2._index_rows), so no candidate costs an operation
    on a row-wide integer. When every column holds at most two rows, as
    in the D1 of every cubical complex, _union_find_field answers each
    candidate with one find; any other matrix takes _ancestor_field's
    ancestor scan.
    """
    columns = _index_rows(m.transpose())  # a tuple: a transpose is held as its index
    if max(map(len, columns), default=0) <= 2:
        return _union_find_field(m, columns)
    return _ancestor_field(m, columns)


def _ancestor_field(m: Gf2Matrix, columns: Sequence[Sequence[int]]) -> DiscreteVectorField:
    """rs_algorithm for any matrix, with columns[c] the rows of column c.

    Rejected candidates change nothing, which lets one ancestor scan per
    row answer every candidate of that row. The graph is kept in
    row-indexed predecessor and successor lists, so the work follows the
    edges, not the width of the matrix.
    """
    used_cols = bytearray(m.cols)
    pred: list = [()] * m.rows  # row -> its direct predecessors
    succ: list = [()] * m.rows  # row -> its direct successors
    pairs: list[tuple[int, int]] = []
    for i, row in enumerate(_index_rows(m)):
        ancestors = None
        for c in row:
            if used_cols[c]:
                continue
            support = columns[c]  # the rows of c, i among them
            if ancestors is None:
                # All nodes with a path to i in the current acyclic graph;
                # i is not among them, so support may hold i itself.
                ancestors = set()
                stack = list(pred[i])
                while stack:
                    u = stack.pop()
                    if u not in ancestors:
                        ancestors.add(u)
                        stack.extend(pred[u])
            if ancestors and not ancestors.isdisjoint(support):
                continue  # some other row of c already reaches row i: loop; c stays free
            pairs.append((i, c))
            used_cols[c] = 1
            succ[i] = targets = [t for t in support if t != i]
            for t in targets:
                if pred[t]:
                    pred[t].append(i)
                else:
                    pred[t] = [i]
            break
    lambdas = _longest_path_lengths(succ, (r for r, _ in pairs))
    return DiscreteVectorField(tuple(pairs), {r: lambdas[r] for r, _ in pairs})


def _union_find_field(m: Gf2Matrix, columns: Sequence[Sequence[int]]) -> DiscreteVectorField:
    """rs_algorithm for a matrix whose columns hold at most two rows each.

    Accepting (i, c) with other row j adds the one edge i -> j, so every
    row has at most one successor, and following successors from any row
    ends at a row with none. Before row i is visited it has no successor,
    so a candidate (i, c) closes a cycle exactly when j's walk ends at i.
    A union-find over the rows answers that: the roots are the rows with
    no successor, find(j) is where j's walk ends, and accepting links i
    under find(j). A column of one row adds no edge and is always
    accepted. lambda(r) is then the length of r's walk, counted once per
    row along the successors (Tarjan, JACM 1975, for the near-linear
    union-find).
    """
    used_cols = bytearray(m.cols)
    parent = list(range(m.rows))  # the union-find forest over the rows
    succ = [-1] * m.rows  # row -> its one successor, or -1
    pairs: list[tuple[int, int]] = []
    for i, row in enumerate(_index_rows(m)):
        for c in row:
            if used_cols[c]:
                continue
            support = columns[c]  # the rows of c, i among them
            if len(support) == 2:
                j = support[0] if support[1] == i else support[1]
                root = j
                while parent[root] != root:  # find, halving the path
                    parent[root] = root = parent[parent[root]]
                if root == i:
                    continue  # j's walk ends at i: a loop; c stays free
                parent[i] = root
                succ[i] = j
            pairs.append((i, c))
            used_cols[c] = 1
            break
    depth = [-1] * m.rows  # a walk's length, once known
    for r, _ in pairs:
        walk = []
        v = r
        while v >= 0 and depth[v] < 0:
            walk.append(v)
            v = succ[v]
        d = -1 if v < 0 else depth[v]
        for u in reversed(walk):
            d += 1
            depth[u] = d
    return DiscreteVectorField(tuple(pairs), {r: depth[r] for r, _ in pairs})


def check_admissible(m: Gf2Matrix, vf: DiscreteVectorField) -> VerificationReport:
    """Re-derive every vector field property from scratch against the matrix.

    Checks: pairs hit 1-entries in range, no row or column reused, the
    relation graph the pairs induce on m is acyclic (topological sort, an
    independent witness from the construction's reachability test), and
    the lambda labels match longest-path lengths recomputed by DP over the
    topological order.
    """
    report = VerificationReport()
    in_range = all(0 <= r < m.rows and 0 <= c < m.cols for r, c in vf.pairs)
    report.add("pairs_in_range", in_range)
    report.add("pair_entries_one", in_range and all(m.get(r, c) == 1 for r, c in vf.pairs))
    report.add("rows_distinct", len({r for r, _ in vf.pairs}) == len(vf.pairs))
    report.add("cols_distinct", len({c for _, c in vf.pairs}) == len(vf.pairs))
    edges = _relation_edges(m, vf.pairs) if in_range else set()

    # Kahn's algorithm: the graph is acyclic iff every node gets scheduled.
    nodes = {n for e in edges for n in e}
    indeg = {n: 0 for n in nodes}
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
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
    # Two stable sorts, by row and then by lambda, give that order without
    # a key tuple per pair: 13 against 39 ms on a 192x192 image's 29k pairs.
    lambdas = vf.lambdas
    by_row = sorted(vf.pairs, key=itemgetter(0))
    ordered = tuple(sorted(by_row, key=lambda p: lambdas[p[0]], reverse=True))
    return DiscreteVectorField(ordered, dict(lambdas))


def format_dvf(vf: DiscreteVectorField, m: Gf2Matrix) -> str:
    """Textual dump of a field on m: one "r c lambda" line per pair in the
    sorted pairing order, then one "r -> r'" line per relation edge in
    (r, r') order."""
    lines = [
        f"{r} {c} {vf.lambdas[r]}"
        for r, c in sort_by_lambda(vf).pairs
    ]
    lines.extend(f"{a} -> {b}" for a, b in sorted(_relation_edges(m, vf.pairs)))
    return "\n".join(lines) + ("\n" if lines else "")
