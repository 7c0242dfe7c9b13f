from dataclasses import replace
from itertools import accumulate

import pytest

from incsp.model import (
    UNREACHABLE, EdgeInsert, InsertSequence, ProblemInstance, align_prediction, parse_instance, prepare_for_build,
)
from incsp.offline import time_ancestors
from incsp.oracle import _sandwich_violation, exact_rows

# Worked micro-instance used across the suite: 3 vertices, 4 inserts,
# W=8, epsilon=1.0, source 0.  Exact distances per prefix are frozen in
# T1_ORACLE_ROWS (rows t=0..4, columns vertex 0..2).
T1_TEXT = """3 4 8 1.0 0
0 1 4
1 2 2
0 2 8
0 1 1
"""

# Three vertices, three edges, W=4: the instance the validation tests
# feed out-of-range vertices and weights to.
W4_TEXT = "3 3 4 1.0 0\n0 1 2\n1 2 3\n0 2 4\n"

INF = float("inf")

T1_ORACLE_ROWS = [
    [0, INF, INF],
    [0, 4, INF],
    [0, 4, 6],
    [0, 4, 6],
    [0, 1, 3],
]


def brute_edit_distance(sigma, sigma_hat) -> int:
    """Insert/delete-only edit distance by the classic DP; quadratic, for small inputs."""
    a, b = [e.edge_id for e in sigma], [e.edge_id for e in sigma_hat]
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def exact_distance_table(instance) -> list[list[float]]:
    """rows[t][v] = exact distance from the source in the first-t-edges graph."""
    return list(exact_rows(instance))


def estimate_at(structure, v: int, t: int) -> float:
    """The rounded estimate an OfflineStructure holds for v at time t.

    Resolved apart from the solver's estimate array: a vertex dead at the
    node owning t takes its value from its deepest alive ancestor, found by
    binary search since alive flags are monotone along the ancestor chain,
    or from the time-m anchor when no ancestor has it alive (the estimates
    at both timeline ends then agree).
    """
    if t == 0:
        return 0 if v == structure.source else UNREACHABLE
    if t == structure.m:
        return structure.base_m[v]
    est = structure.nodes[t].alive_estimates.get(v)
    if est is not None:
        return est
    chain = time_ancestors(t, structure.m)
    lo, hi = 0, len(chain)
    while lo < hi:
        mid = (lo + hi) // 2
        if v in structure.nodes[chain[mid]].alive_estimates:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return structure.base_m[v]
    return structure.nodes[chain[lo - 1]].alive_estimates[v]


def entry_rows(tree) -> list[list[int]]:
    """The entry rows a query-only build gives, computed from a tree-keeping build.

    Row v holds, coarsest cell first, the earliest time t at which
    estimate_at(tree, v, t) lies in each coarse cell or a lower one (m + 1
    when it never does), found by resolving every (v, t) on its own.
    """
    table, m = tree.table, tree.m
    rows = []
    for v in range(tree.n):
        first = [m + 1] * len(table.coarse)
        for t in range(m, -1, -1):  # latest first, so each cell ends with its earliest time
            est = estimate_at(tree, v, t)
            if est != UNREACHABLE:
                first[table.coarse_cell_of_value(est)] = t
        rows.append(list(accumulate(first, min))[::-1])
    return rows


def staircase(m: int, epsilon: float = 0.5) -> ProblemInstance:
    """A chain s -> x_K -> ... -> x_1, a path v_1 -> ... -> v_L, then x_1 -> v_1, ..., x_K -> v_1, in that order.

    Every weight is 1, L = 2K and K = (m + 1) // 4, so a power-of-two m
    holds m - 1 edges and pads to m.  Each cross edge lowers every path
    vertex by one, so exact distances change about K * L times.  Vertex 0
    is s, x_i is i and v_j is K + j.
    """
    k = (m + 1) // 4
    triples = [(0, k, 1)] + [(i, i - 1, 1) for i in range(k, 1, -1)]
    triples += [(k + j, k + j + 1, 1) for j in range(1, 2 * k)]
    triples += [(i, k + 1, 1) for i in range(1, k + 1)]
    edges = [EdgeInsert(eid, *triple) for eid, triple in enumerate(triples)]
    return ProblemInstance(n=1 + 3 * k, W=1, epsilon=epsilon, source=0, sigma=InsertSequence(edges))


def exact_apsp_table(instance) -> list[list[list[float]]]:
    """rows[t][s][v] = exact distance from s in the first-t-edges graph."""
    return [list(per_source) for per_source in zip(*(exact_rows(replace(instance, source=s)) for s in range(instance.n)))]


def verify_apsp_offline(structure, rows: list[list[list[float]]], epsilon: float) -> list[dict]:
    """Check every (i, j, t) against the exact all-pairs table."""
    violations = []
    for t in range(structure.m + 1):
        for i in range(structure.n):
            row = rows[t][i]
            for j in range(structure.n):
                answer = structure.query(i, j, t)
                problem = _sandwich_violation(row[j], answer, epsilon)
                if problem:
                    violations.append(
                        {
                            "kind": "apsp",
                            "i": i,
                            "j": j,
                            "t": t,
                            "exact": row[j],
                            "answer": answer,
                            "problem": problem,
                        }
                    )
    return violations


def assert_alive_sets_nested(structure):
    """Every internal node's alive vertices are alive at its parent too.

    The solver's estimate array relies on this: a vertex dead at a node's
    end is dead below it, so its deepest alive ancestor is well defined.
    """
    m = structure.m
    for mid in range(1, m):
        chain = time_ancestors(mid, m)
        if chain:
            parent = structure.nodes[chain[-1]]
            assert structure.nodes[mid].alive_estimates.keys() <= parent.alive_estimates.keys(), mid


@pytest.fixture
def t1():
    return parse_instance(T1_TEXT)


@pytest.fixture
def t1_padded(t1):
    return prepare_for_build(t1)


@pytest.fixture
def t1_edges(t1_padded):
    return list(t1_padded.sigma)


@pytest.fixture
def t1_permuted(t1_padded, t1_edges):
    """The swapped prediction [e2, e1, e3, e4], aligned and padded."""
    e = t1_edges
    return align_prediction([e[1], e[0], e[2], e[3]], t1_padded)


@pytest.fixture
def write_instance(tmp_path):
    def _write(text, name="inst.edges"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write
