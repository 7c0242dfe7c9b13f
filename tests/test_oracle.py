import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsp.model import EdgeInsert, InsertSequence, ProblemInstance, prepare_for_build
from incsp.offline import build_offline
from incsp.oracle import (
    _sandwich_violation,
    bellman_ford,
    dijkstra_exact,
    exact_rows,
    oracle_self_check,
    verify_offline,
    verify_online_run,
)
from incsp.workload import generate
from tests.conftest import INF, T1_ORACLE_ROWS, brute_edit_distance, exact_apsp_table, exact_distance_table


# -- exact solvers -----------------------------------------------------------------


def test_t1_table_frozen(t1_padded):
    assert exact_distance_table(t1_padded) == [list(r) for r in T1_ORACLE_ROWS]


def test_t1_columns_never_increase(t1_padded):
    rows = exact_distance_table(t1_padded)
    for v in range(t1_padded.n):
        for earlier, later in zip(rows, rows[1:]):
            assert later[v] <= earlier[v]


def test_padding_changes_nothing(t1):
    raw_rows = exact_distance_table(t1)
    padded = prepare_for_build(t1)
    padded_rows = exact_distance_table(padded)
    assert padded_rows[: len(raw_rows)] == raw_rows
    for row in padded_rows[len(raw_rows) :]:
        assert row == raw_rows[-1]


def test_solvers_agree_on_random_graphs():
    for seed in range(5):
        inst = generate(n=10, m=25, W=9, seed=seed, epsilon=1.0)
        edges = list(inst.sigma)
        for t in (0, 7, 25):
            assert dijkstra_exact(edges[:t], 10, 0) == bellman_ford(edges[:t], 10, 0)


def test_self_check_runs_clean(t1_padded):
    assert oracle_self_check(t1_padded)
    assert oracle_self_check(t1_padded, stride=4)


def test_apsp_table_diagonal_and_shape(t1_padded):
    tables = exact_apsp_table(t1_padded)
    assert len(tables) == t1_padded.m + 1
    for t in range(t1_padded.m + 1):
        for i in range(t1_padded.n):
            assert tables[t][i][i] == 0
    assert tables[4][0] == [0, 1, 3]
    assert tables[4][1] == [INF, 0, 2]


@st.composite
def _instances(draw):
    """Small timelines with parallel edges, self-loops and, often, vertices
    nothing reaches."""
    n = draw(st.integers(1, 8))
    W = draw(st.integers(1, 5))
    m = draw(st.integers(0, 48))
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, W))
    sigma = [EdgeInsert(i, *draw(triples)) for i in range(m)]
    return ProblemInstance(n=n, W=W, epsilon=1.0, source=draw(st.integers(0, n - 1)), sigma=InsertSequence(sigma))


@settings(max_examples=40, deadline=None)
@given(_instances())
def test_streaming_rows_match_both_solvers_at_every_prefix(inst):
    edges, n, source = list(inst.sigma), inst.n, inst.source
    rows = list(exact_rows(inst))
    assert len(rows) == inst.m + 1
    for t, row in enumerate(rows):
        assert row == dijkstra_exact(edges[:t], n, source) == bellman_ford(edges[:t], n, source)


def test_apsp_table_matches_dijkstra_from_every_source():
    padded = prepare_for_build(generate(n=7, m=24, W=5, seed=4, epsilon=1.0))
    edges = list(padded.sigma)
    tables = exact_apsp_table(padded)
    assert len(tables) == padded.m + 1
    for t, table in enumerate(tables):
        assert table == [dijkstra_exact(edges[:t], padded.n, s) for s in range(padded.n)]


# -- brute edit distance ------------------------------------------------------------


def test_brute_edit_examples(t1_padded, t1_permuted):
    assert brute_edit_distance(t1_padded.sigma, t1_permuted) == 2
    a = [EdgeInsert(i, 0, 0, 1) for i in range(3)]
    b = [EdgeInsert(i, 0, 0, 1) for i in range(10, 13)]
    assert brute_edit_distance(a, b) == 6
    assert brute_edit_distance(a, a) == 0
    assert brute_edit_distance(a, []) == 3


# -- sandwich checks ----------------------------------------------------------------


def test_sandwich_accepts_the_band():
    assert _sandwich_violation(10, 10, 0.5) is None
    assert _sandwich_violation(10, 15, 0.5) is None
    assert _sandwich_violation(INF, INF, 0.5) is None


def test_sandwich_rejects_each_failure_mode():
    assert "below" in _sandwich_violation(10, 9, 0.5)
    assert "above" in _sandwich_violation(10, 15.1, 0.5)
    assert "unreachable" in _sandwich_violation(10, INF, 0.5)
    assert "finite" in _sandwich_violation(INF, 10, 0.5)


def test_verify_offline_clean_and_dirty(t1_padded):
    structure = build_offline(t1_padded)
    rows = exact_distance_table(t1_padded)
    assert verify_offline(structure, rows, t1_padded.epsilon) == []
    # shrink one exact value so the honest answer now looks too high
    rows[4][2] = 1
    found = verify_offline(structure, rows, t1_padded.epsilon)
    assert found and all(v["kind"] == "query" for v in found)
    assert {(v["v"], v["t"]) for v in found} == {(2, 4)}


def test_verify_offline_streams_the_same_as_the_table():
    padded = prepare_for_build(generate(n=9, m=40, W=6, seed=2, epsilon=0.5))
    structure = build_offline(padded)
    # a tiny epsilon makes the grid answers violate, so the lists are not empty
    streamed = verify_offline(structure, exact_rows(padded), 0.01)
    assert streamed and streamed == verify_offline(structure, exact_distance_table(padded), 0.01)


def test_verify_offline_rejects_a_wrong_row_count(t1_padded):
    structure = build_offline(t1_padded)
    rows = exact_distance_table(t1_padded)
    with pytest.raises(ValueError):
        verify_offline(structure, rows[:-1], t1_padded.epsilon)
    with pytest.raises(ValueError):
        verify_offline(structure, rows + [rows[-1]], t1_padded.epsilon)


# -- end-to-end online audits --------------------------------------------------------


def test_t1_online_audit(t1, t1_permuted):
    report = verify_online_run(t1, list(t1_permuted))
    assert report["ok"]
    assert report["violations"] == []
    assert report["nodes_rebuilt"] == 1
    assert report["worst_jumps"] == 1
    assert report["full_rebuilds"] == 0
    assert report["fresh_build_checked"]
    assert report["profile"].eta_max == 1
    # objective with the doubled cardinality term: tau=1 gives 1 + 2*0
    assert report["jump_budget"] == 1
    assert report["rebuild_budget"] == 2


def test_identity_online_audit(t1):
    report = verify_online_run(t1, None)
    assert report["ok"]
    assert report["nodes_rebuilt"] == 0
    assert report["worst_jumps"] == 0


def test_reversed_prediction_online_audit():
    inst = generate(n=10, m=32, W=8, seed=11, epsilon=0.5)
    padded = prepare_for_build(inst)
    pred = list(reversed(list(padded.sigma)))
    report = verify_online_run(inst, pred)
    assert report["ok"], report["violations"]
    assert report["worst_jumps"] <= report["jump_budget"]
    assert report["worst_rebuilds"] <= report["rebuild_budget"]
    assert report["nodes_rebuilt"] > 0


def test_audit_skips_fresh_check_above_limit():
    inst = generate(n=6, m=16, W=4, seed=3, epsilon=1.0)
    report = verify_online_run(inst, None, fresh_build_limit=8)
    assert report["ok"]
    assert not report["fresh_build_checked"]
