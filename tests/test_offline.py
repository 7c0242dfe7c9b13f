import gc
import math
import os
import threading
import tracemalloc
from bisect import bisect_left, bisect_right
from concurrent.futures.process import BrokenProcessPool
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incsp.forkpool
import incsp.offline
from incsp.apsp import build_apsp
from incsp.bucketing import derive_internal_epsilon
from incsp.model import UNREACHABLE, parse_instance, prepare_for_build
from incsp.offline import (
    OfflineStructure,
    SolveCounters,
    _InputDiff,
    _children_stale,
    _moved_keys,
    build_offline,
    dijkstra,
    search_steps,
    structures_equal,
    time_ancestors,
    tree_level,
)
from incsp.online import start_online
from incsp.oracle import verify_offline
from incsp.workload import PerturbationSpec, generate, perturb
from tests.conftest import (
    T1_ORACLE_ROWS, assert_alive_sets_nested, entry_rows, estimate_at, exact_distance_table, staircase,
)


# -- tree navigation ----------------------------------------------------------


def test_tree_level():
    assert tree_level(4, 8) == 1
    assert tree_level(2, 8) == 2
    assert tree_level(6, 8) == 2
    assert tree_level(1, 8) == 3
    assert tree_level(7, 8) == 3


def test_time_ancestors_examples():
    assert time_ancestors(3, 8) == [4, 2]
    assert time_ancestors(4, 8) == []
    assert time_ancestors(6, 8) == [4]
    assert time_ancestors(1, 8) == [4, 2]


def test_time_ancestors_are_nested_strict_ancestors():
    m = 16
    for t in range(1, m):
        chain = time_ancestors(t, m)
        spans = [x & -x for x in chain]
        # root-first: strictly shrinking subtrees, each containing t
        assert spans == sorted(spans, reverse=True)
        for x, span in zip(chain, spans):
            assert x != t
            assert x - span <= t <= x + span
        own = t & -t
        assert all(s > own for s in spans)


# -- the worked micro-instance -------------------------------------------------


@pytest.fixture
def t1_structure(t1_padded):
    return build_offline(t1_padded)


@pytest.fixture
def t1_tree(t1_padded):
    return build_offline(t1_padded, with_entry_times=False)


def test_t1_builds_three_nodes(t1_tree):
    s = t1_tree
    populated = [mid for mid in range(s.m) if s.nodes[mid] is not None]
    assert populated == [1, 2, 3]


def test_t1_root_alive_set(t1_tree):
    # both non-source vertices flip unreachable -> finite across [0, 4]
    root = t1_tree.nodes[2]
    span = root.mid & -root.mid
    assert (root.mid - span, root.mid + span, tree_level(root.mid, t1_tree.m)) == (0, 4, 1)
    assert set(root.alive_estimates) == {1, 2}


def test_t1_base_is_exact(t1_tree):
    assert t1_tree.base_m == [0, 1, 3]
    assert all(isinstance(v, int) for v in t1_tree.base_m)


def test_t1_root_estimates_sandwich(t1_tree):
    root = t1_tree.nodes[2]
    delta = t1_tree.table.delta
    assert 4 <= root.alive_estimates[1] <= 4 * (1 + delta)
    assert 6 <= root.alive_estimates[2] <= 6 * (1 + delta)


def test_t1_query_source(t1_structure):
    for t in range(5):
        assert t1_structure.query(0, t) == 0.0


def test_t1_query_unreachable_early(t1_structure):
    assert t1_structure.query(2, 0) == UNREACHABLE
    assert t1_structure.query(2, 1) == UNREACHABLE


def test_t1_query_final_values(t1_structure):
    assert 3 <= t1_structure.query(2, 4) <= 3 * 2
    assert 1 <= t1_structure.query(1, 4) <= 1 * 2
    assert 6 <= t1_structure.query(2, 2) <= 6 * 2


def test_t1_entry_times_for_late_vertex(t1_structure):
    # vertex 2 first becomes reachable at t=2; its defined cells all say 2
    # until the final drop at t=4
    assert t1_structure.query(2, 2) == t1_structure.query(2, 3)


def test_query_validates_arguments(t1_structure, t1_padded):
    s = t1_structure
    cases = [(v, t, "vertex id out of range") for v in (-1, s.n) for t in (-1, 0, s.m + 1)]
    # the source too: its answer of 0 comes after the range check
    cases += [(v, t, "time out of range") for v in (s.source, 1) for t in (-1, s.m + 1)]
    for v, t, message in cases:
        for query in (s.query, s.query_with_cost):
            with pytest.raises(ValueError, match=message):
                query(v, t)
    bare = build_offline(t1_padded, with_entry_times=False)
    for v, t in [(1, 2), (bare.source, 0), (-1, 0), (bare.n, 0), (0, -1), (0, bare.m + 1)]:
        for query in (bare.query, bare.query_with_cost):
            with pytest.raises(ValueError, match="structure was built without query tables"):
                query(v, t)


def test_query_requires_entry_times(t1_padded):
    bare = build_offline(t1_padded, with_entry_times=False)
    with pytest.raises(ValueError):
        bare.query(1, 2)
    # estimates still resolvable without the query tables
    assert estimate_at(bare, 1, 4) == 1


def test_t1_verify_offline_clean(t1_structure, t1_padded):
    rows = exact_distance_table(t1_padded)
    assert rows == T1_ORACLE_ROWS
    assert verify_offline(t1_structure, rows, t1_padded.epsilon) == []


def test_corrupted_entry_table_is_detected(t1_padded):
    structure = build_offline(t1_padded)
    rows = exact_distance_table(t1_padded)
    # claim vertex 2 reached its final bucket at time 0
    cell = structure.table.coarse_cell_of_value(structure.query(2, 4))
    row = structure.entry_times[2]  # coarsest cell first
    top = len(row) - 1
    row[: top - cell + 1] = [0] * (top - cell + 1)  # floored: every coarser cell too
    violations = verify_offline(structure, rows, t1_padded.epsilon)
    assert violations
    assert all(v["v"] == 2 for v in violations)
    assert any(v["t"] < 2 for v in violations)


# -- smallest tree -------------------------------------------------------------


def test_m2_single_node():
    inst = prepare_for_build(parse_instance("2 1 4 1.0 0\n0 1 2\n"))
    assert inst.m == 2
    tree, s = build_offline(inst, with_entry_times=False), build_offline(inst)
    assert [mid for mid in range(tree.m) if tree.nodes[mid] is not None] == [1]
    assert 2 <= s.query(1, 1) <= 4
    assert s.query(1, 0) == UNREACHABLE


def test_never_reachable_vertex_is_never_alive():
    inst = prepare_for_build(parse_instance("3 2 8 1.0 0\n0 1 3\n1 0 2\n"))
    tree = build_offline(inst, with_entry_times=False)
    for mid in range(1, tree.m):
        assert 2 not in tree.nodes[mid].alive_estimates
    assert build_offline(inst).query(2, tree.m) == UNREACHABLE


# -- structural invariants on random instances ---------------------------------


@pytest.fixture(scope="module")
def random_case():
    """The padded instance, its tree-keeping build and its exact rows."""
    inst = generate(n=12, m=64, W=10, seed=42, epsilon=0.5)
    padded = prepare_for_build(inst)
    return padded, build_offline(padded, with_entry_times=False), exact_distance_table(padded)


@pytest.fixture(scope="module")
def random_query(random_case):
    """The random_case instance's query-only build."""
    return build_offline(random_case[0])


def test_alive_edges_are_subsets_of_hi_side(random_case):
    padded, s, _ = random_case
    heads = {e.edge_id: e.head for e in padded.sigma}
    for mid in range(1, s.m):
        node = s.nodes[mid]
        hi = node.mid + (node.mid & -node.mid)
        if hi == s.m:
            reference = set(padded.sigma.ids())
        else:
            reference = set(s.alive_edges(s.nodes[hi]))
        assert set(s.alive_edges(node)) <= reference
        # every alive vertex is the head of an edge alive at the hi side
        hi_heads = {heads[eid] for eid in reference}
        assert set(node.alive_estimates) <= hi_heads


def _assert_alive_edges_are_brute_force(s, sigma):
    """Every node's derived alive edges are the edges among the first mid of sigma whose head it holds alive."""
    for mid in range(1, s.m):
        node = s.nodes[mid]
        derived = s.alive_edges(node)
        assert len(derived) == len(set(derived))
        assert set(derived) == {e.edge_id for e in sigma[:mid] if e.head in node.alive_estimates}


@pytest.mark.parametrize("kind, kwargs", [(None, {}), ("window_shuffle", {"k": 8}), ("relocate", {"p": 0.05}),
                                          ("replace", {"p": 0.05})])
def test_derived_alive_edges_equal_brute_force(kind, kwargs):
    # On a build, and on the tree an online replay leaves once flushed,
    # whose timeline the corrections have rewritten.
    inst = generate(n=16, m=128, W=8, seed=9, epsilon=0.5)
    padded = prepare_for_build(inst)
    if kind is None:
        _assert_alive_edges_are_brute_force(build_offline(padded, with_entry_times=False), padded.sigma.edges)
        return
    engine = start_online(inst, perturb(inst, PerturbationSpec(kind=kind, seed=9, **kwargs)))
    for edge in engine.instance.sigma:
        engine.insert(edge)
    engine.flush()
    assert engine.counters.sink.nodes_solved
    _assert_alive_edges_are_brute_force(engine.structure, engine.instance.sigma.edges)


def test_alive_sets_nested_along_parents(random_case):
    _, s, _ = random_case
    assert_alive_sets_nested(s)
    wide = build_offline(prepare_for_build(generate(n=40, m=512, W=16, seed=8, epsilon=0.2)), with_entry_times=False)
    assert_alive_sets_nested(wide)


def test_alive_edges_arrive_by_midpoint(random_case):
    padded, s, _ = random_case
    for mid in range(1, s.m):
        for eid in s.alive_edges(s.nodes[mid]):
            assert padded.sigma.position_of(eid) <= mid


def test_estimates_constant_over_dead_spans(random_case):
    _, s, _ = random_case
    for t in range(1, s.m):
        for v in range(s.n):
            if v not in s.nodes[t].alive_estimates:
                assert estimate_at(s, v, t) == estimate_at(s, v, t - 1)


def test_settle_chain_tracks_estimates_at_any_time_order(random_case):
    padded, _, _ = random_case
    s = build_offline(padded, with_entry_times=False)
    sink = SolveCounters(s.n, s.m)
    times = [5, 6, 1, 63, 32, 33, 2, 64, 17, 16, 48, 7]
    before = list(s.base_m)
    for t in times:
        touched, top = s.settle_chain(t, sink)
        assert top is None and sink.nodes_solved == 0
        assert s.est_t == [estimate_at(s, v, t) for v in range(s.n)]
        assert {v for v in range(s.n) if s.est_t[v] != before[v]} <= set(touched)
        before = list(s.est_t)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flush_of_every_node_scans_what_the_build_scanned(seed, monkeypatch):
    # A flush that re-solves every node repeats the build: each node tests
    # the same end map and reads the same alive edges from the timeline's
    # in-edge index.  Every node gets an empty diff and fails the keep test.
    padded = prepare_for_build(generate(n=40, m=256, W=10, seed=seed, epsilon=0.5))
    s = build_offline(padded, with_entry_times=False)
    m = s.m
    monkeypatch.setattr(OfflineStructure, "_node_kept", lambda *args: False)
    s.pending.update({mid: _InputDiff(set(), set(), {}, {}) for mid in range(1, m)})
    sink = SolveCounters(s.n, m)
    s.flush(sink)
    assert sink.nodes_solved == m - 1
    assert sink.scan_work == s.stats.scan_work
    assert sink.alive_edges_per_node == s.stats.alive_edges_per_node
    assert structures_equal(s, build_offline(padded, with_entry_times=False))


def test_build_leaves_no_repair_state(t1_padded):
    # recompute_base runs before the tree exists, so it leaves no root diff.
    for inst in (t1_padded, prepare_for_build(generate(n=12, m=64, W=10, seed=42, epsilon=0.5))):
        s = build_offline(inst, with_entry_times=False)
        assert not s.pending
        assert not s._base_moved


def _children_stale_reference(stale, above, new, old, moved):
    """The stale map below a node as first written: every vertex of new or old is examined."""
    if not moved:
        if stale.keys().isdisjoint(new):
            return stale
        return {v: before for v, before in stale.items() if v not in new}
    out = {v: before for v, before in stale.items() if v not in new and v not in old}
    for v in new.keys() | old.keys():
        before = old[v] if v in old else stale.get(v, above[v])
        if before != (new[v] if v in new else above[v]):
            out[v] = before
    return out


_VALUES = st.sampled_from([1, 2, 3, UNREACHABLE])
_ESTIMATE_MAPS = st.dictionaries(st.integers(0, 5), _VALUES, max_size=6)


@settings(max_examples=300, deadline=None)
@given(stale=_ESTIMATE_MAPS, above=st.lists(_VALUES, min_size=6, max_size=6), new=_ESTIMATE_MAPS, old=_ESTIMATE_MAPS)
@example(stale={0: 1}, above=[2] * 6, new={0: 3}, old={0: 3})
def test_children_stale_matches_the_full_scan(stale, above, new, old):
    # Only the moved vertices are examined: one alive before and after at
    # the same estimate hands that value down unchanged.
    moved = _moved_keys(new, old)
    assert _children_stale(stale, above, new, old, moved) == _children_stale_reference(stale, above, new, old, moved)


def test_node_estimates_sandwich_by_level(random_case):
    _, s, rows = random_case
    delta = s.table.delta
    for t in range(1, s.m):
        node = s.nodes[t]
        band = (1 + delta) ** tree_level(node.mid, s.m) * (1 + 1e-9)
        for v, est in node.alive_estimates.items():
            exact = rows[t][v]
            if est == UNREACHABLE or exact == UNREACHABLE:
                assert est == exact
            else:
                assert exact <= est <= exact * band


def test_resolved_estimates_sandwich_everywhere(random_case):
    padded, s, rows = random_case
    log_m = s.m.bit_length() - 1
    band = (1 + s.table.delta) ** log_m * (1 + 1e-9)
    for t in range(s.m + 1):
        for v in range(s.n):
            est = estimate_at(s, v, t)
            exact = rows[t][v]
            if est == UNREACHABLE or exact == UNREACHABLE:
                assert est == exact
            else:
                assert exact <= est <= exact * band


def test_entry_rows_non_decreasing(random_query):
    for row in random_query.entry_times:
        for i in range(1, len(row)):
            assert row[i] >= row[i - 1]


def test_query_only_rows_equal_the_rows_of_the_tree(random_case, random_query):
    # The folded witness cells against every (v, t) resolved on a kept tree.
    _, tree, _ = random_case
    assert random_query.entry_times == entry_rows(tree)
    assert vars(random_query.stats) == vars(tree.stats)
    assert not hasattr(random_query, "nodes")


def test_query_sandwich_random(random_case, random_query):
    padded, _, rows = random_case
    assert verify_offline(random_query, rows, padded.epsilon) == []


def test_query_cost_bound(random_query):
    s = random_query
    k_coarse = s.table.k_coarse
    bound = 2 * math.ceil(math.log2(k_coarse + 1)) + 4
    worst = 0
    for v in range(s.n):
        for t in range(s.m + 1):
            _, cost = s.query_with_cost(v, t)
            worst = max(worst, cost)
    assert worst <= bound


# (12, 64, 42) is the random_case instance.
@pytest.mark.parametrize("n, m, seed", [(12, 64, 42), (20, 16, 5), (9, 128, 13)])
def test_bisect_query_matches_counted_query(n, m, seed):
    padded = prepare_for_build(generate(n=n, m=m, W=10, seed=seed, epsilon=0.5))
    s = build_offline(padded)
    bound = 2 * math.ceil(math.log2(s.table.k_coarse + 1)) + 4
    unreachable = 0
    for v in range(s.n):
        for t in range(s.m + 1):
            got = s.query(v, t)
            counted, cost = s.query_with_cost(v, t)
            assert repr(got) == repr(counted)
            assert cost <= bound
            unreachable += got == UNREACHABLE
    assert s.query(s.source, 0) == s.query(s.source, s.m) == 0.0
    # t = 0 leaves every vertex but the source unreachable; the n=20, m=16
    # build also leaves 16 of its vertices unreachable at t = m
    assert unreachable >= s.n - 1
    for v, t, message in [(-1, 0, "vertex id"), (s.n, 0, "vertex id"), (0, -1, "time"), (0, s.m + 1, "time")]:
        for query in (s.query, s.query_with_cost):
            with pytest.raises(ValueError, match=message):
                query(v, t)


def _counted_insertion_search(positions, p):
    """The insertion point search OnlineApsp.insert once ran by hand: (index, comparisons)."""
    lo, hi, comparisons = 0, len(positions), 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if positions[mid] < p:
            lo = mid + 1
        else:
            hi = mid
    return lo, comparisons


def _counted_row_search(row, t):
    """The finest-cell-first row search query_with_cost once ran by hand: (index, comparisons)."""
    top = len(row) - 1
    lo, hi, comparisons = 0, len(row), 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if row[top - mid] <= t:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 70), gaps=st.lists(st.integers(0, 3), min_size=70, max_size=70))
@example(length=0, gaps=[0] * 70)
@example(length=70, gaps=[0, 1] * 35)
def test_search_steps_counts_what_the_hand_rolled_searches_counted(length, gaps):
    # ascending positions that a new arrival never equals, and a non-decreasing row with repeats
    positions = list(accumulate(2 * g + 2 for g in gaps[:length]))
    row = list(accumulate(gaps[:length]))
    for i in range(length + 1):
        p = positions[i] - 1 if i < length else (positions[-1] if positions else 0) + 1
        index, comparisons = _counted_insertion_search(positions, p)
        assert index == i == bisect_left(positions, p)
        assert search_steps(length, i) == comparisons
    found = set()
    for t in range(-1, (row[-1] if row else 0) + 2):
        index, comparisons = _counted_row_search(row, t)
        assert index == length - bisect_right(row, t)
        assert search_steps(length, index) == comparisons
        found.add(index)
    assert {0, length} <= found


def test_tight_epsilon_random_instance():
    inst = generate(n=30, m=128, W=8, seed=11, epsilon=0.01)
    padded = prepare_for_build(inst)
    s = build_offline(padded)
    rows = exact_distance_table(padded)
    assert verify_offline(s, rows, padded.epsilon) == []


def test_builds_are_reproducible(random_case, random_query):
    padded, s, _ = random_case
    assert structures_equal(s, build_offline(padded, with_entry_times=False))
    assert random_query.entry_times == build_offline(padded).entry_times


def test_structures_equal_detects_difference(t1_padded):
    a = build_offline(t1_padded, with_entry_times=False)
    b = build_offline(t1_padded, with_entry_times=False)
    b.nodes[2].alive_estimates[1] = 999.0
    assert not structures_equal(a, b)


def test_alive_counts_match_stats(random_case):
    _, s, _ = random_case
    per_vertex = [0] * s.n
    total = 0
    for mid in range(1, s.m):
        node = s.nodes[mid]
        total += len(s.alive_edges(node))
        for v in node.alive_estimates:
            per_vertex[v] += 1
    assert total == s.stats.total_alive_edges
    assert per_vertex == s.stats.alive_nodes_per_vertex


def _traced_mib(build) -> tuple[float, float]:
    """MiB still allocated by what build() returns, and the peak while it ran, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return (held - before) / 2**20, (peak - before) / 2**20


def test_query_only_build_peaks_at_a_fraction_of_the_tree():
    # A query-only build holds one root-to-leaf path of nodes plus the
    # cells.  Staircase m=1024 (n=769), sequential, Python 3.11: the tree
    # build holds 4.31 MiB, and the query-only build peaks at 1.20 MiB
    # (0.28 of it) and holds 0.55 MiB of rows.
    padded = prepare_for_build(staircase(1024))
    assert padded.sigma.columns  # built once per timeline, before either measurement
    tree_held, _ = _traced_mib(lambda: build_offline(padded, with_entry_times=False))
    _, query_peak = _traced_mib(lambda: build_offline(padded))
    assert query_peak <= tree_held / 3


def test_work_bound_on_random_instance(random_case):
    padded, s, _ = random_case
    log_m = s.m.bit_length() - 1
    cap = (log_m + 1) * (s.table.k_fine_nominal + 2)
    assert max(s.stats.alive_nodes_per_vertex) <= cap
    assert s.stats.total_alive_edges <= s.m * cap


def test_shared_table_must_match(t1_padded):
    other = generate(n=5, m=8, W=4, seed=0)
    table = build_offline(prepare_for_build(other)).table
    with pytest.raises(ValueError):
        build_offline(t1_padded, table=table)


def test_internal_epsilon_used(t1_structure, t1_padded):
    assert t1_structure.table.epsilon_internal == derive_internal_epsilon(
        t1_padded.epsilon
    )


# -- the engine Dijkstra ----------------------------------------------------------

_weights = st.one_of(st.integers(0, 5), st.floats(0, 5, allow_nan=False, allow_infinity=False))


_labels = st.one_of(_weights, st.just(UNREACHABLE))


@settings(max_examples=150, deadline=None)
@example((3, [(0, 1, 0.0), (1, 0, 2)], {0: 0}, [UNREACHABLE] * 3, UNREACHABLE))  # unreachable target
@example((2, [(0, 1, 1)], {}, [0, 0], 4))  # no seeds: the bound is the answer
@example((2, [(1, 0, 0.0)], {1: 3}, [2, 2], UNREACHABLE))  # equal labels, int and float: the first settled wins
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _weights), max_size=20),
    st.dictionaries(st.integers(0, n - 1), _weights, max_size=n),
    st.lists(_labels, min_size=n, max_size=n),
    _labels,
)))
def test_dijkstra_seeds_and_last_hop_match_a_synthetic_source_and_target(case):
    # int, float and zero weights; empty seeds, unreachable targets and finite bounds included
    n, edges, seeds, hops, bound = case
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    # Vertex n is a synthetic source with an edge to each seed and one of
    # weight bound to n + 1, the target each u reaches by an edge of weight
    # hops[u] (an infinite weight relaxes nothing).
    source, target = n, n + 1
    synthetic = [row + [(target, h)] for row, h in zip(adj, hops)] + [[*seeds.items(), (target, bound)], []]
    full = dijkstra(synthetic, {source: 0})
    seeded = dijkstra(adj, seeds)
    assert {v: repr(d) for v, d in seeded.items()} == {v: repr(d) for v, d in full.items() if v < n}
    got = dijkstra(adj, seeds, bound, hops.__getitem__)
    assert repr(got) == repr(full.get(target, UNREACHABLE))
    assert got == min([bound, *(seeded[u] + hops[u] for u in seeded)])


# -- the build in two processes ------------------------------------------------


def _forced_parallel(monkeypatch, workers):
    """Build in halves from m = 4 on, with `workers` usable CPUs; returns a list of the m of every build in halves."""
    halves = []
    build = OfflineStructure._build_in_halves

    def counted(self, cells):
        halves.append(self.m)
        return build(self, cells)

    monkeypatch.setattr(incsp.offline, "PARALLEL_MIN_M", 4)
    monkeypatch.setattr(incsp.forkpool, "worker_count", lambda: workers)
    monkeypatch.setattr(OfflineStructure, "_build_in_halves", counted)
    return halves


def _sequential(padded, **kwargs):
    workers = incsp.forkpool.worker_count
    incsp.forkpool.worker_count = lambda: 1
    try:
        return build_offline(padded, **kwargs)
    finally:
        incsp.forkpool.worker_count = workers


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_build_in_halves_equals_the_sequential_build(monkeypatch, workers, seed):
    # Both builds: the query-only one, whose worker sends back only cells,
    # and the tree-keeping one, whose worker sends back its nodes.  n=30,
    # m=128: some right-half nodes hold a vertex alive at inf, which the
    # decode must map back to inf.
    padded = prepare_for_build(generate(n=30, m=128, W=8, seed=seed, epsilon=0.5))
    halves = _forced_parallel(monkeypatch, workers)
    tree, query = _sequential(padded, with_entry_times=False), _sequential(padded)
    assert not halves
    built = build_offline(padded)
    assert built.entry_times == query.entry_times == entry_rows(tree)
    assert vars(built.stats) == vars(query.stats) == vars(tree.stats)
    kept = build_offline(padded, with_entry_times=False)
    assert halves == ([padded.m] * 2 if workers > 1 else [])
    assert kept.entry_times is None
    right = range(padded.m // 2 + 1, padded.m)
    assert any(UNREACHABLE in kept.nodes[mid].alive_estimates.values() for mid in right)
    assert structures_equal(kept, tree)
    assert all(kept.alive_edges(kept.nodes[mid]) == tree.alive_edges(tree.nodes[mid]) for mid in range(1, padded.m))
    assert vars(kept.stats) == vars(tree.stats)


@pytest.mark.parametrize("kind, kwargs", [("replace", {"p": 0.05}), ("window_shuffle", {"k": 8})])
def test_online_replay_on_a_build_in_halves_matches_a_fresh_build(monkeypatch, kind, kwargs):
    inst = generate(n=20, m=128, W=8, seed=5, epsilon=0.5)
    pred = perturb(inst, PerturbationSpec(kind=kind, seed=5, **kwargs))
    sequential = start_online(inst, pred)
    halves = _forced_parallel(monkeypatch, 2)
    engine = start_online(inst, pred)
    assert halves == [engine.m]
    for edge in engine.instance.sigma:
        engine.insert(edge)
        sequential.insert(edge)
        assert repr(engine.D) == repr(sequential.D)
    assert engine.matches_fresh_build()


def test_no_build_apsp_share_builds_in_halves(monkeypatch):
    # With the threshold at 4 every per-source build is large enough, but
    # the caller's share runs while its pool is open and each worker's
    # inside it, so none may fork again.  A worker inherits the patch below,
    # and its exception would reach the caller.
    def nested(self, cells):
        raise AssertionError(f"a build_apsp share forked from pid {os.getpid()}")

    _forced_parallel(monkeypatch, 3)
    monkeypatch.setattr(OfflineStructure, "_build_in_halves", nested)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    apsp = build_apsp(generate(n=7, m=64, W=8, seed=3, epsilon=0.5))
    assert apsp.n == 7
    assert len(forks) == 2  # the pool's two workers, forked in the caller


@pytest.mark.parametrize("frozen_before", [False, True])
@pytest.mark.parametrize("enabled_before", [True, False])
def test_build_in_halves_leaves_the_gc_as_it_found_it(monkeypatch, frozen_before, enabled_before):
    padded = prepare_for_build(generate(n=12, m=64, W=8, seed=4, epsilon=0.5))
    halves = _forced_parallel(monkeypatch, 2)
    walk, during = OfflineStructure._walk, []
    monkeypatch.setattr(OfflineStructure, "_walk", lambda self, *a: during.append(gc.get_freeze_count()) or walk(self, *a))
    gc.collect()
    if frozen_before:
        gc.freeze()
    if not enabled_before:
        gc.disable()
    try:
        count = gc.get_freeze_count()
        query = build_offline(padded)
        assert (gc.get_freeze_count(), gc.isenabled()) == (count, enabled_before)
        tree = build_offline(padded, with_entry_times=False)
        assert (gc.get_freeze_count(), gc.isenabled()) == (count, enabled_before)
    finally:
        gc.enable()
        gc.unfreeze()
    assert halves == [padded.m] * 2
    # The caller walks its half only while the pool is open, and so frozen.
    assert during and all(c > 0 and (c == count or not frozen_before) for c in during)
    assert query.entry_times == _sequential(padded).entry_times
    assert structures_equal(tree, _sequential(padded, with_entry_times=False))


@pytest.mark.parametrize(
    ("where", "error", "match"),
    [("caller-half", ArithmeticError, "caller"), ("worker-half", ArithmeticError, "worker"),
     ("worker-dies", BrokenProcessPool, None)],
)
def test_failed_build_in_halves_leaves_no_child(monkeypatch, where, error, match):
    walk = OfflineStructure._walk

    def broken(self, lo, hi, *args):
        if hi - lo == self.m // 2:  # the walk of one half: [0, m / 2] in the caller, [m / 2, m] in the worker
            in_worker = lo > 0
            if where == ("worker-half" if in_worker else "caller-half"):
                raise ArithmeticError(f"the {'worker' if in_worker else 'caller'}'s half fails")
            if where == "worker-dies" and in_worker:
                os._exit(3)
        return walk(self, lo, hi, *args)

    _forced_parallel(monkeypatch, 2)
    monkeypatch.setattr(OfflineStructure, "_walk", broken)
    padded = prepare_for_build(generate(n=12, m=64, W=8, seed=4, epsilon=0.5))
    for with_entry_times in (True, False):
        with pytest.raises(error, match=match):
            build_offline(padded, with_entry_times=with_entry_times)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == 1
