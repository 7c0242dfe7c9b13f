import gc
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import incsp.apsp
import incsp.offline
from incsp.apsp import OnlineApsp, build_apsp
from incsp.bucketing import derive_internal_epsilon, make_table
from incsp.metrics import compute_profile
from incsp.model import UNREACHABLE, EdgeInsert, parse_instance, prepare_for_build
from incsp.offline import build_offline, dijkstra
from incsp.online import start_online
from incsp.oracle import dijkstra_exact
from incsp.workload import PerturbationSpec, generate, perturb
from tests.conftest import W4_TEXT, exact_apsp_table, verify_apsp_offline
from tests.test_online import _engine_state


# -- offline all-pairs -------------------------------------------------------------


def test_t1_offline_answers(t1):
    apsp = build_apsp(t1)
    assert apsp.n == 3
    assert apsp.m == 4
    # i to i is always zero, even at t = 0
    for i in range(3):
        for t in range(5):
            assert apsp.query(i, i, t) == 0.0
    # nothing else exists before the first insertion
    assert apsp.query(0, 1, 0) == UNREACHABLE
    assert apsp.query(1, 2, 0) == UNREACHABLE
    # after two insertions 1 -> 2 is the single edge of weight 2
    assert 2.0 <= apsp.query(1, 2, 2) <= 4.0
    # 2 has no outgoing edges at any time
    assert apsp.query(2, 0, 4) == UNREACHABLE


def test_t1_offline_verifies_clean(t1):
    padded = prepare_for_build(t1)
    rows = exact_apsp_table(padded)
    assert verify_apsp_offline(build_apsp(t1), rows, t1.epsilon) == []


def test_structures_share_one_table(t1):
    apsp = build_apsp(t1)
    assert all(s.table is apsp.table for s in apsp.per_source)


def test_offline_sandwich_random():
    inst = generate(n=12, m=32, W=8, seed=31, epsilon=0.5)
    padded = prepare_for_build(inst)
    apsp = build_apsp(inst)
    tables = exact_apsp_table(padded)
    for t in range(padded.m + 1):
        for i in range(padded.n):
            for j in range(padded.n):
                exact = tables[t][i][j]
                got = apsp.query(i, j, t)
                if exact == UNREACHABLE:
                    assert got == UNREACHABLE
                else:
                    assert exact <= got <= exact * (1 + padded.epsilon) * (1 + 1e-9)


def test_query_validates_source(t1):
    apsp = build_apsp(t1)
    with pytest.raises(ValueError, match="vertex id"):
        apsp.query(3, 0, 0)


def test_query_with_cost_stays_logarithmic(t1):
    apsp = build_apsp(t1)
    bound = 2 * max(1, (apsp.table.k_coarse + 1).bit_length()) + 4
    for i in range(3):
        for j in range(3):
            for t in range(5):
                value, comparisons = apsp.query_with_cost(i, j, t)
                assert value == apsp.query(i, j, t)
                assert comparisons <= bound


def test_build_apsp_keeps_no_tree(monkeypatch):
    # Each per-source tree built in the calling process must be garbage once
    # build_apsp returns: only its query tables are kept.  Trees a forked
    # worker builds die with it, so the caller sees only its own share's.
    refs = []

    def tracked(*args, **kwargs):
        structure = build_offline(*args, **kwargs)
        refs.append(weakref.ref(structure))
        return structure

    monkeypatch.setattr(incsp.apsp, "build_offline", tracked)
    inst = generate(n=30, m=256, W=16, seed=7, epsilon=0.5)
    for workers in (1, 3):
        monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: workers)
        refs.clear()
        apsp = build_apsp(inst)
        assert apsp.n == 30
        assert len(refs) == len(range(0, 30, workers))
        assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("workers", [1, 2, 3, 50])
@pytest.mark.parametrize("n", [7, 10])
def test_worker_shares_equal_per_source_builds(monkeypatch, n, workers):
    # However the sources are split, each one's entry rows and every
    # SolveCounters field equal its own build_offline's.
    monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: workers)
    inst = generate(n=n, m=64, W=8, seed=n, epsilon=0.5)
    apsp = build_apsp(inst)
    padded = prepare_for_build(inst)
    for s, q in enumerate(apsp.per_source):
        fresh = build_offline(replace(padded, source=s), table=apsp.table)
        assert (q.n, q.m, q.source, q.table) == (fresh.n, fresh.m, s, apsp.table)
        assert q.entry_times == fresh.entry_times
        assert vars(q.stats) == vars(fresh.stats)


def test_worker_rows_hold_no_more_than_in_process_rows(monkeypatch):
    inst = generate(n=30, m=256, W=16, seed=7, epsilon=0.5)
    # A first pool build loads the pool's modules and the timeline's lazily
    # built columns; neither measurement may count them.
    monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: 3)
    build_apsp(inst)
    monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: 1)
    in_process = _traced_bytes_held(lambda: build_apsp(inst))
    monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: 3)
    assert _traced_bytes_held(lambda: build_apsp(inst)) <= in_process


@pytest.mark.parametrize(
    ("failing", "how", "error", "match"),
    [(0, "raise", ArithmeticError, "source 0 fails"), (1, "raise", ArithmeticError, "source 1 fails"),
     (1, "exit", BrokenProcessPool, None)],
    ids=["caller-share", "worker-share", "worker-dies"],
)
def test_failed_build_leaves_no_child(monkeypatch, failing, how, error, match):
    # Source 0 is in the caller's share, source 1 in the first worker's.  A
    # pool thread left running would make _worker_count() return 1 and so
    # quietly serialise every later build.
    def broken(instance, **kwargs):
        if instance.source == failing:
            if how == "exit":
                os._exit(3)
            raise ArithmeticError(f"source {failing} fails")
        return build_offline(instance, **kwargs)

    monkeypatch.setattr(incsp.apsp, "build_offline", broken)
    monkeypatch.setattr(incsp.apsp, "_worker_count", lambda: 3)
    with pytest.raises(error, match=match):
        build_apsp(generate(n=8, m=32, W=8, seed=1, epsilon=0.5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == 1


def test_one_worker_build_loads_no_pool():
    # A fresh interpreter, since this one may have loaded the pool already.
    code = (
        "import sys, incsp, incsp.apsp\n"
        "incsp.apsp._worker_count = lambda: 1\n"
        "incsp.build_apsp(incsp.generate(n=6, m=16, W=8, seed=3, epsilon=0.5))\n"
        "sys.exit('concurrent.futures.process' in sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), check=True)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_one_worker_per_usable_cpu():
    assert incsp.apsp._worker_count() == len(os.sched_getaffinity(0))


def test_one_worker_while_another_thread_runs(monkeypatch):
    def no_fork():
        raise AssertionError("forked beside a running thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert incsp.apsp._worker_count() == 1
        assert build_apsp(generate(n=6, m=16, W=8, seed=3, epsilon=0.5)).n == 6
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _traced_bytes_held(build) -> int:
    """Bytes still allocated, under tracemalloc, by what build() returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return held


def test_build_apsp_holds_a_fraction_of_the_trees():
    # Measured at n=30, m=256: 0.62 MiB of query tables against 4.66 MiB
    # of per-source trees.
    inst = generate(n=30, m=256, W=16, seed=7, epsilon=0.5)

    def trees():
        padded = prepare_for_build(inst)
        table = make_table(derive_internal_epsilon(padded.epsilon), padded.m, padded.n, padded.W)
        return [build_offline(replace(padded, source=s), table=table) for s in range(padded.n)]

    assert 3 * _traced_bytes_held(lambda: build_apsp(inst)) <= _traced_bytes_held(trees)


def test_per_source_tables_keep_what_the_bench_reads():
    # bench/workloads.py counts every per-source entry's stats, m and table,
    # and under tracing shadows each entry's query on the instance.
    inst = generate(n=12, m=128, W=8, seed=19, epsilon=0.5)
    pred = perturb(inst, PerturbationSpec("window_shuffle", seed=5, k=8))
    online, plain = OnlineApsp(inst, pred), OnlineApsp(inst, pred)
    apsp = online.apsp
    timeline = replace(online.instance, sigma=online.prediction)
    for u, s in enumerate(apsp.per_source):
        fresh = build_offline(replace(timeline, source=u), table=apsp.table)
        assert s.table is apsp.table
        assert (s.m, s.table.k_fine, s.table.k_coarse) == (fresh.m, fresh.table.k_fine, fresh.table.k_coarse)
        for field in ("nodes_solved", "scan_work", "total_alive_edges", "alive_edges_per_node"):
            assert getattr(s.stats, field) == getattr(fresh.stats, field), field
    calls = [0]

    def counted(query):
        def wrapper(v, t):
            calls[0] += 1
            return query(v, t)

        return wrapper

    for s in apsp.per_source:
        s.query = counted(s.query)
    rng = random.Random(3)
    for edge in online.instance.sigma:
        online.insert(edge)
        plain.insert(edge)
        for _ in range(4):
            i, j = rng.randrange(online.n), rng.randrange(online.n)
            assert online.query(i, j) == plain.query(i, j)
    assert calls[0] > 0


# -- online arrival tracking --------------------------------------------------------


def _three_edge_instance():
    # a -> b -> c chain plus no padding surprises: m = 4 after padding
    sigma = [
        EdgeInsert(0, 0, 1, 2),  # a
        EdgeInsert(1, 1, 2, 3),  # b
        EdgeInsert(2, 0, 2, 9),  # c
    ]
    from incsp.model import InsertSequence, ProblemInstance

    return ProblemInstance(n=3, W=9, epsilon=1.0, source=0, sigma=InsertSequence(sigma))


def test_frontier_waits_for_the_predicted_head():
    inst = _three_edge_instance()
    padded = prepare_for_build(inst)
    pred = list(padded.sigma)  # predicted order: a b c pad
    online = OnlineApsp(inst, pred)
    a, b, c, pad = list(padded.sigma)

    online.insert(b)
    assert online.frontier == 0
    assert [e.edge_id for e in online.pending_edges()] == [b.edge_id]

    online.insert(a)
    assert online.frontier == 2
    assert online.pending_edges() == []

    online.insert(c)
    online.insert(pad)
    assert online.frontier == padded.m
    assert online.t == padded.m


def test_identity_arrivals_keep_pending_empty():
    inst = _three_edge_instance()
    padded = prepare_for_build(inst)
    online = OnlineApsp(inst, list(padded.sigma))
    for k, edge in enumerate(padded.sigma, start=1):
        online.insert(edge)
        assert online.frontier == k
        assert online.pending_edges() == []


def test_empty_patch_query_equals_frontier_answer():
    inst = _three_edge_instance()
    padded = prepare_for_build(inst)
    online = OnlineApsp(inst, list(padded.sigma))
    for edge in list(padded.sigma)[:2]:
        online.insert(edge)
    got = online.query(0, 2)
    assert got == online.apsp.query(0, 2, online.frontier)
    assert online.last_patch_vertices == 2


def test_self_query_short_circuits():
    inst = _three_edge_instance()
    online = OnlineApsp(inst, list(prepare_for_build(inst).sigma))
    assert online.query(1, 1) == 0.0
    assert online.last_patch_vertices == 1


def test_non_permutation_prediction_rejected():
    inst = _three_edge_instance()
    phantom = EdgeInsert(70, 2, 0, 1)
    pred = list(prepare_for_build(inst).sigma)
    pred[1] = phantom
    with pytest.raises(ValueError, match="not a permutation"):
        OnlineApsp(inst, pred)


@pytest.mark.parametrize(
    "tail, head, weight",
    [(0, 7, 2), (0, -1, 2), (0, 1, 0), (0, 1, 99)],
    ids=["head-out-of-range", "head-negative", "weight-0", "weight-above-W"],
)
def test_invalid_predicted_edge_rejected(tail, head, weight):
    # the bad edge keeps a true edge's id, so the permutation check passes
    inst = parse_instance(W4_TEXT)
    pred = list(prepare_for_build(inst).sigma)
    pred[0] = EdgeInsert(pred[0].edge_id, tail, head, weight)
    with pytest.raises(ValueError, match="out of range"):
        OnlineApsp(inst, pred)


def test_prediction_conflicting_with_a_true_edge_rejected():
    # a permutation of the true ids, but the true 0->1 (id 0) has weight 2
    inst = parse_instance(W4_TEXT)
    pred = list(prepare_for_build(inst).sigma)
    pred[0] = EdgeInsert(0, 0, 1, 3)
    with pytest.raises(ValueError, match="conflicts with the true edge"):
        OnlineApsp(inst, pred)


def test_online_insert_validation():
    inst = _three_edge_instance()
    padded = prepare_for_build(inst)
    online = OnlineApsp(inst, list(padded.sigma))
    edges = list(padded.sigma)
    online.insert(edges[0])
    with pytest.raises(ValueError, match="duplicate insertion"):
        online.insert(edges[0])
    with pytest.raises(ValueError, match="not part of the predicted"):
        online.insert(EdgeInsert(70, 2, 0, 1))
    for edge in edges[1:]:
        online.insert(edge)
    with pytest.raises(ValueError, match="more than m insertions"):
        online.insert(EdgeInsert(71, 2, 0, 1))


def _apsp_state(online):
    return (
        online.t,
        online.frontier,
        list(online._arrived_positions),
        list(online._arrived_flags),
        [e.edge_id for e in online.pending_edges()],
    )


@pytest.mark.parametrize(
    "tail, head, weight",
    [(0, 1, 0), (-1, 1, 2), (0, 1, 99), (0, 3 + 5, 2), (1, 0, 2)],
    ids=["weight-0", "tail-negative", "weight-above-W", "head-out-of-range", "conflict"],
)
def test_online_insert_rejects_bad_edge_without_mutation(tail, head, weight):
    # the bad edge reuses a predicted id, so only the description can reject it
    inst = _three_edge_instance()
    padded = prepare_for_build(inst)
    edges = list(padded.sigma)
    online = OnlineApsp(inst, list(padded.sigma))
    online.insert(edges[1])
    before = _apsp_state(online)
    with pytest.raises(ValueError):
        online.insert(EdgeInsert(edges[0].edge_id, tail, head, weight))
    assert _apsp_state(online) == before
    for edge in [edges[0]] + edges[2:]:
        online.insert(edge)
    assert online.frontier == online.m
    assert 5 <= online.query(0, 2) <= 5 * (1 + inst.epsilon)


_ONE_GATE_CASES = {  # the bad arrival, made from an edge not yet arrived, and the message both engines give
    "weight-0": (lambda e: EdgeInsert(e.edge_id, e.tail, e.head, 0), "weight out of range"),
    "head-out-of-range": (lambda e: EdgeInsert(e.edge_id, e.tail, 3, e.weight), "vertex id out of range"),
    "conflict": (lambda e: EdgeInsert(e.edge_id, e.tail, e.head, e.weight + 1), "conflicts with its predicted"),
    "one-past-m": (lambda e: EdgeInsert(70, 2, 0, 1), "more than m insertions"),
}


@pytest.mark.parametrize("case", list(_ONE_GATE_CASES))
def test_both_engines_reject_bad_edge_alike(case):
    # both engines take the same arrivals on the same prediction, then the same bad one
    inst = _three_edge_instance()
    edges = list(prepare_for_build(inst).sigma)
    engine = start_online(inst, edges)
    s = engine.structure
    online = OnlineApsp(inst, edges)
    for edge in edges if case == "one-past-m" else edges[:1]:
        engine.insert(edge)
        online.insert(edge)
    make, message = _ONE_GATE_CASES[case]
    bad = make(edges[1])
    before = (_engine_state(engine, s), _apsp_state(online), repr(online._graph), repr(online._at))
    messages = []
    for insert in (engine.insert, online.insert):
        with pytest.raises(ValueError, match=message) as rejected:
            insert(bad)
        messages.append(str(rejected.value))
    assert messages[0] == messages[1]
    assert (_engine_state(engine, s), _apsp_state(online), repr(online._graph), repr(online._at)) == before


def _rebuilt_patch_query(online, i, j):
    """The patched query rebuilt from scratch: (answer, patch vertex count)."""
    if i == j:
        return 0.0, 1
    verts = {i, j}
    direct = {}
    for e in online.pending_edges():
        verts.add(e.tail)
        verts.add(e.head)
        key = (e.tail, e.head)
        if e.weight < direct.get(key, UNREACHABLE):
            direct[key] = e.weight
    ordered = sorted(verts)
    adj = {u: [] for u in ordered}
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            w = online.apsp.per_source[u].query(v, online.frontier)
            dw = direct.get((u, v))
            if dw is not None and dw < w:
                w = dw
            if w != UNREACHABLE:
                adj[u].append((v, w))
    return dijkstra(adj, {i: 0}).get(j, UNREACHABLE), len(verts)  # unpruned: the full search


def _bad_arrivals(edge, n, W):
    # the five rejected kinds above, each reusing a not-yet-arrived predicted id
    eid, tail, head, weight = edge.edge_id, edge.tail, edge.head, edge.weight
    return [
        EdgeInsert(eid, tail, head, 0),
        EdgeInsert(eid, -1, head, weight),
        EdgeInsert(eid, tail, head, W + 1),
        EdgeInsert(eid, tail, n, weight),
        EdgeInsert(eid, tail, head, weight % W + 1),
    ]


_PATCH_FAMILIES = [pytest.param("window_shuffle", seed, id=str(seed)) for seed in range(4)] + [
    pytest.param("relocate", seed, id=f"relocate-{seed}") for seed in range(3)
]


@pytest.mark.parametrize("kind, seed", _PATCH_FAMILIES)
def test_cached_patch_queries_match_rebuilt_patch(kind, seed):
    inst = generate(n=10, m=64, W=8, seed=50 + seed, epsilon=0.5)
    padded = prepare_for_build(inst)
    kwargs = {"k": 6} if kind == "window_shuffle" else {"p": 0.1}
    online = OnlineApsp(inst, perturb(inst, PerturbationSpec(kind, seed=seed, **kwargs)))
    rng = random.Random(seed)
    arrivals = list(padded.sigma)
    seen = set()

    def check_queries():
        n = padded.n
        inside = sorted({v for e in online.pending_edges() for v in (e.tail, e.head)})
        outside = [v for v in range(n) if v not in inside]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
        pairs += [(rng.choice(a), rng.choice(b)) for a in (inside, outside) for b in (inside, outside) if a and b]
        pairs.append((rng.randrange(n),) * 2)
        for i, j in pairs + pairs:  # the repeats read the patch graph cached at this frontier
            got = online.query(i, j)
            assert (got, online.last_patch_vertices) == _rebuilt_patch_query(online, i, j)
            seen.add((i in inside, j in inside, i == j))

    stalled = 0  # arrivals that leave the frontier in place and update the cached patch graph
    for step, edge in enumerate(arrivals):
        if step % 3 == 0:
            check_queries()
        if step % 2:
            kinds = _bad_arrivals(arrivals[rng.randrange(step, len(arrivals))], padded.n, padded.W)
            bad = kinds[(step // 2) % len(kinds)]
            before = _apsp_state(online)
            with pytest.raises(ValueError):
                online.insert(bad)
            assert _apsp_state(online) == before
            check_queries()
        frontier = online.frontier
        online.insert(edge)
        stalled += online.frontier == frontier
        check_queries()
    assert online.frontier == online.m
    assert stalled >= 8
    assert {(True, True, False), (True, False, False), (False, True, False), (False, False, False)} <= seen
    assert {(True, True, True), (False, False, True)} & seen


def _assert_answers_at_frontier(online):
    """_at holds every per-source answer at the frontier, equal in value and in int/float type."""
    tables, f = online.apsp.per_source, online.frontier
    assert repr(online._at) == repr([[tables[x].query(v, f) for v in range(online.n)] for x in range(online.n)])


def test_answer_matrix_follows_the_frontier():
    # window_shuffle(8) stalls the frontier and then lets it jump several positions in one arrival
    inst = generate(n=10, m=64, W=8, seed=61, epsilon=0.5)
    padded = prepare_for_build(inst)
    online = OnlineApsp(inst, perturb(inst, PerturbationSpec("window_shuffle", seed=3, k=8)))
    rng = random.Random(3)
    arrivals = list(padded.sigma)
    _assert_answers_at_frontier(online)
    jumps = []
    for step, edge in enumerate(arrivals):
        bad = _bad_arrivals(arrivals[rng.randrange(step, len(arrivals))], padded.n, padded.W)
        with pytest.raises(ValueError):
            online.insert(rng.choice(bad))
        _assert_answers_at_frontier(online)
        frontier = online.frontier
        online.insert(edge)
        jumps.append(online.frontier - frontier)
        _assert_answers_at_frontier(online)
    assert online.frontier == online.m
    assert max(jumps) >= 4


# The patched queries' work on one fixed replay.  Both counts are exact for
# the seed, so the caps carry no timing noise; a change that does more work
# per query must raise them on purpose.
QUERY_LOOKUPS_CAP = 26_747  # per-source query calls
QUERY_PUSHES_CAP = 30_207  # Dijkstra heap pushes


def test_patched_query_work_is_capped(monkeypatch):
    # n=60 m=1024 window_shuffle(16) at seed 7, then 8 seeded query(i, j), i != j, after each arrival
    inst = generate(n=60, m=1024, W=16, seed=7, epsilon=0.5)
    online = OnlineApsp(inst, perturb(inst, PerturbationSpec("window_shuffle", seed=7, k=16)))
    counts = {"lookups": 0, "pushes": 0}

    def counted(name, call):
        def wrapper(*args):
            counts[name] += 1
            return call(*args)
        return wrapper

    for table in online.apsp.per_source:  # shadowed on the instance, as the bench does
        table.query = counted("lookups", table.query)
    monkeypatch.setattr(incsp.offline, "heappush", counted("pushes", incsp.offline.heappush))
    rng = random.Random(7)
    n = online.n
    for edge in list(online.instance.sigma):
        online.insert(edge)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n - 1)
            online.query(i, j + (j >= i))
    print(f"patched queries: {counts['lookups']} lookups, {counts['pushes']} heap pushes")
    assert counts["lookups"] <= QUERY_LOOKUPS_CAP
    assert counts["pushes"] <= QUERY_PUSHES_CAP


# -- online correctness and patch bounds ---------------------------------------------


def _replay_with_checks(inst, pred, sample=40, seed=7):
    padded = prepare_for_build(inst)
    tables = exact_apsp_table(padded)
    profile = compute_profile(padded.sigma, pred)
    online = OnlineApsp(inst, pred)
    rng = random.Random(seed)
    for t, edge in enumerate(padded.sigma, start=1):
        online.insert(edge)
        pending = online.pending_edges()
        assert len(pending) <= profile.eta_max
        for _ in range(sample):
            i = rng.randrange(padded.n)
            j = rng.randrange(padded.n)
            exact = tables[t][i][j]
            got = online.query(i, j)
            assert online.last_patch_vertices <= 2 * len(pending) + 2
            if exact == UNREACHABLE:
                assert got == UNREACHABLE
            else:
                assert exact <= got <= exact * (1 + padded.epsilon) * (1 + 1e-9)
    return online


def test_online_sandwich_under_window_shuffle():
    inst = generate(n=8, m=16, W=6, seed=41, epsilon=1.0)
    pred = perturb(inst, PerturbationSpec("window_shuffle", seed=2, k=4))
    _replay_with_checks(inst, pred)


def test_online_sandwich_under_identity():
    inst = generate(n=8, m=16, W=6, seed=43, epsilon=0.5)
    online = _replay_with_checks(inst, list(prepare_for_build(inst).sigma))
    assert online.frontier == online.m


def test_online_sandwich_under_reversal():
    # eta_max is m - 1 here, so the patch bound is loose but correctness must hold
    inst = generate(n=6, m=8, W=5, seed=47, epsilon=1.0)
    pred = list(reversed(list(prepare_for_build(inst).sigma)))
    _replay_with_checks(inst, pred, sample=20)


# -- arbitrary arrivals -------------------------------------------------------------


class ApspArrivals(RuleBasedStateMachine):
    """True arrivals in any order against a fully shuffled prediction.

    The prediction is a seeded shuffle of the padded timeline, so the
    frontier can stall at any position and the patch graph is rebuilt
    and extended in every order the arrivals allow.
    """

    W = 6

    @initialize(seed=st.integers(0, 10_000), n=st.integers(3, 8), m=st.integers(2, 32))
    def build(self, seed, n, m):
        inst = generate(n=n, m=m, W=self.W, seed=seed, epsilon=0.5)
        pred = list(prepare_for_build(inst).sigma)
        random.Random(seed).shuffle(pred)
        self.online = OnlineApsp(inst, pred)
        self.pending = list(self.online.instance.sigma)
        self.arrived = []
        self.next_id = 1 + max(e.edge_id for e in self.pending)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def arrive(self, data):
        edge = data.draw(st.sampled_from(self.pending))
        self.online.insert(edge)
        self.pending.remove(edge)
        self.arrived.append(edge)

    @rule(data=st.data())
    def rejected_arrival(self, data):
        online = self.online
        bad = [EdgeInsert(self.next_id, 0, 1, 1)]  # outside the prediction; at t = m, one arrival too many
        if self.arrived:
            bad.append(data.draw(st.sampled_from(self.arrived)))
        if self.pending:
            bad += _bad_arrivals(data.draw(st.sampled_from(self.pending)), online.n, online.instance.W)
        before = (_apsp_state(online), repr(online._graph))
        with pytest.raises(ValueError):
            online.insert(data.draw(st.sampled_from(bad)))
        assert (_apsp_state(online), repr(online._graph)) == before

    @rule(data=st.data())
    def query(self, data):
        online = self.online
        i, j = data.draw(st.integers(0, online.n - 1)), data.draw(st.integers(0, online.n - 1))
        got = online.query(i, j)
        assert (got, online.last_patch_vertices) == _rebuilt_patch_query(online, i, j)
        assert online.last_patch_vertices <= 2 * len(online.pending_edges()) + 2
        exact = dijkstra_exact(self.arrived, online.n, i)[j]
        if exact == UNREACHABLE:
            assert got == UNREACHABLE
        else:
            assert exact <= got <= exact * (1 + online.instance.epsilon) * (1 + 1e-9)

    @invariant()
    def answer_matrix_holds_the_frontier_answers(self):
        _assert_answers_at_frontier(self.online)

    @invariant()
    def patch_graph_holds_the_pending_edges(self):
        # per vertex as a multiset: an arrival that leaves the frontier in place appends in arrival order
        online = self.online
        pending = online.pending_edges()
        patch = {x for e in pending for x in (e.tail, e.head)}
        rebuilt = {u: Counter((v, online._at[u][v]) for v in patch if v != u and online._at[u][v] != UNREACHABLE)
                   for u in patch}
        for e in pending:
            if e.tail != e.head:
                rebuilt[e.tail][(e.head, e.weight)] += 1
        assert {u: Counter(row) for u, row in online._graph.items()} == rebuilt

    @invariant()
    def frontier_and_pending_follow_the_prediction(self):
        arrived = {e.edge_id for e in self.arrived}
        predicted = list(self.online.prediction)
        k = 0
        while k < len(predicted) and predicted[k].edge_id in arrived:
            k += 1
        assert self.online.frontier == k
        assert self.online.pending_edges() == [e for e in predicted[k:] if e.edge_id in arrived]


ApspArrivals.TestCase.settings = settings(max_examples=30, deadline=None)
test_apsp_arbitrary_arrivals = ApspArrivals.TestCase
