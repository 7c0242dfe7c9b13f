import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from incsp.model import (
    UNREACHABLE,
    EdgeInsert,
    InsertSequence,
    align_prediction,
    parse_instance,
    prepare_for_build,
)
from incsp.offline import OfflineStructure, SolveCounters, _InputDiff, structures_equal, time_ancestors, time_chain
from incsp.online import OnlineEngine, start_online
from incsp.oracle import dijkstra_exact
from incsp.workload import PerturbationSpec, generate, perturb
from tests.conftest import T1_ORACLE_ROWS, W4_TEXT, assert_alive_sets_nested, estimate_at, exact_distance_table


# -- prediction timeline bookkeeping -------------------------------------------


def _timeline(t1_edges):
    return InsertSequence(t1_edges)


def test_positions_are_one_based(t1_edges):
    tl = _timeline(t1_edges)
    assert [tl.position_of(e.edge_id) for e in t1_edges] == [1, 2, 3, 4]
    assert tl.position_of(99) == 5


def test_move_forward_shifts_the_window(t1_edges):
    tl = _timeline(t1_edges)
    tl.move_forward(t1_edges[2].edge_id, 1)
    assert tl.ids() == [2, 0, 1, 3]
    assert tl.position_of(0) == 2
    assert tl.position_of(2) == 1


def test_insert_truncating_drops_the_tail(t1_edges):
    tl = _timeline(t1_edges)
    fresh = EdgeInsert(50, 2, 1, 7)
    dropped = tl.insert_truncating(fresh, 2)
    assert dropped.edge_id == 3
    assert dropped is t1_edges[3]
    assert tl[1] is fresh
    assert tl.ids() == [0, 50, 1, 2]
    assert len(tl) == 4
    assert tl.position_of(3) == 5
    assert tl.position_of(50) == 2


# -- prefix marks ---------------------------------------------------------------


def _deltas_of(s, first, last, arrived):
    """The deltas mark_prefixes(first, last, arrived) records on a clean structure."""
    assert not s.pending
    s.mark_prefixes(first, last, arrived)
    deltas = {p: diff.delta for p, diff in s.pending.items()}
    assert not any(diff.lo or diff.hi or diff.stale for diff in s.pending.values())
    s.pending.clear()
    return deltas


def _move_into_prefix(engine, p):
    """Move the edge at position p + 1 of the timeline to position p, as a
    mispredicted arrival would, and mark prefix p, which gains it and loses
    the edge it displaced; returns both edge ids."""
    s = engine._structure
    gained, lost = s.cols.order[p], s.cols.order[p - 1]
    engine.timeline.move_forward(gained, p)
    s.mark_prefixes(p, p, gained)
    return gained, lost


def _first_touched_prefix(s):
    """The first midpoint p whose alive set holds the head of the edge at
    index p - 1 or p, so that _move_into_prefix(engine, p) records a delta."""
    head, order = s.cols.head, s.cols.order
    return next(p for p in range(1, s.m - 1) if {head[order[p - 1]], head[order[p]]} & s.nodes[p].alive_estimates.keys())


def test_mark_prefixes_examples():
    # A full span records, at each midpoint, the arrived edge as gained and
    # the edge at its index as lost, each only when the node's alive set
    # holds its head; a narrower span records exactly its own part.
    engine = start_online(generate(n=8, m=16, W=6, seed=3, epsilon=1.0))
    s, m = engine.structure, engine.m
    cols = s.cols
    arrived = cols.order[0]
    everywhere = _deltas_of(s, 1, m - 1, arrived)
    assert everywhere
    for p in range(1, m):
        alive = s.nodes[p].alive_estimates
        lost = cols.order[p]
        expected = {arrived: True} if cols.head[arrived] in alive else {}
        if cols.head[lost] in alive:
            expected[lost] = False
        assert everywhere.get(p) == (expected or None)
    assert {True, False} <= {gained for delta in everywhere.values() for gained in delta.values()}
    assert _deltas_of(s, 4, 7, arrived) == {p: d for p, d in everywhere.items() if 4 <= p <= 7}
    assert _deltas_of(s, 5, 4, arrived) == {}


def test_mark_prefixes_clips_to_internal_midpoints():
    # Arriving last with t' = m + 1 jumps over position m, which owns no
    # node: last = m never reads nodes[m], and a span starting at m records
    # nothing.
    engine = start_online(generate(n=8, m=16, W=6, seed=3, epsilon=1.0))
    s, m = engine.structure, engine.m
    arrived = s.cols.order[0]
    assert len(s.nodes) == m
    assert _deltas_of(s, 1, m, arrived) == _deltas_of(s, 1, m - 1, arrived)
    assert _deltas_of(s, m - 1, m, arrived) == _deltas_of(s, m - 1, m - 1, arrived)
    assert _deltas_of(s, m, m, arrived) == {}


def test_prefix_mark_and_vertex_diff_share_one_entry():
    # A node that already holds a vertex diff keeps it when its prefix
    # changes, and a vertex diff merged into an entry keeps its delta.
    engine = start_online(generate(n=8, m=16, W=6, seed=3, epsilon=1.0))
    s = engine.structure
    p = _first_touched_prefix(s)
    v = next(iter(s.nodes[p].alive_estimates))
    s._push(p, {v}, set(), {})
    gained, lost = _move_into_prefix(engine, p)
    alive, head = s.nodes[p].alive_estimates, s.cols.head
    delta = {e: e == gained for e in (gained, lost) if head[e] in alive}
    assert delta
    assert s.pending[p] == _InputDiff({v}, set(), {}, delta)
    s._push(p, set(), {v}, {})
    assert s.pending[p] == _InputDiff({v}, {v}, {}, delta)
    engine.flush()
    assert not s.pending
    assert engine.matches_fresh_build()


def test_regained_edge_cancels_out_of_the_delta():
    # Prefix p loses edge x to y, then regains x from y: the timeline is
    # back as it was, the delta is empty, and the flush keeps node p.
    engine = start_online(generate(n=8, m=16, W=6, seed=3, epsilon=1.0))
    s = engine.structure
    p = _first_touched_prefix(s)
    ids, node = s.cols.order[:], s.nodes[p]
    y, x = _move_into_prefix(engine, p)
    assert s.pending[p].delta
    assert _move_into_prefix(engine, p) == (x, y)
    assert s.cols.order == ids
    assert s.pending[p] == _InputDiff(frozenset(), frozenset(), {}, {})
    skipped = engine.counters.sink.nodes_skipped
    engine.flush()
    assert s.nodes[p] is node
    assert engine.counters.sink.nodes_skipped == skipped + 1
    assert engine.matches_fresh_build()


# -- the worked trace ------------------------------------------------------------


def test_t1_permuted_trace(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    reports = [engine.insert(e) for e in t1_padded.sigma]

    assert [r.case for r in reports] == ["moved", "match", "match", "match"]
    first = reports[0]
    assert first.predicted_position == 2
    assert first.jumped_positions == (1, 1)
    assert first.rebuilt_interval == (0, 2)
    assert first.nodes_rebuilt == 1
    # the one re-solve happened on the first arrival's chain; nothing waits
    engine.flush()
    assert engine.counters.flush_rebuilt == engine.counters.flush_skipped == 0
    assert engine.counters.nodes_rebuilt == 1
    assert engine.counters.total_jumps == 1
    assert engine.counters.jumps_per_position[1:5] == [1, 0, 0, 0]
    assert engine.counters.case_counts == {"match": 3, "moved": 1, "absent": 0}
    # the corrected prediction is sigma itself from t=1 onward
    assert engine.timeline.ids() == [0, 1, 2, 3]


def test_t1_per_step_sandwich(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    eps = t1_padded.epsilon
    for t, edge in enumerate(t1_padded.sigma, start=1):
        engine.insert(edge)
        for v in range(t1_padded.n):
            exact = T1_ORACLE_ROWS[t][v]
            estimate = engine.D[v]
            if exact == UNREACHABLE:
                assert estimate == UNREACHABLE
            else:
                assert exact <= estimate <= exact * (1 + eps) * (1 + 1e-9)


def test_t1_matches_fresh_build_each_step(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    for edge in t1_padded.sigma:
        engine.insert(edge)
        assert engine.matches_fresh_build()


def test_identity_prediction_never_rebuilds(t1_padded):
    engine = OnlineEngine(t1_padded, align_prediction(list(t1_padded.sigma), t1_padded))
    for edge in t1_padded.sigma:
        report = engine.insert(edge)
        assert report.case == "match"
        assert report.nodes_rebuilt == 0
    assert engine.counters.nodes_rebuilt == 0
    assert engine.counters.total_jumps == 0
    assert engine.matches_fresh_build()


def test_before_any_insert_only_source_is_reachable(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    assert engine.D[t1_padded.source] == 0.0
    assert engine.D[1] == UNREACHABLE
    assert engine.D[2] == UNREACHABLE


# -- the absent-edge case ---------------------------------------------------------


def test_absent_arrival_truncates_and_rebuilds(t1_padded, t1_edges):
    # prediction got edge 3 wrong: a phantom (2,1,3) sits in its place
    phantom = EdgeInsert(40, 2, 1, 3)
    pred = align_prediction(
        [t1_edges[0], t1_edges[1], phantom, t1_edges[3]], t1_padded
    )
    engine = OnlineEngine(t1_padded, pred)
    cases = []
    for edge in t1_padded.sigma:
        report = engine.insert(edge)
        cases.append(report.case)
        assert engine.matches_fresh_build()
    # inserting e3 bumps the real e4 off the tail, so e4 arrives absent too
    assert cases == ["match", "match", "absent", "absent"]
    assert engine.counters.case_counts["absent"] == 2
    assert engine.timeline.ids() == [e.edge_id for e in t1_padded.sigma]
    assert engine.D == [0, 1, 3]


def test_absent_arrival_jumps_over_tail_positions(t1_padded, t1_edges):
    phantom = EdgeInsert(40, 2, 1, 3)
    pred = align_prediction(
        [t1_edges[0], t1_edges[1], phantom, t1_edges[3]], t1_padded
    )
    engine = OnlineEngine(t1_padded, pred)
    for edge in t1_padded.sigma:
        engine.insert(edge)
    # e3 jumped positions 3..4, e4 jumped position 4
    assert engine.counters.jumps_per_position[3] == 1
    assert engine.counters.jumps_per_position[4] == 2


@pytest.mark.parametrize("edge_id", [10**12, -7])
def test_unpredicted_arrival_with_a_far_edge_id(t1_padded, t1_edges, edge_id):
    # The timeline's edge columns are keyed by edge id: an id far outside
    # the timeline's range must cost no memory in proportion to its value,
    # and a negative one must read back as its own edge.
    engine = OnlineEngine(t1_padded, list(t1_padded.sigma))
    arrivals = [t1_edges[0], EdgeInsert(edge_id, 0, 2, 1), t1_edges[1], t1_edges[2]]
    for edge in arrivals:
        engine.insert(edge)
        assert engine.matches_fresh_build()
        assert engine.D == [estimate_at(engine.structure, v, engine.t) for v in range(engine.n)]
    cols = engine.timeline.columns
    assert sum(sys.getsizeof(c) for c in (cols.head, cols.tail, cols.weight, cols.position)) < 1 << 16
    assert engine.timeline.position_of(edge_id) == 2
    assert engine.timeline.position_of(t1_edges[3].edge_id) == 5
    assert engine.D == [0, 4, 1]


# -- validation -------------------------------------------------------------------


def test_duplicate_insert_rejected(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    first = list(t1_padded.sigma)[0]
    engine.insert(first)
    with pytest.raises(ValueError, match="duplicate insertion"):
        engine.insert(first)


def test_overflow_rejected(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    for edge in t1_padded.sigma:
        engine.insert(edge)
    with pytest.raises(ValueError, match="more than m insertions"):
        engine.insert(EdgeInsert(60, 0, 2, 1))


def test_conflicting_description_rejected(t1_padded, t1_permuted):
    engine = OnlineEngine(t1_padded, t1_permuted)
    with pytest.raises(ValueError, match="conflicts"):
        engine.insert(EdgeInsert(0, 0, 1, 7))


def _engine_state(engine, s):
    """Everything an arrival may change; s is the engine's structure, read without a flush."""
    cols = engine.timeline.columns
    return (
        engine.t,
        engine.D[:],
        engine.timeline.ids(),
        [column.copy() for column in (cols.head, cols.tail, cols.weight, cols.position, cols.order)],
        s.base_m[:],
        [id(node) for node in s.nodes],
        {mid: diff._replace(delta=dict(diff.delta)) for mid, diff in s.pending.items()},
        dict(engine.counters.case_counts),
        engine.counters.total_jumps,
        engine.counters.nodes_rebuilt,
        engine.counters.sink.nodes_skipped,
    )


@pytest.mark.parametrize(
    "bad",
    [
        EdgeInsert(100, 0, 1, 0),
        EdgeInsert(100, -1, 1, 2),
        EdgeInsert(100, 0, 1, 99),
        EdgeInsert(100, 0, 3 + 5, 2),
    ],
    ids=["weight-0", "tail-negative", "weight-above-W", "head-out-of-range"],
)
def test_invalid_arrival_rejected_without_mutation(bad):
    inst = prepare_for_build(parse_instance(W4_TEXT))
    engine = OnlineEngine(inst, align_prediction(list(inst.sigma), inst))
    s = engine.structure
    edges = list(inst.sigma)
    engine.insert(edges[0])
    before = _engine_state(engine, s)
    with pytest.raises(ValueError):
        engine.insert(bad)
    assert _engine_state(engine, s) == before
    for edge in edges[1:]:
        engine.insert(edge)
    assert engine.D == [0, 2, 4]
    assert engine.matches_fresh_build()


@pytest.mark.parametrize(
    "tail, head, weight",
    [(0, 7, 2), (0, -1, 2), (0, 1, 0), (0, 1, 99)],
    ids=["head-out-of-range", "head-negative", "weight-0", "weight-above-W"],
)
def test_invalid_predicted_edge_rejected(tail, head, weight):
    # A negative vertex id would otherwise index vertex n-1 silently.
    inst = parse_instance(W4_TEXT)
    pred = list(inst.sigma)
    pred[1] = EdgeInsert(100, tail, head, weight)
    with pytest.raises(ValueError, match="out of range"):
        start_online(inst, pred)


def test_prediction_conflicting_with_a_true_edge_rejected():
    # the true 0->1 (id 0) has weight 2, so the predicted id-0 edge could never arrive
    inst = parse_instance(W4_TEXT)
    pred = list(inst.sigma)
    pred[0] = EdgeInsert(0, 0, 1, 3)
    with pytest.raises(ValueError, match="conflicts with the true edge"):
        start_online(inst, pred)


def test_prediction_length_must_match(t1_padded, t1_edges):
    short = InsertSequence(t1_edges[:2])
    with pytest.raises(ValueError, match="length"):
        OnlineEngine(t1_padded, short)


# -- invariants on random runs -----------------------------------------------------


def _replay(inst, kind, **kwargs):
    padded = prepare_for_build(inst)
    pred = perturb(inst, PerturbationSpec(kind, seed=5, **kwargs))
    engine = OnlineEngine(padded, align_prediction(pred, padded))
    return padded, engine


def test_prefix_agreement_random():
    inst = generate(n=8, m=16, W=6, seed=3, epsilon=1.0)
    padded, engine = _replay(inst, "window_shuffle", k=4)
    arrived = []
    for edge in padded.sigma:
        engine.insert(edge)
        arrived.append(edge.edge_id)
        assert engine.timeline.ids()[: len(arrived)] == arrived


def _sequence_state(seq):
    cols = seq.columns
    return (
        list(seq.edges),
        [column.copy() for column in (cols.head, cols.tail, cols.weight, cols.position, cols.order)],
        cols.absent,
    )


def test_replays_leave_shared_sequences_unchanged():
    # Structures built on a sequence share its columns, so an engine must
    # apply its corrections to its own copy of the prediction.
    inst = generate(n=8, m=32, W=6, seed=4, epsilon=0.5)
    padded = prepare_for_build(inst)
    aligned = align_prediction(perturb(inst, PerturbationSpec("replace", p=0.05, seed=5)), padded)
    before = [_sequence_state(padded.sigma), _sequence_state(aligned)]
    replays = [(start_online(inst), list(aligned)), (OnlineEngine(padded, aligned), list(padded.sigma))]
    for engine, arrivals in replays:
        for edge in arrivals:
            engine.insert(edge)
        assert engine.counters.case_counts["absent"] > 0
    assert [_sequence_state(padded.sigma), _sequence_state(aligned)] == before


def _chain(t, m):
    """Node t and its ancestors: the nodes an arrival at t settles."""
    return time_ancestors(t, m) + [t] if 0 < t < m else []


def test_untouched_nodes_keep_their_objects():
    # An arrival replaces node objects only on its own chain.
    inst = generate(n=8, m=32, W=6, seed=9, epsilon=0.5)
    padded, engine = _replay(inst, "window_shuffle", k=8)
    s = engine.structure
    for t, edge in enumerate(padded.sigma, start=1):
        before = list(s.nodes)
        engine.insert(edge)
        chain = set(_chain(t, padded.m))
        for mid in range(1, padded.m):
            if mid not in chain:
                assert s.nodes[mid] is before[mid]
    engine.flush()
    assert engine.counters.flush_rebuilt > 0  # the run did leave work behind


def test_per_step_sandwich_random():
    inst = generate(n=10, m=32, W=8, seed=21, epsilon=0.3)
    padded = prepare_for_build(inst)
    rows = exact_distance_table(padded)
    for kind, kwargs in [
        ("identity", {}),
        ("window_shuffle", {"k": 4}),
        ("relocate", {"p": 0.1}),
        ("replace", {"p": 0.1}),
    ]:
        _, engine = _replay(inst, kind, **kwargs)
        for t, edge in enumerate(padded.sigma, start=1):
            engine.insert(edge)
            for v in range(padded.n):
                exact = rows[t][v]
                got = engine.D[v]
                if exact == UNREACHABLE:
                    assert got == UNREACHABLE
                else:
                    assert exact <= got <= exact * (1 + padded.epsilon) * (1 + 1e-9)


def test_fresh_equality_random_all_kinds():
    inst = generate(n=8, m=16, W=6, seed=13, epsilon=1.0)
    for kind, kwargs in [
        ("window_shuffle", {"k": 16}),
        ("relocate", {"p": 0.2}),
        ("replace", {"p": 0.2}),
    ]:
        padded, engine = _replay(inst, kind, **kwargs)
        for edge in padded.sigma:
            engine.insert(edge)
            assert engine.matches_fresh_build(), kind


def test_alive_sets_nested_after_replay_all_kinds():
    inst = generate(n=12, m=128, W=8, seed=29, epsilon=0.5)
    for kind, kwargs in [
        ("identity", {}),
        ("window_shuffle", {"k": 8}),
        ("relocate", {"p": 0.05}),
        ("replace", {"p": 0.05}),
    ]:
        padded, engine = _replay(inst, kind, **kwargs)
        for edge in padded.sigma:
            engine.insert(edge)
        assert_alive_sets_nested(engine.structure)


perturbations = st.one_of(
    st.builds(
        lambda seed, k: PerturbationSpec("window_shuffle", seed=seed, k=k),
        st.integers(0, 999),
        st.integers(1, 16),
    ),
    st.builds(
        lambda kind, seed, p: PerturbationSpec(kind, seed=seed, p=p),
        st.sampled_from(["relocate", "replace"]),
        st.integers(0, 999),
        st.sampled_from([0.05, 0.1, 0.3]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 12),
    m=st.integers(2, 64),
    spec=perturbations,
)
def test_D_matches_structure_after_every_arrival(seed, n, m, spec):
    inst = generate(n=n, m=m, W=6, seed=seed, epsilon=0.5)
    if spec.kind == "replace":
        # perturb refuses a replace that needs more fresh triples than are
        # unused (test_replace_refuses_when_no_triples_left); such a draw
        # has no prediction to replay
        assume(math.ceil(spec.p * m) <= n * (n - 1) * 6 - m)
    engine = start_online(inst, perturb(inst, spec))
    s = engine.structure
    for edge in engine.instance.sigma:
        engine.insert(edge)
        assert engine.D == [estimate_at(s, v, engine.t) for v in range(engine.n)]
    # nodes off the last chains may still be pending until the flush
    assert_alive_sets_nested(engine.structure)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 10),
    m=st.integers(2, 64),
    p=st.sampled_from([0.05, 0.1, 0.3]),
    W=st.integers(1, 6),
)
def test_recompute_base_equals_a_full_recompute_after_every_arrival(seed, n, m, p, W):
    # An absent arrival skips the Dijkstra when neither its edge nor the
    # dropped one can move a distance; base_m and the moved map must still
    # equal a full recompute's.
    assume(m + math.ceil(p * m) <= n * (n - 1) * W)  # distinct triples for the timeline and the replacements
    inst = generate(n=n, m=m, W=W, seed=seed, epsilon=0.5)
    engine = start_online(inst, perturb(inst, PerturbationSpec("replace", seed=seed, p=p)))
    s = engine._structure
    recompute = s.recompute_base
    calls = []

    def checked(arrived, dropped):
        before = list(s.base_m)
        moved = recompute(arrived, dropped)
        exact = dijkstra_exact(list(engine.timeline), engine.n, engine.source)
        assert s.base_m == exact
        assert moved == {v: before[v] for v in range(engine.n) if before[v] != exact[v]}
        calls.append(arrived)
        return moved

    s.recompute_base = checked
    for edge in engine.instance.sigma:
        engine.insert(edge)
    assert len(calls) == engine.counters.case_counts["absent"]
    assert engine.matches_fresh_build()


def _checked_delta_kept(kept):
    """OfflineStructure._delta_kept, checked against a re-solve of each node it keeps.

    The re-solve runs on the same inputs (ends, edge list, inherited
    estimates), the stored node is put back, and the midpoint is appended
    to kept.
    """
    delta_kept = OfflineStructure._delta_kept

    def checked(self, node, delta, above):
        if not delta_kept(self, node, delta, above):
            return False
        if delta:
            mid = node.mid
            lo, hi = mid - (mid & -mid), mid + (mid & -mid)
            sink = SolveCounters(self.n, self.m)
            solved, _ = self._solve_node(lo, hi, *self._ends(lo, hi), self._edge_list(lo, hi), above, sink)
            self.nodes[mid] = node
            assert solved.alive_estimates == node.alive_estimates
            gained = {eid for eid, g in delta.items() if g}
            assert set(solved.alive_edges) == (set(node.alive_edges) - delta.keys()) | gained
            kept.append(mid)
        return True

    return checked


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 10),
    m=st.integers(2, 64),
    W=st.integers(1, 6),
    spec=perturbations,
)
def test_kept_prefix_deltas_match_a_re_solve(seed, n, m, W, spec):
    # Each node the delta proof keeps is what _solve_node makes of the same
    # inputs: equal estimates, and the stored alive edges with the delta
    # applied.  Small weights make ties at the proof's bounds likely.
    triples = n * (n - 1) * W
    assume(m <= triples)
    inst = generate(n=n, m=m, W=W, seed=seed, epsilon=0.5)
    if spec.kind == "replace":
        assume(math.ceil(spec.p * m) <= triples - m)
    engine = start_online(inst, perturb(inst, spec))
    kept = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OfflineStructure, "_delta_kept", _checked_delta_kept(kept))
        for edge in engine.instance.sigma:
            engine.insert(edge)
        engine.flush()
    assert engine.matches_fresh_build()


def test_delta_proof_keeps_nodes_on_every_family():
    # The proof is exercised: on each family it keeps some node whose
    # prefix changed, and every one it keeps checks out against a re-solve.
    for kind, kwargs in FAMILIES:
        inst = generate(n=16, m=128, W=8, seed=6, epsilon=0.5)
        padded, engine = _replay(inst, kind, **kwargs)
        kept = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(OfflineStructure, "_delta_kept", _checked_delta_kept(kept))
            for edge in padded.sigma:
                engine.insert(edge)
            engine.flush()
        assert kept, kind
        assert engine.matches_fresh_build()


def test_case_counts_partition_the_run():
    inst = generate(n=8, m=16, W=6, seed=17, epsilon=1.0)
    padded, engine = _replay(inst, "replace", p=0.3)
    for edge in padded.sigma:
        engine.insert(edge)
    assert sum(engine.counters.case_counts.values()) == padded.m


def test_start_online_defaults_to_identity():
    inst = generate(n=6, m=5, W=4, seed=2, epsilon=1.0)
    engine = start_online(inst)
    assert engine.m == 8  # padded
    for edge in engine.instance.sigma:
        report = engine.insert(edge)
        assert report.case == "match"
    assert engine.counters.nodes_rebuilt == 0


def test_start_online_replace_on_unpadded_instance():
    # perturb numbers replacement edges from the unpadded timeline, so the
    # first one used to collide with the padding self-loop's id
    inst = generate(n=4, m=3, W=6, seed=0, epsilon=0.5)
    engine = start_online(inst, perturb(inst, PerturbationSpec("replace", seed=0, p=0.05)))
    for edge in engine.instance.sigma:
        engine.insert(edge)
    assert engine.matches_fresh_build()


def test_start_online_with_prediction():
    inst = generate(n=6, m=8, W=4, seed=2, epsilon=1.0)
    pred = perturb(inst, PerturbationSpec("window_shuffle", seed=1, k=2))
    engine = start_online(inst, pred)
    for edge in engine.instance.sigma:
        engine.insert(edge)
    assert engine.matches_fresh_build()


def test_reverse_order_prediction_is_survivable():
    # fully adversarial permutation: every edge arrives far from its slot
    inst = generate(n=8, m=16, W=6, seed=23, epsilon=1.0)
    padded = prepare_for_build(inst)
    rows = exact_distance_table(padded)
    pred = list(reversed(list(padded.sigma)))
    engine = OnlineEngine(padded, align_prediction(pred, padded))
    for t, edge in enumerate(padded.sigma, start=1):
        engine.insert(edge)
        for v in range(padded.n):
            exact = rows[t][v]
            got = engine.D[v]
            if exact == UNREACHABLE:
                assert got == UNREACHABLE
            else:
                assert exact <= got <= exact * 2 * (1 + 1e-9)
    assert engine.matches_fresh_build()


# -- change-driven repair -----------------------------------------------------------

FAMILIES = [
    ("window_shuffle", {"k": 8}),
    ("relocate", {"p": 0.05}),
    ("replace", {"p": 0.05}),
]


def _assert_chain_consistent(engine):
    """D and the current time's chain equal a fresh build's, without a flush."""
    fresh = engine.fresh_rebuild()
    assert engine.D == [estimate_at(fresh, v, engine.t) for v in range(engine.n)]
    assert engine.chain_matches_fresh_build()


def _assert_consistent(engine):
    _assert_chain_consistent(engine)
    s = engine.structure  # flushed
    assert engine.D == [estimate_at(s, v, engine.t) for v in range(engine.n)]
    assert engine.matches_fresh_build()


@pytest.mark.parametrize("kind, kwargs", FAMILIES, ids=[kind for kind, _ in FAMILIES])
def test_reports_partition_the_rebuilt_interval(kind, kwargs):
    # An arrival re-solves only nodes of its chain, nodes_rebuilt counts
    # exactly the nodes it replaced, and rebuilt_interval is the interval of
    # the shallowest of them; at most the chain's nodes are settled.
    inst = generate(n=12, m=128, W=8, seed=4, epsilon=0.5)
    padded, engine = _replay(inst, kind, **kwargs)
    s = engine.structure
    for t, edge in enumerate(padded.sigma, start=1):
        before = list(s.nodes)
        report = engine.insert(edge)
        solved = [mid for mid in range(1, padded.m) if s.nodes[mid] is not before[mid]]
        chain = _chain(t, padded.m)
        assert set(solved) <= set(chain)
        assert len(solved) == report.nodes_rebuilt
        assert report.nodes_rebuilt + report.nodes_skipped <= len(chain)
        if report.rebuilt_interval is None:
            assert report.nodes_rebuilt == 0
        else:
            lo, hi = report.rebuilt_interval
            assert (lo + hi) // 2 in solved
            assert all(lo < mid < hi for mid in solved)


def test_window_shuffle_replay_skips_nodes():
    inst = generate(n=12, m=128, W=8, seed=4, epsilon=0.5)
    padded, engine = _replay(inst, "window_shuffle", k=8)
    reports = [engine.insert(edge) for edge in padded.sigma]
    c = engine.counters
    sink = c.sink
    assert sink.nodes_skipped == sum(r.nodes_skipped for r in reports) > 0
    assert sink.nodes_solved == sum(r.nodes_rebuilt for r in reports)
    engine.flush()
    assert sink.nodes_skipped == sum(r.nodes_skipped for r in reports) + c.flush_skipped
    # skipped nodes stay out of the per-node rebuild counts
    assert sink.nodes_solved == sum(r.nodes_rebuilt for r in reports) + c.flush_rebuilt == sum(sink.rebuilds_per_node)
    assert engine.matches_fresh_build()


@pytest.mark.parametrize("m", [128, 256])
@pytest.mark.parametrize("kind, kwargs", FAMILIES, ids=[kind for kind, _ in FAMILIES])
def test_fresh_build_equality_above_the_small_limit(m, kind, kwargs):
    inst = generate(n=16, m=m, W=8, seed=m + 1, epsilon=0.5)
    padded, engine = _replay(inst, kind, **kwargs)
    for t, edge in enumerate(padded.sigma, start=1):
        engine.insert(edge)
        if t % 16 == 0 or t == padded.m:
            _assert_consistent(engine)
        elif t % 4 == 0:
            _assert_chain_consistent(engine)


def test_root_pass_after_base_move_is_pruned():
    # At this seed five unpredicted arrivals move the exact distances at time
    # m.  Each leaves the root a pending diff that its own chain settles:
    # the root is re-solved (and rebuilt_interval is the whole timeline) or
    # kept, and the rest of the tree waits.  The last arrival's chain is
    # empty (D is base_m), so its diff waits for the flush.  The tree is
    # flushed before every arrival, so the chain's re-solves plus those of
    # the flush after a base move are all that move's diff reaches: fewer
    # than the tree's m - 1 nodes, and no more than the eager root pass (a
    # subtree pass at every arrival) re-solved at this seed, [64, 48, 13, 3,
    # 0], which re-solved every node whose prefix changed.
    inst = generate(n=16, m=128, W=8, seed=4, epsilon=0.5)
    engine = start_online(inst, perturb(inst, PerturbationSpec("replace", seed=4, p=0.05)))
    s = engine.structure
    root = engine.m // 2
    root_passes = 0
    reach = []
    for t, edge in enumerate(engine.instance.sigma, start=1):
        engine.flush()
        old_root = s.nodes[root]
        report = engine.insert(edge)
        if report.full_rebuild:
            root_passes += 1
            assert report.case == "absent"
            re_solved = s.nodes[root] is not old_root
            if t < engine.m:
                assert root not in s.pending
                assert re_solved or report.nodes_skipped >= 1
            else:
                assert report.nodes_rebuilt == report.nodes_skipped == 0
            assert (report.rebuilt_interval == (0, engine.m)) == re_solved
            assert report.nodes_rebuilt <= len(_chain(t, engine.m))
            flushed = engine.counters.flush_rebuilt
            _assert_consistent(engine)
            reached = report.nodes_rebuilt + engine.counters.flush_rebuilt - flushed
            assert reached < engine.m - 1
            reach.append(reached)
    assert root_passes == engine.counters.full_rebuilds > 0
    assert reach == [53, 36, 5, 3, 0]
    assert all(now <= eager for now, eager in zip(reach, [64, 48, 13, 3, 0]))


def test_subtree_skip_checks_stale_tails_below_the_top_node():
    # At this seed arrival 127 moves the inherited estimate of a vertex that
    # is dead at the top of a subtree whose end maps are unchanged and whose
    # jumped prefixes touch no alive vertex.  The vertex is the tail of an
    # edge into the top node's alive set, so the moved value must reach the
    # nodes below; losing it leaves a structure unlike a fresh build until
    # arrival 143.
    inst = generate(n=80, m=512, W=16, seed=11, epsilon=0.5)
    engine = start_online(inst, perturb(inst, PerturbationSpec("relocate", seed=11, p=0.05)))
    for t, edge in enumerate(engine.instance.sigma[:144], start=1):
        engine.insert(edge)
        if t % 16 == 0 or t == 127:
            _assert_consistent(engine)


DIFFERENTIAL = [
    ("identity", {}),
    ("window_shuffle", {"k": 4}),
    ("window_shuffle", {"k": 64}),  # k = m: a random permutation
    ("relocate", {"p": 0.1}),
    ("replace", {"p": 0.1}),
]


@pytest.mark.parametrize("kind, kwargs", DIFFERENTIAL, ids=[f"{k}-{a}" for k, a in DIFFERENTIAL])
def test_flushing_after_every_arrival_never_changes_D(kind, kwargs):
    # One engine never flushed beside one flushed after every arrival: their
    # D agree in repr (0 against 0.0 included) at every step, each arrival
    # writes exactly the entries that changed, and both end as fresh builds.
    inst = generate(n=12, m=64, W=8, seed=31, epsilon=0.5)
    padded, lazy = _replay(inst, kind, **kwargs)
    flushed = _replay(inst, kind, **kwargs)[1]
    for edge in padded.sigma:
        before = lazy.D[:]
        report = lazy.insert(edge)
        flushed.insert(edge)
        flushed.flush()
        assert repr(lazy.D) == repr(flushed.D)
        changed = sum(a != b for a, b in zip(before, lazy.D))
        assert report.d_writes == (padded.n if lazy.t == padded.m else changed)
    assert lazy.counters.flush_rebuilt == 0 or kind != "identity"
    assert lazy.matches_fresh_build()
    assert flushed.matches_fresh_build()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 12),
    m=st.integers(2, 64),
    spec=perturbations,
    flush_at=st.sets(st.integers(1, 64)),
)
def test_random_flush_points_keep_D(seed, n, m, spec, flush_at):
    inst = generate(n=n, m=m, W=6, seed=seed, epsilon=0.5)
    if spec.kind == "replace":
        assume(math.ceil(spec.p * m) <= n * (n - 1) * 6 - m)
    pred = perturb(inst, spec)
    lazy, flushed = start_online(inst, pred), start_online(inst, pred)
    for t, edge in enumerate(lazy.instance.sigma, start=1):
        lazy.insert(edge)
        flushed.insert(edge)
        if t in flush_at:
            assert flushed.matches_fresh_build()
        assert repr(lazy.D) == repr(flushed.D)
        assert lazy.chain_matches_fresh_build()
    assert lazy.matches_fresh_build()


class ArbitraryArrivals(RuleBasedStateMachine):
    """Arrivals in any order, unpredicted and rejected ones included.

    The prediction is the generated timeline, so every arrival out of that
    order is a misprediction and every unpredicted edge an absent arrival
    that truncates the timeline's last slot.
    """

    W = 6

    @initialize(seed=st.integers(0, 10_000), n=st.integers(3, 8), m=st.integers(2, 32))
    def build(self, seed, n, m):
        self.engine = start_online(generate(n=n, m=m, W=self.W, seed=seed, epsilon=0.5))
        self.structure = self.engine.structure  # read below without a flush
        self.pending = list(self.engine.instance.sigma)
        self.arrived = []
        self.next_id = 1 + max(e.edge_id for e in self.pending)

    def _arrive(self, edge):
        self.engine.insert(edge)
        self.arrived.append(edge)
        if edge in self.pending:
            self.pending.remove(edge)
        # The arrival settled its own chain and left nothing pending on it.
        assert self.structure.pending.keys().isdisjoint(time_chain(self.engine.t, self.engine.m))

    def _reject(self, edge):
        before = _engine_state(self.engine, self.structure)
        with pytest.raises(ValueError):
            self.engine.insert(edge)
        assert _engine_state(self.engine, self.structure) == before

    @precondition(lambda self: self.engine.t < self.engine.m)
    @rule(data=st.data())
    def predicted_edge(self, data):
        self._arrive(data.draw(st.sampled_from(self.pending)))

    @precondition(lambda self: self.engine.t < self.engine.m)
    @rule(data=st.data())
    def unpredicted_edge(self, data):
        n = self.engine.n
        tail, head = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        self._arrive(EdgeInsert(self.next_id, tail, head, data.draw(st.integers(1, self.W))))
        self.next_id += 1

    @rule(data=st.data())
    def rejected_edge(self, data):
        n, W = self.engine.n, self.W
        bad = [
            EdgeInsert(self.next_id, 0, 0, 0),
            EdgeInsert(self.next_id, 0, 0, W + 1),
            EdgeInsert(self.next_id, -1, 0, 1),
            EdgeInsert(self.next_id, 0, n, 1),
        ]
        if self.arrived:
            bad.append(data.draw(st.sampled_from(self.arrived)))
        if self.pending:
            e = data.draw(st.sampled_from(self.pending))
            bad.append(EdgeInsert(e.edge_id, e.tail, e.head, e.weight % W + 1))
        if self.engine.t == self.engine.m:
            bad.append(EdgeInsert(self.next_id, 0, 0, 1))
        self._reject(data.draw(st.sampled_from(bad)))

    @rule()
    def flush(self):
        self.engine.flush()
        assert not self.structure.pending
        _assert_consistent(self.engine)

    @invariant()
    def matches_structure_and_fresh_build(self):
        _assert_chain_consistent(self.engine)

    def teardown(self):
        _assert_consistent(self.engine)


ArbitraryArrivals.TestCase.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
test_arbitrary_arrivals = ArbitraryArrivals.TestCase
