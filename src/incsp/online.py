"""Warm-started online maintenance of the recursion tree.

The engine builds the offline structure on a predicted timeline, then
consumes true arrivals one at a time.  Each arrival is reconciled with the
prediction: a correctly predicted edge costs nothing, a mispredicted one is
pulled forward to its true position (shifting the displaced block right),
and an unpredicted one is spliced in while the prediction's last slot is
truncated.  Both corrections rewrite the engine's own copy of the
prediction (a model.InsertSequence), never the caller's.  Only the
prefixes the shift jumped over change, so the repair is confined to the
subtree rooted at the shallowest node whose midpoint falls in that span,
and within it resolve_subtree re-solves only the nodes whose inputs moved
(a jumped prefix that touches their alive vertices, a changed interval
end, or a moved inherited estimate); the rest are kept and counted as
skipped.  An unpredicted arrival that moves the exact distances at time m
runs the same pass from the root.  Repair cost thus tracks prediction
quality rather than instance size.

A live distance array D is kept in sync after every arrival by replaying
the alive-vertex estimate sets of the repaired time span in ascending
order; vertices untouched by the pass are provably unchanged since
estimates are constant across spans where a vertex is dead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    UNREACHABLE,
    EdgeInsert,
    InsertSequence,
    ProblemInstance,
    align_prediction,
    check_edge,
    check_prediction,
    prepare_for_build,
)
from .offline import (
    OfflineStructure,
    SolveCounters,
    TimelineChange,
    build_offline,
    shallowest_midpoint,
    structures_equal,
)


def jumped_midpoint_range(t: int, t_prime: int, m: int) -> tuple[int, int] | None:
    """Midpoints whose prefix changes when the arrival at t was predicted at t_prime.

    None when the prediction was exact or no internal midpoint is touched.
    """
    if t_prime < t:
        raise ValueError("an arrival is never predicted earlier than its own position")
    lo, hi = max(1, t), min(t_prime - 1, m - 1)
    if lo > hi:
        return None
    return lo, hi


class RunCounters:
    """Run totals over every arrival of one engine.

    sink is the SolveCounters that every repair pass feeds, so
    nodes_rebuilt counts real re-solves and sink.nodes_skipped the nodes
    kept without one; full_rebuilds counts root passes after the time-m
    anchor moved.
    """

    def __init__(self, n: int, m: int):
        self.jumps_per_position = [0] * (m + 2)  # 1-based positions 1..m
        self.total_jumps = 0
        self.sink = SolveCounters(n, m)
        self.full_rebuilds = 0
        self.case_counts = {"match": 0, "moved": 0, "absent": 0}
        self.d_writes = 0

    @property
    def nodes_rebuilt(self) -> int:
        return self.sink.nodes_solved

    @property
    def alive_edge_work(self) -> int:
        return self.sink.total_alive_edges


@dataclass(frozen=True)
class InsertReport:
    """What one arrival cost.

    rebuilt_interval is the span the repair pass covered; its hi - lo - 1
    nodes split into nodes_rebuilt and nodes_skipped.  full_rebuild marks a
    pass from the root after the time-m anchor moved.
    """

    t: int
    edge_id: int
    case: str
    predicted_position: int
    jumped_positions: tuple[int, int] | None
    rebuilt_interval: tuple[int, int] | None
    nodes_rebuilt: int
    nodes_skipped: int
    full_rebuild: bool
    d_writes: int


class OnlineEngine:
    """Single-source estimates maintained across a run of true arrivals.

    ``instance`` gives the parameters and the true timeline; the arrivals
    themselves are fed through insert() so a caller may stream them.
    ``prediction`` must already have the instance's padded length; its
    edges are checked like arrivals, and one that gives a true edge's id a
    different triple is rejected here, since that edge could never arrive.
    The prediction is copied into ``timeline``, the engine's own sequence,
    which the corrections rewrite.
    """

    def __init__(self, instance: ProblemInstance, prediction, table=None):
        self.instance = instance
        self.m = instance.m
        self.n = instance.n
        self.source = instance.source
        self.timeline = InsertSequence(prediction)
        if len(self.timeline) != self.m:
            raise ValueError("prediction length must match the padded timeline")
        check_prediction(self.timeline, instance)
        pred_instance = replace(instance, sigma=self.timeline)
        self.structure = build_offline(pred_instance, table=table, with_entry_times=False)
        self.t = 0
        self.D: list[float] = [UNREACHABLE] * self.n
        self.D[self.source] = 0.0
        self.counters = RunCounters(self.n, self.m)

    def insert(self, edge: EdgeInsert) -> InsertReport:
        """Apply one true arrival; a rejected arrival leaves the engine unchanged."""
        check_edge(edge, self.n, self.instance.W)
        if self.t >= self.m:
            raise ValueError("more than m insertions")
        t_prime = self.timeline.position_of(edge.edge_id)
        # Positions 1..t of the timeline hold exactly the arrived edges.
        if t_prime <= self.t:
            raise ValueError("duplicate insertion")
        known = self.timeline.columns.triple(edge.edge_id)
        if known is not None and known != edge.triple:
            raise ValueError("arriving edge conflicts with its predicted description")

        t = self.t + 1
        m = self.m

        if t_prime == t:
            case = "match"
        elif t_prime <= m:
            case = "moved"
            self.timeline.move_forward(edge.edge_id, t)
        else:
            case = "absent"
            self.timeline.insert_truncating(edge, t)
        self.counters.case_counts[case] += 1

        if t_prime > t:
            hi_pos = min(t_prime - 1, m)
            for p in range(t, hi_pos + 1):
                self.counters.jumps_per_position[p] += 1
            self.counters.total_jumps += hi_pos - t + 1
            jumped_positions = (t, hi_pos)
        else:
            jumped_positions = None

        sink = self.counters.sink
        rebuilt_before, skipped_before = sink.nodes_solved, sink.nodes_skipped
        midrange = jumped_midpoint_range(t, t_prime, m)
        moved = self.structure.recompute_base() if case == "absent" else {}
        change = TimelineChange(midrange, edge.edge_id, moved)
        full_rebuild = False
        rebuilt_interval = None
        if moved:
            # The exact anchor at time m moved, so any node may inherit a
            # moved entry: run the pass from the root, seeded with the old
            # values so that it re-solves only what they reach.
            full_rebuild = True
            rebuilt_interval = (0, m)
            self.structure.resolve_subtree(0, m, sink, change)
            self.counters.full_rebuilds += 1
        elif midrange is not None:
            x = shallowest_midpoint(midrange[0], midrange[1])
            span = x & -x
            rebuilt_interval = (x - span, x + span)
            self.structure.resolve_subtree(x - span, x + span, sink, change)

        self.t = t
        d_writes = self._refresh_estimates(rebuilt_interval, t)
        self.counters.d_writes += d_writes
        return InsertReport(
            t=t,
            edge_id=edge.edge_id,
            case=case,
            predicted_position=t_prime,
            jumped_positions=jumped_positions,
            rebuilt_interval=rebuilt_interval,
            nodes_rebuilt=sink.nodes_solved - rebuilt_before,
            nodes_skipped=sink.nodes_skipped - skipped_before,
            full_rebuild=full_rebuild,
            d_writes=d_writes,
        )

    def _refresh_estimates(self, rebuilt_interval: tuple[int, int] | None, t: int) -> int:
        """Replay estimate sets over the repaired span (ascending, capped at t).

        Vertices no pass touches are dead across the whole span, and a dead
        vertex's estimate is constant over its span, so the stale entry is
        still the current value.
        """
        if rebuilt_interval is None:
            times = range(t, t + 1)
        else:
            lo, hi = rebuilt_interval
            times = range(lo, min(hi, t) + 1)
        D = self.D
        writes = 0
        for tt in times:
            if tt == 0:
                for v in range(self.n):
                    D[v] = UNREACHABLE
                D[self.source] = 0.0
                writes += self.n
            elif tt == self.m:
                base = self.structure.base_m
                for v in range(self.n):
                    D[v] = base[v]
                writes += self.n
            else:
                for v, est in self.structure.nodes[tt].alive_estimates.items():
                    D[v] = est
                    writes += 1
        return writes

    def fresh_rebuild(self) -> OfflineStructure:
        """From-scratch build on the current corrected timeline (test hook).

        The copy builds its own columns from the edge list, so comparing
        against it also checks that the corrections kept the two in step.
        """
        pred_instance = replace(self.instance, sigma=InsertSequence(self.timeline))
        return build_offline(pred_instance, table=self.structure.table, with_entry_times=False)

    def matches_fresh_build(self) -> bool:
        return structures_equal(self.structure, self.fresh_rebuild())


def start_online(instance: ProblemInstance, prediction_edges: list[EdgeInsert] | None = None) -> OnlineEngine:
    """Pad the instance, align the prediction, and return a ready engine.

    ``prediction_edges`` of None means a perfect prediction (the padded
    true timeline itself).
    """
    padded = prepare_for_build(instance)
    if prediction_edges is None:
        return OnlineEngine(padded, padded.sigma)
    return OnlineEngine(padded, align_prediction(prediction_edges, padded))
