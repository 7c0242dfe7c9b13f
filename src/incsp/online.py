"""Warm-started online maintenance of the recursion tree.

The engine builds the offline structure on a predicted timeline, then
consumes true arrivals one at a time.  Each arrival is reconciled with the
prediction: a correctly predicted edge costs nothing, a mispredicted one is
pulled forward to its true position (shifting the displaced block right),
and an unpredicted one is spliced in while the prediction's last slot is
truncated.  Both corrections rewrite the engine's own copy of the
prediction (a model.InsertSequence), never the caller's.  Only the
prefixes the shift jumped over change, and an unpredicted arrival may move
the exact distances at time m.

Repair is demand-driven (see offline.py), and the structure owns every
repair decision.  An arrival at time t only reports what changed: the span
of prefixes its shift jumped over goes to mark_prefixes, and an unpredicted
arrival calls recompute_base, which leaves the root a pending diff when the
time-m anchor moved.  The live distance array D after arrival t holds the
estimates at t, which read only node t, its ancestors and base_m, so only
that chain is settled, root first; every other node waits, with its input
diffs accumulated, until a later chain reaches it or flush() settles the
whole tree.  Repair cost thus tracks prediction quality rather than instance
size, and a node dirtied many times between two demands is solved once.
D is rewritten only where an estimate changed (wholly at t = m), and only
the vertices of the path nodes that settle_chain swapped in or out are
compared, so an arrival that re-solves nothing costs about the alive sets
of the few deepest nodes on its path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    UNREACHABLE,
    EdgeInsert,
    InsertSequence,
    ProblemInstance,
    align_prediction,
    check_arrival,
    check_prediction,
    prepare_for_build,
)
from .offline import (
    OfflineStructure,
    SolveCounters,
    build_offline,
    structures_equal,
    time_chain,
)


class RunCounters:
    """Run totals over every arrival of one engine.

    sink is the SolveCounters that every settled node feeds, on an
    arrival's chain or in a flush, so nodes_rebuilt counts real re-solves
    and sink.nodes_skipped the dirty nodes kept without one; flush_rebuilt
    and flush_skipped count the part of each that flushes did.
    full_rebuilds counts the arrivals that moved the time-m anchor and so
    left the root a pending diff.
    """

    def __init__(self, n: int, m: int):
        self.jumps_per_position = [0] * (m + 2)  # 1-based positions 1..m
        self.total_jumps = 0
        self.sink = SolveCounters(n, m, per_node_rebuilds=True)
        self.flush_rebuilt = 0
        self.flush_skipped = 0
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

    nodes_rebuilt and nodes_skipped count the nodes of the arrival's chain
    (node t and its ancestors) that were re-solved or kept; a flush's work
    is counted apart.  rebuilt_interval is the interval of the shallowest
    node re-solved (None when none was), so every re-solved node lies in
    it.  full_rebuild marks an arrival that moved the time-m anchor and
    left the root a pending diff.  d_writes counts the entries of D that
    changed (all n at t = m).
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

    def __init__(self, instance: ProblemInstance, prediction):
        self.instance = instance
        self.m = instance.m
        self.n = instance.n
        self.source = instance.source
        self.timeline = InsertSequence(prediction)
        if len(self.timeline) != self.m:
            raise ValueError("prediction length must match the padded timeline")
        check_prediction(self.timeline, instance)
        pred_instance = replace(instance, sigma=self.timeline)
        self._structure = build_offline(pred_instance, with_entry_times=False)
        self.t = 0
        self.D: list[float] = [UNREACHABLE] * self.n
        self.D[self.source] = 0.0
        self.counters = RunCounters(self.n, self.m)

    def insert(self, edge: EdgeInsert) -> InsertReport:
        """Apply one true arrival; a rejected arrival leaves the engine unchanged."""
        t_prime = check_arrival(edge, self.timeline, self.t, self.n, self.instance.W)
        # Positions 1..t of the timeline hold exactly the arrived edges.
        if t_prime <= self.t:
            raise ValueError("duplicate insertion")

        t = self.t + 1
        m = self.m
        structure = self._structure

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
            structure.mark_prefixes(t, hi_pos, edge.edge_id)
        else:
            jumped_positions = None
        moved = structure.recompute_base() if case == "absent" else {}
        if moved:
            self.counters.full_rebuilds += 1

        sink = self.counters.sink
        rebuilt_before, skipped_before = sink.nodes_solved, sink.nodes_skipped
        touched, rebuilt_interval = structure.settle_chain(t, sink)
        self.t = t
        D = self.D
        if t == m:  # D is base_m, written whole as the time-m anchor
            D[:] = structure.base_m
            d_writes = self.n
        else:
            estimates = structure.est_t
            d_writes = 0
            for v in range(self.n) if t == 1 else touched:  # D starts at time 0
                if D[v] != estimates[v]:
                    D[v] = estimates[v]
                    d_writes += 1
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
            full_rebuild=bool(moved),
            d_writes=d_writes,
        )

    def flush(self) -> None:
        """Settle every node that the arrivals left pending."""
        c = self.counters
        rebuilt, skipped = c.sink.nodes_solved, c.sink.nodes_skipped
        self._structure.flush(c.sink)
        c.flush_rebuilt += c.sink.nodes_solved - rebuilt
        c.flush_skipped += c.sink.nodes_skipped - skipped

    @property
    def structure(self) -> OfflineStructure:
        """The recursion tree, flushed first so that every node is current."""
        self.flush()
        return self._structure

    def fresh_rebuild(self) -> OfflineStructure:
        """From-scratch build on the current corrected timeline (test hook).

        The copy builds its own columns from the edge list, so comparing
        against it also checks that the corrections kept the two in step.
        """
        pred_instance = replace(self.instance, sigma=InsertSequence(self.timeline))
        return build_offline(pred_instance, table=self._structure.table, with_entry_times=False)

    def matches_fresh_build(self) -> bool:
        """Node-for-node equality with a fresh build, after a flush."""
        return structures_equal(self.structure, self.fresh_rebuild())

    def chain_matches_fresh_build(self) -> bool:
        """Whether base_m and the nodes on the current time's chain equal a fresh build's.

        No flush: these are the nodes every arrival settles.
        """
        return structures_equal(self._structure, self.fresh_rebuild(), time_chain(self.t, self.m))


def start_online(instance: ProblemInstance, prediction_edges: list[EdgeInsert] | None = None) -> OnlineEngine:
    """Pad the instance, align the prediction, and return a ready engine.

    ``prediction_edges`` of None means a perfect prediction (the padded
    true timeline itself).
    """
    padded = prepare_for_build(instance)
    if prediction_edges is None:
        return OnlineEngine(padded, padded.sigma)
    return OnlineEngine(padded, align_prediction(prediction_edges, padded))
