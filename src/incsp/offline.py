"""Recursion tree over an insertion timeline.

The timeline [0, m] is halved recursively; a node covering [lo, hi] owns
the midpoint time mid = (lo + hi) / 2.  A vertex is *alive* at mid when it
is alive at both interval ends and its estimates there differ; everything
else is *dead* and silently keeps the estimate of its nearest alive
ancestor.  Distances at mid come from one Dijkstra over a patch graph:
alive edges between alive vertices are copied, and alive edges whose tail
is dead are folded into the search's seeded start labels, the tail's
settled estimate plus the edge weight.  Results are rounded up onto the
fine grid, so a vertex can only be alive where its rounded estimate
actually moves, which keeps the total alive work near-linear.

Anchors: time m stores exact distances over the full timeline, time 0 is
implicit (0 at the source, unreachable elsewhere).  One end of every
interval is the parent's midpoint and the other a shallower ancestor's or
an anchor, so a vertex alive at a node is alive at every ancestor.  One
walk settles the tree root first, both to build it (every node starts
unbuilt, and an unbuilt node is simply solved) and to flush a repair.  It
carries one estimate array down the recursion: entry v holds v's estimate
at its deepest alive strict ancestor of the current node, or the time-m
anchor when no ancestor has it alive.  A node writes its estimates into
the array before recursing and restores the old entries afterwards, so
whether a vertex is alive at an interval end is a dict hit on the end node
and a dead tail's estimate at mid is one array read.

Edge reads: a node's alive set is read from its two end maps alone (the
smaller one is iterated), and its alive edges are the edges of prefix mid
into that set.  The timeline's EdgeColumns (model.py), built once per
timeline and shared by every structure on it, lists each head's in-edges
in position order beside their (tail, weight) hops, so an alive vertex's
alive edges are the front of its list, cut by one bisect at mid.  Build and
repair read the same edges, and nodes store none: alive_edges derives them
from the timeline, which the online engine's corrections keep current.

Building in two processes: below the root the two halves of the tree read
only the root, the above array and the columns.  So from m = PARALLEL_MIN_M
on, where forkpool has a spare worker, build_offline solves the root, then a
forked worker builds the right half while the caller builds the left.  What
crosses the pipe is the worker's half as flat arrays (per-node alive counts,
vertex ids, and fine-grid indices with one code for inf), its SolveCounters
and its half's entry-row witness cells; the caller rebuilds the nodes on its
own grid floats, adds the counters and takes the cellwise min of the cells.
A build inside a pool worker, or while the caller holds a pool open, never
forks.

Query tables: once the tree is built, each vertex's row records the
earliest time its estimate lies in each coarse grid cell or a lower one,
read from the time-m anchor and every node's alive estimates.  A row is
stored from the coarsest cell to the finest, so it is non-decreasing, and
a query is one plain bisect: the number of entries at or below t indexes
the answer.  QueryTable holds the rows, the bucket table and the counters;
OfflineStructure adds the tree, end maps and repair state.  Where nothing
repairs a build (all-pairs keeps one per source), a QueryTable sharing its
rows outlives the tree.

Repair: the online engine changes the structure only through mark_prefixes,
recompute_base, settle_chain and flush, and repairs on demand (change
propagation in the style of Ramalingam and Reps, driven by demand as in
Adapton).  A node's result depends only on its alive set, its alive edges
and the inherited estimates of its dead tails; those in turn come from its
two end maps, the prefix at its midpoint and the above array (see the repair
pruning notes in OfflineStructure), and the maps and the array sit on its
own ancestor chain.  So an arrival solves nothing when it is recorded: it
only adds to the pending map, which holds one input diff per dirty node.  A
diff holds the vertices whose entry in either end map moved, a stale map
{v: previous above[v]} of the inherited estimates that moved, and the net
edge delta of the prefix at its midpoint.  mark_prefixes records in each
jumped node's delta the edges gained and lost into its alive set, and
recompute_base, when an unpredicted arrival moves base_m, leaves the root a
diff of the moved entries.  settle_chain(t) then settles the ancestor chain
of time t root first, and flush() settles the whole tree with the build's
walk.  A node with a diff is kept without a Dijkstra when nothing in its
vertex diff can reach its alive set or alive edges and every edge of its
delta provably moves no distance (its alive edges follow the timeline, so
the node stays as it is), else re-solved as a build solves it; either way it
forwards how its own estimates and inherited values moved to both children's
pending diffs, which accumulate until a later chain or flush reaches them.
A node dirtied k times is thus solved at most once for all of them.  A node
without a diff equals a fresh build's once its ancestors do.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from typing import NamedTuple

from . import forkpool
from .bucketing import BucketTable, derive_internal_epsilon, make_table
from .model import UNREACHABLE, EdgeInsert, ProblemInstance

# build_offline builds the two halves of a tree in two processes from this
# timeline length on (at least 4, so that the root has two children).
# Medians of 5 builds on 2 vCPUs, parallel against sequential: n=150
# m=1024 0.054 against 0.031 s, n=500 m=4096 0.201 against 0.243 s, n=1000
# m=8192 0.53 against 0.69 s.  Every online and all-pairs bench build is
# shorter, so those stay sequential.
PARALLEL_MIN_M = 8192


def time_ancestors(t: int, m: int) -> list[int]:
    """Midpoints of the strict ancestors of the node owning time t, root first."""
    out = []
    half = m // 2
    while half:
        anchor = (t // (2 * half)) * (2 * half) + half
        if anchor == t:
            break
        out.append(anchor)
        half //= 2
    return out


def time_chain(t: int, m: int) -> list[int]:
    """Midpoints of the node owning time t and its ancestors, root first (none for an anchor)."""
    return time_ancestors(t, m) + [t] if 0 < t < m else []


def tree_level(t: int, m: int) -> int:
    """Depth of the node owning midpoint t; the root is level 1."""
    if not 0 < t < m:
        raise ValueError("internal midpoints lie strictly inside the timeline")
    v2 = (t & -t).bit_length() - 1
    return m.bit_length() - 1 - v2


@dataclass(slots=True)
class RecursionNode:
    """The node owning midpoint mid; its interval is [mid - span, mid + span] with span = mid & -mid."""

    mid: int
    alive_estimates: dict[int, float]


class _InputDiff(NamedTuple):
    """How a node's inputs moved since its stored version was solved or kept.

    lo and hi hold (at least) the vertices whose entry in lo_est or hi_est
    moved (value, or present against absent); stale maps (at least) each
    vertex whose inherited estimate above[v] moved to the value the stored
    version saw; delta is the net change of the prefix at its midpoint among
    the edges into its stored alive set, {edge id: gained?}, empty when that
    is unchanged.  Each entry owns its delta, which mark_prefixes updates in
    place.
    """

    lo: set[int]
    hi: set[int]
    stale: dict[int, float]
    delta: dict[int, bool]


def _moved_keys(new: dict[int, float], old: dict[int, float]) -> set[int]:
    """Vertices whose entry differs between two estimate maps."""
    return {v for v in new.keys() | old.keys() if new.get(v) != old.get(v)}


def _children_stale(
    stale: dict[int, float], above: list[float], new: dict[int, float], old: dict[int, float], moved: set[int]
) -> dict[int, float]:
    """The stale map below a node whose alive estimates went from old to new.

    above still holds the node's own inherited estimates, so a vertex the
    node does not hold alive inherits above[v] now and stale.get(v, above[v])
    before; moved is _moved_keys(new, old).  A vertex the node holds alive
    at an unmoved estimate hands that same value down, so only stale
    vertices outside both maps and the moved ones can enter the result.
    """
    if not moved and stale.keys().isdisjoint(new):
        return stale
    out = {v: before for v, before in stale.items() if v not in new and v not in old}
    for v in moved:
        before = old[v] if v in old else stale.get(v, above[v])
        if before != (new[v] if v in new else above[v]):
            out[v] = before
    return out


class SolveCounters:
    """Work counters for solver passes: one full build, or every repair of a run.

    node_solved runs once per Dijkstra, so rebuilds_per_node,
    alive_edges_per_node and alive_nodes_per_vertex accumulate per solve
    (after a build they describe each node's single solve).
    rebuilds_per_node is kept for a run's counters only (per_node_rebuilds);
    after a build every entry would read 1, so a build's is None.  Nodes
    with a pending diff that a repair keeps without a Dijkstra, those whose
    prefix delta was proved harmless included, count in nodes_skipped only.
    scan_work sums, over the solved nodes, the entries of the smaller end
    map tested for the alive set plus the alive edges read from the
    timeline's in-edge index, the same in build and repair.
    """

    def __init__(self, n: int, m: int, per_node_rebuilds: bool = False):
        self.rebuilds_per_node = [0] * m if per_node_rebuilds else None  # indexed by midpoint
        self.alive_edges_per_node = [0] * m  # indexed by midpoint
        self.alive_nodes_per_vertex = [0] * n
        self.nodes_solved = 0
        self.nodes_skipped = 0
        self.total_alive_edges = 0
        self.scan_work = 0

    def node_solved(self, mid, scanned, alive_edge_count, alive_vertices):
        if self.rebuilds_per_node is not None:
            self.rebuilds_per_node[mid] += 1
        self.alive_edges_per_node[mid] += alive_edge_count
        per_vertex = self.alive_nodes_per_vertex
        for v in alive_vertices:
            per_vertex[v] += 1
        self.nodes_solved += 1
        self.total_alive_edges += alive_edge_count
        self.scan_work += scanned

    def add(self, other: SolveCounters) -> None:
        """Add another pass's counts to these (a worker's half of one build)."""
        for mine, theirs in ((self.alive_edges_per_node, other.alive_edges_per_node),
                             (self.alive_nodes_per_vertex, other.alive_nodes_per_vertex)):
            for i, count in enumerate(theirs):
                if count:
                    mine[i] += count
        self.nodes_solved += other.nodes_solved
        self.nodes_skipped += other.nodes_skipped
        self.total_alive_edges += other.total_alive_edges
        self.scan_work += other.scan_work


def dijkstra(adj, seeds: dict[int, float], bound: float = UNREACHABLE, last_hop=None):
    """Heap Dijkstra from the seeded labels {vertex: label}.

    adj[u] yields (head, weight) pairs and must exist for every reachable
    u, so a list of lists or a dict keyed by the patch vertices both work.
    Integer weights and labels give integer distances.  Without last_hop,
    returns the distances of the reached vertices.  With it, returns the
    least label of a target outside adj, which each settled u reaches by
    an edge of weight last_hop(u), or bound when no label is lower; it
    pushes no label at or above the best so far and stops once the next
    popped label reaches it.
    """
    dist = dict(seeds)
    heap = [(d, v) for v, d in dist.items()]
    heapify(heap)
    best = bound
    while heap:
        d, u = heappop(heap)
        if d >= best:
            break
        if d > dist[u]:
            continue
        if last_hop is not None and (nd := d + last_hop(u)) < best:
            best = nd
        for v, w in adj[u]:
            nd = d + w
            if nd < best and nd < dist.get(v, UNREACHABLE):
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist if last_hop is None else best


class QueryTable:
    """One source's query tables without the tree: entry rows (None when not
    kept), the BucketTable their cells index and the build's SolveCounters.
    Row v lists v's entry times from the coarsest cell to the finest, so
    _answers[c], the answer when c of its entries are at or below t, is
    UNREACHABLE for c = 0 and the c-th coarse value from the top otherwise
    (the table's answers tuple, one for every structure on the table).
    No slots, so a caller may shadow query on an instance (the bench does).
    """

    def __init__(self, n, m, source, table: BucketTable, entry_times: list[list[int]] | None, stats):
        self.n, self.m, self.source = n, m, source
        self.table, self.entry_times, self.stats = table, entry_times, stats
        self._answers = table.answers

    def _entry_row(self, v: int, t: int) -> list[int] | None:
        """v's entry-time row after argument checks; None for the source."""
        if self.entry_times is None:
            raise ValueError("structure was built without query tables")
        if not 0 <= v < self.n:
            raise ValueError("vertex id out of range")
        if not 0 <= t <= self.m:
            raise ValueError("time out of range")
        return None if v == self.source else self.entry_times[v]

    def query(self, v: int, t: int) -> float:
        """Approximate distance at time t: one bisect over v's non-decreasing row."""
        rows = self.entry_times
        if rows is None or not (0 <= v < self.n and 0 <= t <= self.m):
            self._entry_row(v, t)  # raises the argument's error
        if v == self.source:
            return 0.0
        return self._answers[bisect_right(rows[v], t)]

    def query_with_cost(self, v: int, t: int) -> tuple[float, int]:
        """query(v, t) plus the comparison count of a binary search over the
        row from the finest cell down, the order the counts were defined in."""
        row = self._entry_row(v, t)
        if row is None:
            return 0.0, 0
        c = bisect_right(row, t)
        return self._answers[c], search_steps(len(row), len(row) - c)


def search_steps(length: int, index: int) -> int:
    """Comparisons a halving search over length ordered slots makes to find index.

    Each step tests slot mid against the sought slot, so the count depends
    only on the two ints; a counted search is one bisect plus this.
    """
    lo, hi, steps = 0, length, 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if mid < index:
            lo = mid + 1
        else:
            hi = mid
    return steps


class OfflineStructure(QueryTable):
    """Recursion tree, end maps and repair state over one source's query tables."""

    def __init__(self, instance: ProblemInstance, table: BucketTable):
        m = instance.m
        if m < 2 or m & (m - 1):
            raise ValueError("build requires a power-of-two timeline of length >= 2")
        n = instance.n
        super().__init__(n, m, instance.source, table, None, SolveCounters(n, m))
        self.cols = instance.sigma.columns  # model.EdgeColumns, shared by every structure on this timeline
        self.nodes: list[RecursionNode | None] = [None] * m
        # The interval-end maps at times 0 and m live across repairs;
        # recompute_base keeps the time-m one in step with base_m.
        self.base_m: list[float] = [UNREACHABLE] * self.n
        self._est_m: dict[int, float] = dict.fromkeys(range(self.n), UNREACHABLE)
        self._est_0: dict[int, float] = dict.fromkeys(range(self.n), UNREACHABLE)
        self._est_0[self.source] = 0
        # Repair state (see the module docstring): each node's pending diff.
        self.pending: dict[int, _InputDiff] = {}
        # settle_chain's estimates at the last time it settled (None before
        # the first call), the path it overlaid there as (node, undo) pairs,
        # and the base_m entries moved since.
        self.est_t: list[float] | None = None
        self._path: list[tuple[RecursionNode, list[float]]] = []
        self._base_moved: set[int] = set()

    # -- solving -------------------------------------------------------------

    def _solve_node(self, lo, hi, lo_est, hi_est, above, sink):
        """Solve and store the node covering [lo, hi]; returns the node.

        lo_est and hi_est map the vertices alive at each interval end to
        their estimates there; a vertex missing from either is dead here,
        and one present in both with different estimates is alive.  above[v]
        is v's estimate at its deepest alive strict ancestor (the time-m
        anchor when there is none), which is where a dead tail's estimate at
        mid settles.
        """
        mid = (lo + hi) // 2
        cols = self.cols
        into, hops, key = cols.into, cols.hops, cols.position.__getitem__
        small, large = (lo_est, hi_est) if len(lo_est) <= len(hi_est) else (hi_est, lo_est)
        alive = [v for v, est in small.items() if large.get(v, est) != est]

        # Patch graph over v's alive edges, the edges into v among the first
        # mid: alive tails copy their edge, dead tails fold into one seeded
        # label per head using their settled estimate at mid (resolved
        # strictly above this node; the node itself is being recomputed).
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in alive}
        seeds: dict[int, float] = {}
        read = 0
        for v in alive:
            k = bisect_right(into[v], mid, key=key)
            read += k
            seed = UNREACHABLE
            for u, w in hops[v][:k]:
                if u in adj:
                    adj[u].append((v, w))
                elif (length := above[u] + w) < seed:
                    seed = length
            if seed != UNREACHABLE:
                seeds[v] = seed

        # Rounded up onto the fine grid as BucketTable.round_up_value rounds;
        # the search reaches only alive vertices, and the rest stay at inf.
        fine = self.table.fine
        top, estimates = fine[-1], dict.fromkeys(alive, UNREACHABLE)
        for v, d in dijkstra(adj, seeds).items():
            estimates[v] = fine[bisect_left(fine, d)] if 0 < d <= top else (0.0 if d == 0 else UNREACHABLE)
        node = self.nodes[mid] = RecursionNode(mid, estimates)
        sink.node_solved(mid, len(small) + read, read, alive)
        return node

    def alive_edges(self, node: RecursionNode) -> list[int]:
        """node's alive edges, derived from the timeline: the edges of prefix
        node.mid into its alive set, by head and then by position."""
        into, key, mid = self.cols.into, self.cols.position.__getitem__, node.mid
        return [eid for v in node.alive_estimates for eid in into[v][: bisect_right(into[v], mid, key=key)]]

    # -- repair pruning ----------------------------------------------------------
    #
    # A node's result depends only on its alive set, its alive edges and the
    # inherited estimates of the dead tails among them.  The alive set is the
    # set of vertices alive at both ends with different estimates, and the
    # alive edges are all edges of prefix mid into it.  Estimates are never
    # below the exact distances, so an alive vertex, finite at hi, has an
    # in-edge among the first hi edges and a list in the in-edge index (the
    # source holds 0 throughout and is never alive).  A node is settled
    # after its ends (both are ancestors), so its end maps are those of a
    # fresh build, and the result can move only through a vertex whose end
    # entry moved, a change to the prefix at mid, or a stale dead tail.  The
    # arriving edge enters the prefixes through the prefix marks, and the
    # truncated last edge sits at position m, in no internal prefix.  With
    # the alive set fixed, a prefix change moves the alive edges by exactly
    # the delta the marks recorded, and _delta_kept proves from the stored
    # rounded estimates alone that no rounded estimate moves: the losses lie
    # off every shortest path inside the grid, and the gains bring no
    # distance lower inside it.  The kept node's alive edges, read from the
    # timeline, are then the fresh build's.

    def _node_kept(self, node, lo_est, hi_est, diff: _InputDiff) -> bool:
        """Whether node keeps its alive set, and its patch graph apart from diff.delta.

        A vertex whose end entry moved keeps its alive status when it was
        alive and still differs across the ends, or was dead and now is
        missing from an end or equal at both.  No alive edge of the stored
        version may have a stale dead tail; those edges are the ones the
        timeline gives now, less the delta's gains, plus its losses.
        """
        alive = node.alive_estimates
        for v in chain(diff.lo, diff.hi):
            est_lo = lo_est.get(v)
            est_hi = hi_est.get(v)
            if (v in alive) != (est_lo is not None and est_hi is not None and est_lo != est_hi):
                return False
        stale, delta = diff.stale, diff.delta
        if stale:
            tail = self.cols.tail
            lost = [eid for eid, gained in delta.items() if not gained]
            for eid in chain(self.alive_edges(node), lost):
                u = tail[eid]
                if u in stale and u not in alive and not delta.get(eid):
                    return False
        return True

    def _delta_kept(self, node, delta: dict[int, bool], above: list[float]) -> bool:
        """Whether the prefix change delta provably moves none of node's estimates.

        est, the stored estimates, rounds the patch graph's distances up onto
        the fine grid; a distance beyond the last grid point rounds to inf.
        low(u) bounds the unrounded distance of a tail u from below: for an
        alive u strictly, by the grid point under est[u] (0 under the first),
        and for a dead u exactly, by its folded length above[u].  An alive u
        at inf lies beyond the grid, and so does every path through it, so
        its low(u) is inf.  A lost edge u -> v lies on no shortest path to a
        vertex with a finite estimate when est[v] is inf or low(u) + w
        reaches est[v] (passes it, for a dead tail, whose bound is exact); a
        gained edge brings no vertex below its distance or inside the grid
        when low(u) + w reaches est[v].  Then every finite estimate keeps
        its distance and every infinite one stays beyond the grid, so the
        rounded estimates are unchanged.  The caller has checked with
        _node_kept that the alive set and every other patch edge stand.
        """
        est, fine = node.alive_estimates, self.table.fine
        head, tail, weight = self.cols.head, self.cols.tail, self.cols.weight
        for eid, gained in delta.items():
            bound = est[head[eid]]
            if bound == UNREACHABLE and not gained:
                continue
            u = tail[eid]
            if u in est:
                low = est[u]
                if low != UNREACHABLE:
                    i = bisect_left(fine, low)
                    low = fine[i - 1] if i else 0.0
                if low + weight[eid] >= bound:
                    continue
            elif gained:
                if above[u] + weight[eid] >= bound:
                    continue
            elif above[u] + weight[eid] > bound:
                continue
            return False
        return True

    def _ends(self, lo: int, hi: int):
        """lo_est and hi_est of the node covering [lo, hi], read from its ancestors."""
        lo_est = self._est_0 if lo == 0 else self.nodes[lo].alive_estimates
        return lo_est, self._est_m if hi == self.m else self.nodes[hi].alive_estimates

    # -- demand-driven repair --------------------------------------------------

    def _push(self, mid: int, lo: set[int], hi: set[int], stale: dict[int, float]) -> None:
        """Add a vertex diff to node mid's pending one, keeping its delta and
        the first old value of each stale vertex."""
        if not (lo or hi or stale):
            return
        old = self.pending.get(mid)
        if old is None:
            self.pending[mid] = _InputDiff(lo, hi, stale, {})
        else:
            self.pending[mid] = _InputDiff(old.lo | lo, old.hi | hi, {**stale, **old.stale}, old.delta)

    def mark_prefixes(self, first: int, last: int, arrived: int) -> None:
        """Record that each prefix p in [first, last] gained ``arrived`` and
        lost the edge now at 0-based index p of the timeline (the one the
        shift pushed out of prefix p); prefixes from m on own no node and
        are skipped.

        Each edge whose head node p's stored alive set holds enters the
        delta of p's pending diff, as gained or lost; an edge it already
        holds the other way cancels out.  The stored version stays until
        it is settled, so the alive set tested is the one settling sees.
        """
        head, order, nodes, pending = self.cols.head, self.cols.order, self.nodes, self.pending
        into = head[arrived]
        for p in range(first, min(last, self.m - 1) + 1):
            alive = nodes[p].alive_estimates
            lost = order[p]
            gains, loses = into in alive, head[lost] in alive
            if gains or loses:
                diff = pending.get(p)
                if diff is None:
                    diff = pending[p] = _InputDiff(frozenset(), frozenset(), {}, {})
                delta = diff.delta
                if gains and delta.pop(arrived, None) is None:
                    delta[arrived] = True
                if loses and delta.pop(lost, None) is None:
                    delta[lost] = False

    def _settle(self, lo: int, hi: int, above: list[float], sink: SolveCounters) -> RecursionNode:
        """Bring the node covering [lo, hi] up to date and return it; its ancestors must be.

        above holds the node's inherited estimates.  A node not yet built is
        solved.  A built node without a pending diff is returned as it is.
        Otherwise it is kept when _node_kept and _delta_kept both hold (its
        alive edges follow the timeline), and re-solved else; how its
        estimates and inherited values moved goes to both children's pending
        diffs.
        """
        mid = (lo + hi) // 2
        old = self.nodes[mid]
        if old is None:
            return self._solve_node(lo, hi, *self._ends(lo, hi), above, sink)
        diff = self.pending.pop(mid, None)
        if diff is None:
            return old
        lo_est, hi_est = self._ends(lo, hi)
        if self._node_kept(old, lo_est, hi_est, diff) and self._delta_kept(old, diff.delta, above):
            node, moved = old, set()
            sink.nodes_skipped += 1
        else:
            node = self._solve_node(lo, hi, lo_est, hi_est, above, sink)
            moved = _moved_keys(node.alive_estimates, old.alive_estimates)
        if hi - lo > 2:
            stale = _children_stale(diff.stale, above, node.alive_estimates, old.alive_estimates, moved)
            self._push((lo + mid) // 2, diff.lo, moved, stale)
            self._push((mid + hi) // 2, moved, diff.hi, stale)
        return node

    def _walk(self, lo: int, hi: int, above: list[float], sink: SolveCounters) -> None:
        """Settle the node covering [lo, hi], then its subtree, root first.

        above holds the node's inherited estimates; the node's own are
        written into it for the recursion and restored afterwards.
        """
        node = self._settle(lo, hi, above, sink)
        if hi - lo <= 2:
            return
        mid = (lo + hi) // 2
        estimates = node.alive_estimates
        undo = [above[v] for v in estimates]
        for v, value in estimates.items():
            above[v] = value
        self._walk(lo, mid, above, sink)
        self._walk(mid, hi, above, sink)
        for v, value in zip(estimates, undo):
            above[v] = value

    def resolve_subtree(self, sink: SolveCounters) -> None:
        """Build the tree: settle every node of the unbuilt tree, root first."""
        self._walk(0, self.m, list(self.base_m), sink)

    def _build_in_halves(self, with_cells: bool) -> list[int] | None:
        """Build the unbuilt tree in two processes; with_cells also returns every node's witness cells.

        The caller solves the root, then one forkpool worker builds the
        right half while the caller builds the left half; both read only the
        root, the above array and the columns they share.  The worker sends
        back its nodes encoded by _encode_nodes, its SolveCounters and its
        witness cells; the caller decodes the nodes onto its own grid
        floats, adds the counters and takes the cellwise min of the cells.
        """
        m, half, sink = self.m, self.m // 2, self.stats
        above = list(self.base_m)
        root = self._settle(0, m, above, sink)
        for v, value in root.alive_estimates.items():
            above[v] = value
        right = range(half + 1, m)
        with forkpool.fork_pool(1, self, above, with_cells) as pool:
            built = pool.submit(_build_right_half)
            self._walk(0, half, above, sink)
            cells = self._witness_cells(range(1, half + 1)) if with_cells else None
            encoded, their_sink, their_cells = built.result()
            self._decode_nodes(right, *encoded)
        sink.add(their_sink)
        return list(map(min, cells, their_cells)) if with_cells else None

    def _encode_nodes(self, mids: range) -> tuple[array, array, array]:
        """The nodes at mids as three flat arrays, for a pipe.

        Per node: its alive count; then its alive vertices and their
        estimates as fine-grid indices (len(fine) for inf), each in the
        node's own order.  Plain pickles of the nodes would give each loaded
        node its own copies of the ints and floats an in-process tree shares.
        """
        fine = self.table.fine
        code = {value: i for i, value in enumerate(fine)}
        code[UNREACHABLE] = len(fine)
        sizes, vertices, grid = array("I"), array("I"), array("I")
        for mid in mids:
            estimates = self.nodes[mid].alive_estimates
            sizes.append(len(estimates))
            vertices.extend(estimates)
            grid.extend(map(code.__getitem__, estimates.values()))
        return sizes, vertices, grid

    def _decode_nodes(self, mids: range, sizes, vertices, grid) -> None:
        """Store the nodes _encode_nodes encoded, on this structure's grid floats."""
        ids = tuple(range(self.n))
        values = (*self.table.fine, UNREACHABLE)
        pairs = zip(map(ids.__getitem__, vertices), map(values.__getitem__, grid))
        for mid, alive in zip(mids, sizes):
            self.nodes[mid] = RecursionNode(mid, dict(islice(pairs, alive)))

    def flush(self, sink: SolveCounters) -> None:
        """Settle every node, root first."""
        if self.pending:
            self._walk(0, self.m, list(self.base_m), sink)

    def settle_chain(self, t: int, sink: SolveCounters) -> tuple[list[int], tuple[int, int] | None]:
        """Settle node t and its ancestors, root first, and bring est_t to time t.

        est_t is base_m overlaid with the alive estimates of the path (t's
        ancestors, then t) root first.  Each overlay keeps the entries it
        replaced, so a call undoes the previous path only below the part
        the new path shares with it and needs no settling, then overlays
        the rest; consecutive times share all but the deepest nodes.  A
        node changes only when settled, and settling acts only on a node
        with a pending diff, so the shared part is current; a moved base_m
        leaves a diff at the root, so the whole path is undone before the
        moved entries are written.  Returns the vertices whose entry may
        have moved since the previous call (all of them may have on the
        first) and the interval of the shallowest node re-solved (None when
        none was).
        """
        if self.est_t is None:
            self.est_t = list(self.base_m)
        est, path, touched = self.est_t, self._path, []
        mids = time_chain(t, self.m)
        keep = 0
        for (node, _), mid in zip(path, mids):
            if node.mid != mid or mid in self.pending:
                break
            keep += 1
        while len(path) > keep:
            node, undo = path.pop()
            for v, value in zip(node.alive_estimates, undo):
                est[v] = value
            touched.extend(node.alive_estimates)
        for v in self._base_moved:
            est[v] = self.base_m[v]
        touched.extend(self._base_moved)
        self._base_moved.clear()
        top = None
        for mid in mids[keep:]:
            span = mid & -mid
            solved = sink.nodes_solved
            node = self._settle(mid - span, mid + span, est, sink)
            if top is None and sink.nodes_solved > solved:
                top = (mid - span, mid + span)
            alive = node.alive_estimates
            path.append((node, [est[v] for v in alive]))
            for v, value in alive.items():
                est[v] = value
            touched.extend(alive)
        return touched, top

    def recompute_base(self, arrived: EdgeInsert | None = None, dropped: EdgeInsert | None = None) -> dict[int, float]:
        """Refresh the exact distances at time m; map each moved entry to its old value.

        An absent arrival changes the time-m graph by one gained edge,
        arrived, and one lost edge, dropped (the truncated last edge).  When
        dropped lies on no shortest path (its tail is unreachable, or its
        tail's distance plus its weight exceeds its head's) and arrived
        shortens none, no distance moves, and the Dijkstra is skipped.
        Once the tree is built, the moved entries also become a pending diff
        at the root (its hi end and its inherited estimates both read
        base_m) and are recorded for settle_chain to write into est_t.
        """
        base = self.base_m
        if arrived is not None and (
            (base[dropped.tail] == UNREACHABLE or base[dropped.tail] + dropped.weight > base[dropped.head])
            and base[arrived.tail] + arrived.weight >= base[arrived.head]
        ):
            return {}
        cols = self.cols
        head, tail, weight = cols.head, cols.tail, cols.weight
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid in cols.order:
            adj[tail[eid]].append((head[eid], weight[eid]))
        dist = dijkstra(adj, {self.source: 0})
        new = [dist.get(v, UNREACHABLE) for v in range(self.n)]
        moved = {v: old for v, (old, value) in enumerate(zip(self.base_m, new)) if old != value}
        self.base_m = new
        for v in moved:
            self._est_m[v] = new[v]
        if moved and self.nodes[self.m // 2] is not None:
            self._push(self.m // 2, set(), set(moved), moved)
            self._base_moved.update(moved)
        return moved

    # -- query tables ----------------------------------------------------------

    def _witness_cells(self, mids: range) -> list[int]:
        """Cell v * len(coarse) + c: the earliest of mids at which v's estimate lies in coarse cell c (m + 1 when none does).

        Alive estimates lie on the fine grid, so each cell is one lookup in
        the table's cell_of_fine; an estimate at inf lies in no cell.
        """
        k, cell_of = len(self.table.coarse), self.table.cell_of_fine
        cells = [self.m + 1] * (self.n * k)
        for mid in reversed(mids):  # latest first, so each cell ends with its earliest witness
            for v, value in self.nodes[mid].alive_estimates.items():
                if value != UNREACHABLE:
                    cells[v * k + cell_of[value]] = mid
        return cells

    def _entry_times_from_tree(self, cells: list[int]) -> list[list[int]]:
        """Entry rows from the witness cells of every node (see _witness_cells).

        Row v holds, for each coarse cell, the earliest time at which v's
        estimate lies in that cell or a lower one (m + 1 when it never
        does).  It is filled finest cell first, where those times are
        non-increasing, then reversed, so the stored row runs from the
        coarsest cell to the finest and is non-decreasing.  Every value is
        a genuine witness time: a node's midpoint, the time-m anchor, or 0
        at the source.
        """
        m, k, cell_of = self.m, len(self.table.coarse), self.table.coarse_cell_of_value
        for v, value in enumerate(self.base_m):
            if value != UNREACHABLE:
                i = v * k + cell_of(value)
                cells[i] = min(cells[i], m)
        cells[self.source * k] = 0  # estimate 0 before anything arrives
        rows = [cells[i : i + k] for i in range(0, len(cells), k)]
        for row in rows:  # fill and floor: each cell takes the least time at or below it
            carry = m + 1
            for i, value in enumerate(row):
                carry = row[i] = value if value < carry else carry
            row.reverse()
        return rows


def build_offline(
    instance: ProblemInstance,
    table: BucketTable | None = None,
    with_entry_times: bool = True,
) -> OfflineStructure:
    """Build the full structure for a padded instance.

    A shared BucketTable may be passed in (the all-pairs engine builds n
    structures against one table); it must match the instance parameters.
    From m = PARALLEL_MIN_M on, where forkpool has a spare worker, the two
    halves of the tree are built in two processes (see
    OfflineStructure._build_in_halves); the result equals a sequential
    build node for node, row for row and counter for counter.
    """
    eps_internal = derive_internal_epsilon(instance.epsilon)
    if table is None:
        table = make_table(eps_internal, instance.m, instance.n, instance.W)
    elif (
        table.epsilon_internal != eps_internal
        or table.delta != eps_internal / math.log2(instance.m)
        or table.fine[-1] < instance.n * instance.W
    ):
        raise ValueError("bucket table does not match the instance")
    structure = OfflineStructure(instance, table)
    structure.recompute_base()
    if instance.m >= PARALLEL_MIN_M and forkpool.spare_workers(1):
        cells = structure._build_in_halves(with_entry_times)
    else:
        structure.resolve_subtree(structure.stats)
        cells = structure._witness_cells(range(1, instance.m)) if with_entry_times else None
    if with_entry_times:
        structure.entry_times = structure._entry_times_from_tree(cells)
    return structure


def _build_right_half() -> tuple:
    """In a forkpool worker: build the right half of the inherited tree.

    Returns its nodes as _encode_nodes encodes them, its SolveCounters and,
    when asked, its witness cells as an array.
    """
    structure, above, with_cells = forkpool.inherited()
    m, half = structure.m, structure.m // 2
    sink = SolveCounters(structure.n, m)
    structure._walk(half, m, above, sink)
    right = range(half + 1, m)
    cells = array("I", structure._witness_cells(right)) if with_cells else None
    return structure._encode_nodes(right), sink, cells


def structures_equal(a: OfflineStructure, b: OfflineStructure, mids=None) -> bool:
    """Node-for-node equality: anchors, alive estimates and alive edge sets.

    mids limits the nodes compared (default: all of them).
    """
    if a.m != b.m or a.n != b.n or a.source != b.source:
        return False
    if a.base_m != b.base_m:
        return False
    for mid in range(1, a.m) if mids is None else mids:
        na, nb = a.nodes[mid], b.nodes[mid]
        if na.alive_estimates != nb.alive_estimates:
            return False
        if set(a.alive_edges(na)) != set(b.alive_edges(nb)):
            return False
    return True
