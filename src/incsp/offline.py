"""Recursion tree over an insertion timeline.

The timeline [0, m] is halved recursively; a node covering [lo, hi] owns
the midpoint time mid = (lo + hi) / 2.  A vertex is *alive* at mid when it
is alive at both interval ends and its estimates there differ; everything
else is *dead* and silently keeps the estimate of its nearest alive
ancestor.  Distances at mid come from one Dijkstra over a patch graph:
alive edges between alive vertices are copied, and alive edges whose tail
is dead are folded into source edges weighted by the tail's settled
estimate plus the edge weight.  Results are rounded up onto the fine grid,
so a vertex can only be alive where its rounded estimate actually moves,
which keeps the total alive work near-linear.

Anchors: time m stores exact distances over the full timeline, time 0 is
implicit (0 at the source, unreachable elsewhere).  One end of every
interval is the parent's midpoint and the other a shallower ancestor's or
an anchor, so a vertex alive at a node is alive at every ancestor.  The
solver therefore carries one estimate array down the recursion: entry v
holds v's estimate at its deepest alive strict ancestor of the current
node, or the time-m anchor when no ancestor has it alive.  A node writes
its fresh estimates into the array before recursing and restores the old
entries afterwards, so whether a vertex is alive at an interval end is a
dict hit on the end node and a dead tail's estimate at mid is one array
read.  estimate_at resolves the same value independently, by binary
search over the ancestor chain.

Edge scans: a node scans the list of edges alive at its hi end.  The left
child's list is the node's alive edges; the right child's is the node's
inner list, the edges of its own list whose head is in its alive set,
whatever their position.  Alive sets nest down the tree, so the right child
loses nothing it could hold alive.  Every head, tail, weight and position
is one lookup by edge id in the timeline's EdgeColumns (model.py), built
once per timeline and shared by every structure on it.

Query tables: while solving, each vertex records the earliest time its
estimate entered each coarse grid cell.  After a fill-and-floor pass the
rows are non-increasing, and a query binary-searches the row.

Repair: the online engine changes the structure only through
recompute_base and resolve_subtree.  After one arrival it hands
resolve_subtree a TimelineChange naming the only internal prefixes that
changed, and the pass re-solves only the nodes whose inputs moved (change
propagation in the style of Ramalingam and Reps).  A node's result depends
only on its alive set, its alive edges and the inherited estimates of its
dead tails; those in turn come from its two end maps, the prefix at its
midpoint and the above array.  The edges_hi list it filters decides
nothing beyond them (see the repair pruning notes in OfflineStructure).
Each node of the pass therefore receives how its inputs moved: the
vertices whose entry in either end map changed, and a stale map
{v: previous above[v]} of the inherited estimates that moved.  A node is
kept without a Dijkstra when neither these nor the prefix change at its
midpoint can reach its alive set or alive edges; a whole subtree is
skipped when, in addition, both end maps are unchanged, no stale vertex
dead at its top node is the tail of an edge into the top node's alive
set, and no jumped prefix inside it touches a vertex alive at the node
owning that prefix, because alive sets nest down the tree.  Without a
TimelineChange the solver takes the plain build path and solves every
node below [lo, hi].
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from operator import neg
from typing import NamedTuple

from .bucketing import BucketTable, derive_internal_epsilon, make_table
from .model import UNREACHABLE, ProblemInstance


def shallowest_midpoint(a: int, b: int) -> int:
    """The unique time in [a, b] with maximal 2-adic valuation.

    This is the midpoint of the shallowest recursion node whose interval
    contains [a, b]; the node's interval strictly encloses [a, b].
    """
    if not 1 <= a <= b:
        raise ValueError("empty or invalid midpoint range")
    for k in range(b.bit_length(), -1, -1):
        step = 1 << k
        candidate = (a + step - 1) >> k << k
        if candidate <= b and candidate >= step:
            return candidate
    raise AssertionError("unreachable: k=0 always yields a candidate")


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
    alive_edges: list[int]


@dataclass(frozen=True)
class TimelineChange:
    """What one online arrival changed, for resolve_subtree to prune against.

    For every internal midpoint p in ``jumped`` (inclusive, or None) prefix
    p gained the ``arrived`` edge and lost the edge now at 0-based index p
    of the timeline (the one the shift pushed out of prefix p); every other
    internal prefix is as it was.
    An unpredicted arrival also changes the time-m end: its edge set gains
    ``arrived`` and loses the truncated last edge, and ``old_base`` maps
    each base_m entry that recompute_base moved to its previous value.
    """

    jumped: tuple[int, int] | None
    arrived: int
    old_base: dict[int, float]


class _InputDiff(NamedTuple):
    """How a node's inputs differ from those its previous version was solved with.

    lo and hi hold the vertices whose entry in lo_est or hi_est differs
    (value, or present against absent); stale maps each vertex whose
    inherited estimate above[v] moved to its previous value.  How edges_hi
    changed is not part of it: see the repair pruning notes in
    OfflineStructure.
    """

    lo: set[int]
    hi: set[int]
    stale: dict[int, float]


def _moved_keys(new: dict[int, float], old: dict[int, float]) -> set[int]:
    """Vertices whose entry differs between two estimate maps."""
    return {v for v in new.keys() | old.keys() if new.get(v) != old.get(v)}


def _children_stale(
    stale: dict[int, float], above: list[float], new: dict[int, float], old: dict[int, float], moved: set[int]
) -> dict[int, float]:
    """The stale map below a node whose alive estimates went from old to new.

    above still holds the node's own inherited estimates, so a vertex the
    node does not hold alive inherits above[v] now and stale.get(v, above[v])
    before; moved is _moved_keys(new, old).
    """
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


class SolveCounters:
    """Work counters for solver passes: one full build, or every repair pass of a run.

    node_solved runs once per Dijkstra, so rebuilds_per_node,
    alive_edges_per_node and alive_nodes_per_vertex accumulate per solve
    (after a build they describe each node's single solve).  Nodes a repair
    pass keeps without a Dijkstra count in nodes_skipped only.  scan_work
    sums the lengths of the edge lists the solved nodes scanned, each right
    child's narrowed inner list included.
    """

    def __init__(self, n: int, m: int):
        self.rebuilds_per_node = [0] * m  # indexed by midpoint
        self.alive_edges_per_node = [0] * m  # indexed by midpoint
        self.alive_nodes_per_vertex = [0] * n
        self.nodes_solved = 0
        self.nodes_skipped = 0
        self.total_alive_edges = 0
        self.scan_work = 0

    def node_solved(self, mid, scanned, alive_edge_count, alive_vertices):
        self.rebuilds_per_node[mid] += 1
        self.alive_edges_per_node[mid] += alive_edge_count
        per_vertex = self.alive_nodes_per_vertex
        for v in alive_vertices:
            per_vertex[v] += 1
        self.nodes_solved += 1
        self.total_alive_edges += alive_edge_count
        self.scan_work += scanned


def dijkstra(adj, source: int, target: int | None = None) -> dict[int, float]:
    """Heap Dijkstra from source; distances of the reached vertices only.

    adj[u] lists (head, weight) pairs and must exist for every reachable u
    other than target, so a list of lists or a dict keyed by the patch
    vertices both work.  Integer weights give integer distances.  With a
    target, the search stops when it pops target: dist[target] is final
    (and absent if target is unreachable), other entries may be too high.
    """
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, UNREACHABLE):
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


class OfflineStructure:
    """Recursion tree plus query tables for one source."""

    def __init__(self, instance: ProblemInstance, table: BucketTable, with_entry_times: bool):
        m = instance.m
        if m < 2 or m & (m - 1):
            raise ValueError("build requires a power-of-two timeline of length >= 2")
        self.n = instance.n
        self.m = m
        self.source = instance.source
        self.table = table
        self.cols = instance.sigma.columns  # model.EdgeColumns, shared by every structure on this timeline
        self.nodes: list[RecursionNode | None] = [None] * m
        # The interval-end maps at times 0 and m live across resolve_subtree
        # calls; recompute_base keeps the time-m one in step with base_m.
        self.base_m: list[float] = [UNREACHABLE] * self.n
        self._est_m: dict[int, float] = dict.fromkeys(range(self.n), UNREACHABLE)
        self._est_0: dict[int, float] = dict.fromkeys(range(self.n), UNREACHABLE)
        self._est_0[self.source] = 0
        self.unset = m + 1  # sentinel above every valid time
        self.entry_times: list[list[int]] | None = None
        if with_entry_times:
            cells = len(table.coarse)
            self.entry_times = [[self.unset] * cells for _ in range(self.n)]
        self.stats = SolveCounters(self.n, m)

    # -- estimate resolution -------------------------------------------------

    def _resolve_above(self, v: int, t: int) -> float:
        """Estimate of v at time t for v dead at the node owning t.

        Alive flags are monotone along the ancestor chain, so binary search
        locates the deepest alive ancestor; when none exists the estimates
        at both timeline ends agree and the anchor value is returned.
        """
        chain = time_ancestors(t, self.m)
        lo, hi = 0, len(chain)
        while lo < hi:
            mid = (lo + hi) // 2
            if v in self.nodes[chain[mid]].alive_estimates:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return self.base_m[v]
        return self.nodes[chain[lo - 1]].alive_estimates[v]

    def estimate_at(self, v: int, t: int) -> float:
        """The rounded estimate the structure holds for v at time t."""
        if not 0 <= t <= self.m:
            raise ValueError("time out of range")
        if not 0 <= v < self.n:
            raise ValueError("vertex id out of range")
        if t == 0:
            return 0 if v == self.source else UNREACHABLE
        if t == self.m:
            return self.base_m[v]
        node = self.nodes[t]
        est = node.alive_estimates.get(v)
        if est is not None:
            return est
        return self._resolve_above(v, t)

    # -- solving -------------------------------------------------------------

    def _solve(
        self,
        lo: int,
        hi: int,
        lo_est: dict[int, float],
        hi_est: dict[int, float],
        edges_hi: list[int],
        above: list[float],
        sink: SolveCounters,
        change: TimelineChange | None = None,
        diff: _InputDiff | None = None,
    ) -> None:
        """Solve the node covering [lo, hi] and recurse into its children.

        lo_est and hi_est map the vertices alive at each interval end to
        their estimates there; a vertex missing from either is dead here.
        above[v] is v's estimate at its deepest alive strict ancestor (the
        time-m anchor when there is none), which is where a dead tail's
        estimate at mid settles.  The node's estimates become the children's
        inner ends and are written into above for the recursion, then
        restored.  edges_hi lists the alive edges at time hi, or a part of
        them that holds every edge into a vertex this node can hold alive;
        alive edges here are a subset of it.  The left child scans this
        node's alive edges and the right child its inner list (see
        _solve_node), except below a node the repair pass kept, which hands
        its own edges_hi on.

        With a change (an online repair pass) the nodes below still hold
        their previous versions and diff says how this node's inputs moved
        since then.  What the diff cannot reach is kept, not re-solved, and
        counted in sink.nodes_skipped.
        """
        mid = (lo + hi) // 2
        if change is None:
            node, inner = self._solve_node(lo, hi, lo_est, hi_est, edges_hi, above, sink)
        else:
            old = self.nodes[mid]
            if self._subtree_kept(lo, hi, edges_hi, diff, change):
                sink.nodes_skipped += hi - lo - 1
                return
            if self._node_kept(old, mid, lo_est, hi_est, diff, change):
                node, inner = old, edges_hi
                sink.nodes_skipped += 1
            else:
                node, inner = self._solve_node(lo, hi, lo_est, hi_est, edges_hi, above, sink)
        if hi - lo <= 2:
            return
        estimates, alive_edges = node.alive_estimates, node.alive_edges
        if change is not None:
            moved = set() if node is old else _moved_keys(estimates, old.alive_estimates)
            stale = _children_stale(diff.stale, above, estimates, old.alive_estimates, moved)
            left = _InputDiff(diff.lo, moved, stale)
            right = _InputDiff(moved, diff.hi, stale)
        undo = [above[v] for v in estimates]
        for v, value in estimates.items():
            above[v] = value
        if change is None:
            self._solve(lo, mid, lo_est, estimates, alive_edges, above, sink)
            self._solve(mid, hi, estimates, hi_est, inner, above, sink)
        else:
            self._solve(lo, mid, lo_est, estimates, alive_edges, above, sink, change, left)
            self._solve(mid, hi, estimates, hi_est, inner, above, sink, change, right)
        for v, value in zip(estimates, undo):
            above[v] = value

    def _solve_node(self, lo, hi, lo_est, hi_est, edges_hi, above, sink):
        """Solve and store the node covering [lo, hi] (arguments as in _solve).

        Returns the node and inner, the edges of edges_hi whose head is in
        its alive set, whatever their position: the list the right child
        scans.  Entry times are recorded when the structure keeps query
        tables.
        """
        mid = (lo + hi) // 2
        cols = self.cols
        head_of, tail_of, weight_of, pos = cols.head, cols.tail, cols.weight, cols.position

        heads = [head_of[eid] for eid in edges_hi]
        alive_set = set()
        for v in set(heads):
            est_lo = lo_est.get(v)
            if est_lo is not None:
                est_hi = hi_est.get(v)
                if est_hi is not None and est_lo != est_hi:
                    alive_set.add(v)
        inner = [eid for eid, v in zip(edges_hi, heads) if v in alive_set]
        alive_edges = [eid for eid in inner if pos[eid] <= mid]

        # Patch graph: alive tails copy their edge, dead tails fold into the
        # source using their settled estimate at mid (resolved strictly above
        # this node; the node itself is being recomputed).
        src = self.source
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in alive_set}
        adj.setdefault(src, [])
        best_from_source: dict[int, float] = {}
        for eid in alive_edges:
            u = tail_of[eid]
            if u in alive_set:
                adj[u].append((head_of[eid], weight_of[eid]))
                continue
            du = above[u]
            if du == UNREACHABLE:
                continue
            length = du + weight_of[eid]
            v = head_of[eid]
            if length < best_from_source.get(v, UNREACHABLE):
                best_from_source[v] = length
        for v, length in best_from_source.items():
            adj[src].append((v, length))

        dist = dijkstra(adj, src)
        table = self.table
        estimates: dict[int, float] = {}
        rows = self.entry_times
        for v in alive_set:
            value = table.round_up_value(dist.get(v, UNREACHABLE))
            estimates[v] = value
            if rows is not None and value != UNREACHABLE:
                row = rows[v]
                cell = table.coarse_cell_of_value(value)
                if mid < row[cell]:
                    row[cell] = mid
        node = RecursionNode(mid, estimates, alive_edges)
        self.nodes[mid] = node
        sink.node_solved(mid, len(edges_hi), len(alive_edges), alive_set)
        return node, inner

    # -- repair pruning ----------------------------------------------------------
    #
    # A node's result depends only on its alive set, its alive edges and the
    # inherited estimates of the dead tails among them.  The alive set is the
    # heads of edges_hi that are alive at both ends with different estimates,
    # but the edges_hi filter never decides it.  Estimates are never below
    # the exact distances, so a vertex with no in-edge among the first hi
    # edges has an infinite estimate at hi and at lo and is not alive (the
    # source holds 0 throughout and is never alive either).  A
    # vertex present in hi_est is alive at the node owning hi (or hi = m),
    # and edges_hi holds all its in-edges among the first hi edges (alive
    # edges at hi, by induction from the full timeline at m; the right
    # child's narrowed list keeps every edge into the parent's alive set,
    # which holds any vertex alive in the child).  So the alive set is the
    # set of vertices alive at both ends with different estimates, and the
    # alive edges are all edges of prefix mid into it.  The pass solves a
    # node after its ends, so its end maps are those of a fresh build, and
    # the result can move only through a vertex whose end entry moved, the
    # prefix change at mid, or a stale dead tail.  Edges that edges_hi gains
    # or loses need no check of their own: the arriving edge enters the
    # prefixes through the prefix check, and the truncated last edge sits at
    # position m, in no internal prefix.

    def _prefix_change_visible(self, alive: dict[int, float], p: int, change: TimelineChange) -> bool:
        """Whether the change to prefix p can move a node at p with this alive set."""
        jumped = change.jumped
        if jumped is None or not jumped[0] <= p <= jumped[1]:
            return False
        head = self.cols.head
        return head[change.arrived] in alive or head[self.cols.order[p]] in alive

    def _node_kept(self, node, mid, lo_est, hi_est, diff: _InputDiff, change: TimelineChange) -> bool:
        """Whether re-solving node against the current inputs would reproduce it.

        A vertex whose end entry moved keeps its alive status when it was
        alive and still differs across the ends, or was dead and now is
        missing from an end or equal at both; whether it heads an edge of
        edges_hi follows from that (see the repair pruning notes above).
        """
        alive = node.alive_estimates
        for v in chain(diff.lo, diff.hi):
            est_lo = lo_est.get(v)
            est_hi = hi_est.get(v)
            if (v in alive) != (est_lo is not None and est_hi is not None and est_lo != est_hi):
                return False
        stale = diff.stale
        if stale:
            tail = self.cols.tail
            for eid in node.alive_edges:
                u = tail[eid]
                if u in stale and u not in alive:
                    return False
        return not self._prefix_change_visible(alive, mid, change)

    def _subtree_kept(self, lo, hi, edges_hi, diff: _InputDiff, change: TimelineChange) -> bool:
        """Whether no node below [lo, hi], this one included, can differ.

        Needs both end maps unchanged, so that every node below sees the end
        maps it was solved with.  Alive sets nest down the tree, so every
        node below keeps its alive vertices within the top node's and its
        alive edges within edges_hi: a stale vertex dead at the top inherits
        the moved value throughout (and matters only as the tail of an edge
        into an alive vertex), and one alive at the top is overwritten by
        the subtree's own estimates.
        """
        if diff.lo or diff.hi:
            return False
        nodes = self.nodes
        alive = nodes[(lo + hi) // 2].alive_estimates
        stale = diff.stale
        if stale:
            head, tail = self.cols.head, self.cols.tail
            for eid in edges_hi:
                u = tail[eid]
                if u in stale and head[eid] in alive and u not in alive:
                    return False
        if change.jumped is None:
            return True
        first, last = max(lo + 1, change.jumped[0]), min(hi - 1, change.jumped[1])
        return not any(
            self._prefix_change_visible(nodes[p].alive_estimates, p, change) for p in range(first, last + 1)
        )

    def resolve_subtree(self, lo: int, hi: int, sink: SolveCounters, change: TimelineChange | None = None) -> None:
        """(Re)solve the node covering [lo, hi] and its descendants.

        Without a change every node is solved.  With one, the nodes outside
        [lo, hi] must be those the change left alone, so that only the
        time-m end can differ from before, and only nodes whose inputs
        moved are re-solved.
        """
        m = self.m
        lo_est = self._est_0 if lo == 0 else self.nodes[lo].alive_estimates
        if hi == m:
            hi_est = self._est_m
            edges_hi = self.cols.order
        else:
            hi_est = self.nodes[hi].alive_estimates
            edges_hi = self.nodes[hi].alive_edges
        # Merge the ancestors' estimates root first, so each vertex ends on its
        # deepest alive one; a fresh copy of base_m (one C-level copy) costs
        # less than undoing the writes after the pass.
        inherited: dict[int, float] = {}
        for t in time_ancestors((lo + hi) // 2, m):
            inherited.update(self.nodes[t].alive_estimates)
        above = list(self.base_m)
        for v, est in inherited.items():
            above[v] = est
        if change is None:
            self._solve(lo, hi, lo_est, hi_est, edges_hi, above, sink)
        else:
            # A moved base entry reaches above[v] only where no ancestor holds v.
            stale = {v: old for v, old in change.old_base.items() if v not in inherited}
            # Only a root pass has moved base entries, and its hi end is time m.
            diff = _InputDiff(set(), set(change.old_base), stale)
            self._solve(lo, hi, lo_est, hi_est, edges_hi, above, sink, change, diff)

    def recompute_base(self) -> dict[int, float]:
        """Refresh the exact distances at time m; map each moved entry to its old value."""
        cols = self.cols
        head, tail, weight = cols.head, cols.tail, cols.weight
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid in cols.order:
            adj[tail[eid]].append((head[eid], weight[eid]))
        dist = dijkstra(adj, self.source)
        new = [dist.get(v, UNREACHABLE) for v in range(self.n)]
        moved = {v: old for v, (old, value) in enumerate(zip(self.base_m, new)) if old != value}
        self.base_m = new
        for v in moved:
            self._est_m[v] = new[v]
        return moved

    # -- query tables ----------------------------------------------------------

    def _record_anchor_entries(self) -> None:
        rows = self.entry_times
        table = self.table
        rows[self.source][0] = 0  # estimate 0 before anything arrives
        for v, value in enumerate(self.base_m):
            if value != UNREACHABLE:
                cell = table.coarse_cell_of_value(value)
                if self.m < rows[v][cell]:
                    rows[v][cell] = self.m

    def _finalize_entry_times(self) -> None:
        # One ascending pass both fills gaps from the last recorded entry and
        # floors the row into non-increasing shape; every surviving value is a
        # genuine witness time for its cell or a smaller one.
        for row in self.entry_times:
            carry = self.unset
            for i, value in enumerate(row):
                if value < carry:
                    carry = value
                row[i] = carry

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
        """Approximate distance at time t: a bisect over v's non-increasing row."""
        row = self._entry_row(v, t)
        if row is None:
            return 0.0
        lo = bisect_left(row, -t, key=neg)
        return UNREACHABLE if lo == len(row) else self.table.coarse[lo]

    def query_with_cost(self, v: int, t: int) -> tuple[float, int]:
        """query(v, t) plus the comparison count of a counted binary search."""
        row = self._entry_row(v, t)
        if row is None:
            return 0.0, 0
        lo, hi = 0, len(row)
        comparisons = 0
        while lo < hi:
            mid = (lo + hi) // 2
            comparisons += 1
            if row[mid] <= t:
                hi = mid
            else:
                lo = mid + 1
        if lo == len(row):
            return UNREACHABLE, comparisons
        return self.table.coarse[lo], comparisons


def build_offline(
    instance: ProblemInstance,
    table: BucketTable | None = None,
    with_entry_times: bool = True,
) -> OfflineStructure:
    """Build the full structure for a padded instance.

    A shared BucketTable may be passed in (the all-pairs engine builds n
    structures against one table); it must match the instance parameters.
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
    structure = OfflineStructure(instance, table, with_entry_times)
    structure.recompute_base()
    if with_entry_times:
        structure._record_anchor_entries()
    structure.resolve_subtree(0, structure.m, structure.stats)
    if with_entry_times:
        structure._finalize_entry_times()
    return structure


def structures_equal(a: OfflineStructure, b: OfflineStructure) -> bool:
    """Node-for-node equality: anchors, alive estimates and alive edge sets."""
    if a.m != b.m or a.n != b.n or a.source != b.source:
        return False
    if a.base_m != b.base_m:
        return False
    for mid in range(1, a.m):
        na, nb = a.nodes[mid], b.nodes[mid]
        if na.alive_estimates != nb.alive_estimates:
            return False
        if set(na.alive_edges) != set(nb.alive_edges):
            return False
    return True
