"""All-pairs layer over the single-source machinery.

Offline: one per-source build per vertex, all sharing one bucket table so
estimates are mutually consistent.  Nothing repairs them and a query reads
only entry rows, so a source keeps just a QueryTable (its entry rows and
build counters, and the shared table); its recursion tree, end maps and
repair state are garbage before the next source is built.  Online:
predictions must permute the true edge set; arrivals advance a frontier
through the predicted order, and queries run Dijkstra on a small patch
whose size is bounded by the count of arrived-but-not-yet-frontier-covered
edges (at most the maximum displacement of the permutation).

The per-source structures never change after the build, so an online patch
lookup depends only on (u, v, frontier) and is one per-source query.
`OnlineApsp` caches one thing, the patch graph: the min-weight adjacency
among the pending edges' endpoints P (at most |P|(|P|-1) entries,
|P| <= 2 * pending edges), valid for one frontier and dropped when an
arrival advances it.  The first query after a frontier advance builds it;
an arrival that leaves the frontier in place adds its endpoints' rows and
columns and lowers its own entry.  A query (i, j) adds only i's out-row
and the edges into j, so it costs O(|P|) lookups plus a Dijkstra that
stops at j.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

from .bucketing import derive_internal_epsilon, make_table
from .model import (
    UNREACHABLE, EdgeInsert, ProblemInstance, align_prediction, check_edge, check_prediction, prepare_for_build,
)
from .offline import QueryTable, build_offline, dijkstra


class ApspStructure:
    """n QueryTables (entry rows and build counters, no tree) on one table; query(i, j, t) in O(log log)."""

    def __init__(self, per_source: list[QueryTable], table):
        self.per_source = per_source
        self.table = table
        self.n = len(per_source)
        self.m = per_source[0].m if per_source else 0

    def query(self, i: int, j: int, t: int) -> float:
        if not 0 <= i < self.n:
            raise ValueError("vertex id out of range")
        return self.per_source[i].query(j, t)

    def query_with_cost(self, i: int, j: int, t: int) -> tuple[float, int]:
        if not 0 <= i < self.n:
            raise ValueError("vertex id out of range")
        return self.per_source[i].query_with_cost(j, t)


def build_apsp(instance: ProblemInstance) -> ApspStructure:
    """n single-source builds over the same timeline and bucket table.

    Padding self-loops sit at the instance's nominal source; a self-loop
    never relaxes any distance, so every per-source build may share them.
    """
    padded = prepare_for_build(instance)
    table = make_table(derive_internal_epsilon(padded.epsilon), padded.m, padded.n, padded.W)
    return ApspStructure([_query_table(replace(padded, source=s), table) for s in range(padded.n)], table)


def _query_table(instance: ProblemInstance, table) -> QueryTable:
    """One source's build, reduced to its query tables; the tree dies on return."""
    built = build_offline(instance, table=table)
    return QueryTable(built.n, built.m, built.source, table, built.entry_times, built.stats)


class OnlineApsp:
    """Arrival tracking and patched queries over a predicted permutation.

    The prediction's edges are checked like arrivals, and it must hold
    exactly the true edge ids, each with its true triple.

    One cache makes repeated queries cheap: `_graph[u][v]` holds the patch
    graph, min(`apsp.per_source[u].query(v, frontier)`, pending u->v
    weights) for u != v in P, the pending edges' endpoints, where finite.
    The first query after a frontier advance builds it, an arrival that
    leaves the frontier where it was extends it in place, and one that
    advances the frontier drops it.  A rejected arrival leaves it alone.
    """

    def __init__(self, instance: ProblemInstance, prediction_edges: list[EdgeInsert]):
        padded = prepare_for_build(instance)
        aligned = align_prediction(prediction_edges, padded)
        check_prediction(aligned, padded)
        if set(aligned.ids()) != set(padded.sigma.ids()):
            raise ValueError("prediction not a permutation")
        self.instance = padded
        self.prediction = aligned
        self.n = padded.n
        self.m = padded.m
        self.apsp = build_apsp(replace(padded, sigma=aligned))
        self.t = 0
        self.frontier = 0  # all predicted positions 1..frontier have arrived
        self._arrived_flags = [False] * (self.m + 2)
        self._arrived_positions: list[int] = []  # sorted predicted positions
        self.frontier_advances = 0
        self.insert_comparisons = 0
        self.last_patch_vertices = 0
        self._graph: dict[int, dict[int, float]] | None = None

    def insert(self, edge: EdgeInsert) -> None:
        """Record one true arrival; a rejected arrival leaves the engine unchanged."""
        check_edge(edge, self.n, self.instance.W)
        if self.t >= self.m:
            raise ValueError("more than m insertions")
        p = self.prediction.position_of(edge.edge_id)
        if p > self.m:
            raise ValueError("arriving edge is not part of the predicted permutation")
        if self._arrived_flags[p]:
            raise ValueError("duplicate insertion")
        if self.prediction[p - 1].triple != edge.triple:
            raise ValueError("arriving edge conflicts with its predicted description")
        self._arrived_flags[p] = True
        # Hand-rolled insertion point search so the comparison count is
        # observable; the list insert itself is the keyed-store write.
        positions = self._arrived_positions
        lo, hi = 0, len(positions)
        while lo < hi:
            mid = (lo + hi) // 2
            self.insert_comparisons += 1
            if positions[mid] < p:
                lo = mid + 1
            else:
                hi = mid
        positions.insert(lo, p)
        old_frontier = self.frontier
        while self.frontier < self.m and self._arrived_flags[self.frontier + 1]:
            self.frontier += 1
            self.frontier_advances += 1
        if self.frontier != old_frontier:
            self._graph = None
        elif self._graph is not None:
            self._add_pending(edge)
        self.t += 1

    def pending_edges(self) -> list[EdgeInsert]:
        """Arrived edges beyond the frontier (the patch material)."""
        i = bisect_right(self._arrived_positions, self.frontier)
        return [self.prediction[p - 1] for p in self._arrived_positions[i:]]

    def _add_pending(self, e: EdgeInsert) -> None:
        """Grow the patch graph by one pending edge: new endpoint rows and columns, then its weight."""
        graph, tables, f = self._graph, self.apsp.per_source, self.frontier
        for x in (e.tail, e.head):
            if x not in graph:
                for u, row in graph.items():
                    if (w := tables[u].query(x, f)) != UNREACHABLE:
                        row[x] = w
                out = tables[x]
                graph[x] = {v: w for v in graph if (w := out.query(v, f)) != UNREACHABLE}
        if e.tail != e.head and e.weight < graph[e.tail].get(e.head, UNREACHABLE):
            graph[e.tail][e.head] = e.weight

    def query(self, i: int, j: int) -> float:
        """Approximate i-to-j distance over exactly the arrived edges."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("vertex id out of range")
        if i == j:
            self.last_patch_vertices = 1
            return 0.0
        if self._graph is None:
            self._graph = {}
            for e in self.pending_edges():
                self._add_pending(e)
        graph, tables, f = self._graph, self.apsp.per_source, self.frontier
        self.last_patch_vertices = len(graph) + (i not in graph) + (j not in graph)
        # Outside P, only i's out-row and the edges into j are added: j's
        # out-edges and the edges into i cannot lower dist[j].
        adj = {u: row.items() for u, row in graph.items()}
        if i not in graph:
            heads = graph if j in graph else (*graph, j)
            out = tables[i]
            adj[i] = [(v, w) for v in heads if (w := out.query(v, f)) != UNREACHABLE]
        if j not in graph:
            for u in graph:
                if (w := tables[u].query(j, f)) != UNREACHABLE:
                    adj[u] = [*adj[u], (j, w)]
        return dijkstra(adj, i, j).get(j, UNREACHABLE)
