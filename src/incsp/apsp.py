"""All-pairs layer over the single-source machinery.

Offline: one per-source build per vertex, all sharing one bucket table so
estimates are mutually consistent.  Nothing repairs them and a query reads
only entry rows, so each source's build is query-only and gives just a
QueryTable (its entry rows and build counters, and the shared table); no
node of its recursion tree outlives the walk of its subtree.  Online:
predictions must permute the true edge set; arrivals advance a frontier
through the predicted order, and queries run Dijkstra on a small patch
whose size is bounded by the count of arrived-but-not-yet-frontier-covered
edges (at most the maximum displacement of the permutation).

The per-source structures never change after the build, so an online patch
lookup T_u(v) depends only on (u, v, frontier), and it changes only at the
distinct times of row v of source u.  `OnlineApsp` keeps two things.  The
answer matrix holds T_u(v) at the frontier for every pair; an arrival that
advances the frontier re-reads, with one per-source query each, just the
answers whose rows hold a time it passed.  The patch graph is the
adjacency among the pending edges' endpoints P (a matrix entry for each of
the |P|(|P|-1) ordered pairs where finite, |P| <= 2 * pending edges, plus
the pending edges themselves), valid for one frontier: it is rebuilt by
the arrival that advances the frontier, and extended by one that does not
(its endpoints' rows and columns, then its own edge).  A query (i, j)
builds and copies nothing and makes no per-source query: it runs the
engine's one Dijkstra on the graph, seeded from i's matrix row and bounded
by T_i(j) when i is outside P, reading the last hop into j only for
vertices it settles, and stopping once no label can beat the best answer.

build_apsp splits the per-source builds, which share only read-only
inputs, over forkpool's fork-context process pool; its docstring says how.
"""

from __future__ import annotations

import pickle
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import replace

from . import forkpool
from .bucketing import derive_internal_epsilon, make_table
from .model import (
    UNREACHABLE, EdgeInsert, ProblemInstance, align_prediction, check_arrival, check_prediction, prepare_for_build,
)
from .offline import QueryTable, build_offline, dijkstra, search_steps


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
    With k = 1 + forkpool.spare_workers(n - 1) the caller builds
    range(0, n, k); each of the k - 1 workers of a forkpool.fork_pool
    inherits the padded instance and the table by fork and returns
    range(i, n, k) as one pickle of (entry rows, SolveCounters) per source,
    safe to load since only the caller's own forked workers write them.
    Loaded one at a time into exactly sized lists that share one int object
    per value, the rows hold no more than rows built in-process.  k = 1
    makes no pool and imports none of its modules.  No per-source build
    forks again: the caller's share runs while its pool is open, and a
    worker's inside it.  The caller's ru_maxrss leaves the workers out.
    """
    padded = prepare_for_build(instance)
    table = make_table(derive_internal_epsilon(padded.epsilon), padded.m, padded.n, padded.W)
    n = padded.n
    k = 1 + forkpool.spare_workers(n - 1)
    per_source: list[QueryTable | None] = [None] * n
    with forkpool.fork_pool(k - 1, padded, table) as pool:
        shares = [pool.submit(_build_share, range(i, n, k)) for i in range(1, k)]
        for s in range(0, n, k):
            per_source[s] = build_offline(replace(padded, source=s), table=table)
        shared: dict[int, int] = {}  # one int object per value loaded
        for i, share in enumerate(shares, 1):
            for s, record in zip(range(i, n, k), share.result()):
                rows, stats = pickle.loads(record)
                for name, value in vars(stats).items():
                    if isinstance(value, list):
                        setattr(stats, name, _exact(value, shared))
                per_source[s] = QueryTable(n, padded.m, s, table, [_exact(row, shared) for row in rows], stats)
    return ApspStructure(per_source, table)


def _build_share(sources: range) -> list[bytes]:
    """In a pool worker: one pickle of (entry rows, SolveCounters) per source of the share."""
    instance, table = forkpool.inherited()
    built = (build_offline(replace(instance, source=s), table=table) for s in sources)
    return [pickle.dumps((q.entry_times, q.stats)) for q in built]


def _exact(values: list[int], shared: dict[int, int]) -> list[int]:
    """values in an exactly sized list of shared's ints (list(map(...)) over-allocates; list() of a tuple does not)."""
    return list(tuple(map(shared.setdefault, values, values)))


class OnlineApsp:
    """Arrival tracking and patched queries over a predicted permutation.

    The prediction's edges are checked like arrivals, and it must hold
    exactly the true edge ids, each with its true triple.

    `_at[u][v]` is `apsp.per_source[u].query(v, frontier)` for every pair;
    an arrival that advances the frontier re-reads the entries that change
    at the times it passes (listed per time in `_changes`), so queries read
    the matrix and make no per-source query.  `_graph[u]` lists the patch
    graph's (v, weight) pairs out of u in P, the pending edges' endpoints:
    `_at[u][v]` for each v != u in P where finite, then each pending u->v
    edge (the search takes the least).  It is rebuilt by the arrival that
    advances the frontier, and extended in place by one that does not.
    Arrivals pass model.check_arrival, the gate OnlineEngine shares, and a
    rejected arrival leaves both alone.
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
        self._graph: dict[int, list[tuple[int, float]]] = {}
        n, m, tables = self.n, self.m, self.apsp.per_source
        # T_x(v) changes only at the distinct times of row v of source x:
        # _changes[t] holds the codes x * n + v of the answers that change at t.
        self._changes = [array("I") for _ in range(m + 1)]
        for x, table in enumerate(tables):
            for v, row in enumerate(table.entry_times):
                for t in set(row):
                    if 0 < t <= m:
                        self._changes[t].append(x * n + v)
        self._at = [[table.query(v, 0) for v in range(n)] for table in tables]

    def insert(self, edge: EdgeInsert) -> None:
        """Record one true arrival; a rejected arrival leaves the engine unchanged."""
        p = check_arrival(edge, self.prediction, self.t, self.n, self.instance.W)
        if p > self.m:
            raise ValueError("arriving edge is not part of the predicted permutation")
        if self._arrived_flags[p]:
            raise ValueError("duplicate insertion")
        self._arrived_flags[p] = True
        # Counted insertion point search; the list insert is the keyed-store write.
        positions = self._arrived_positions
        i = bisect_left(positions, p)
        self.insert_comparisons += search_steps(len(positions), i)
        positions.insert(i, p)
        old_frontier = self.frontier
        while self.frontier < self.m and self._arrived_flags[self.frontier + 1]:
            self.frontier += 1
            self.frontier_advances += 1
        if self.frontier != old_frontier:
            at, tables, f, n = self._at, self.apsp.per_source, self.frontier, self.n
            for t in range(old_frontier + 1, f + 1):
                for code in self._changes[t]:
                    x, v = divmod(code, n)
                    at[x][v] = tables[x].query(v, f)
            self._graph = {}
            for e in self.pending_edges():
                self._add_pending(e)
        else:
            self._add_pending(edge)
        self.t += 1

    def pending_edges(self) -> list[EdgeInsert]:
        """Arrived edges beyond the frontier (the patch material)."""
        i = bisect_right(self._arrived_positions, self.frontier)
        return [self.prediction[p - 1] for p in self._arrived_positions[i:]]

    def _add_pending(self, e: EdgeInsert) -> None:
        """Grow the patch graph by one pending edge: new endpoint rows and columns, then the edge itself."""
        graph, at = self._graph, self._at
        for x in (e.tail, e.head):
            if x not in graph:
                for u, row in graph.items():
                    if (w := at[u][x]) != UNREACHABLE:
                        row.append((x, w))
                out = at[x]
                graph[x] = [(v, w) for v in graph if (w := out[v]) != UNREACHABLE]
        if e.tail != e.head:
            graph[e.tail].append((e.head, e.weight))

    def query(self, i: int, j: int) -> float:
        """Approximate i-to-j distance over exactly the arrived edges.

        A seeded, bounded Dijkstra over the cached patch graph: it reads
        the last hop T_u(j) = `_at[u][j]` only for the vertices u it
        settles below the best answer so far.
        """
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("vertex id out of range")
        if i == j:
            self.last_patch_vertices = 1
            return 0.0
        graph, at = self._graph, self._at
        self.last_patch_vertices = len(graph) + (i not in graph) + (j not in graph)
        # Outside P, i enters only through its out-row (the direct T_i(j)
        # bounds the search, the entries below it seed it) and j only through
        # the last hop, read when a vertex settles: j's out-edges and the
        # edges into i cannot lower the answer.
        seeds, bound = {i: 0}, UNREACHABLE
        if i not in graph:
            out = at[i]
            bound = out[j]
            seeds = {v: w for v in graph if (w := out[v]) < bound}
        if j in graph:
            last_hop = lambda u: 0 if u == j else UNREACHABLE  # the search stops when j settles
        else:
            last_hop = lambda u: at[u][j]
        return dijkstra(graph, seeds, bound, last_hop)
