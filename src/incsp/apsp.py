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

The per-source builds share only read-only inputs, so build_apsp splits
them over processes: with k = min(n, usable CPUs) it gives the caller the
sources range(0, n, k) and each of k - 1 forked children one share
range(i, n, k).  A child sends back one pickle per source, its entry rows
and its SolveCounters (or a traceback in place of the first source it
cannot build), over a pipe, and leaves through os._exit.
Loading these pickles is safe: only the caller's own forked child writes
them, over an anonymous pipe.  The caller copies every list it loads into
an exactly sized list that shares one int object per value, so the rows
hold no more memory than rows built in-process.  k is 1, and nothing is
forked, where os.fork is missing, on one usable CPU, or while the caller
runs a second thread.  The caller's resource usage (ru_maxrss included)
leaves the children out.  On any failure every child is killed and reaped
before the error propagates.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading
import traceback
from bisect import bisect_right
from dataclasses import replace
from typing import BinaryIO, NoReturn

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
    The builds run in k = min(n, _worker_count()) processes, the caller
    and k - 1 forked children (see the module docstring).
    """
    padded = prepare_for_build(instance)
    table = make_table(derive_internal_epsilon(padded.epsilon), padded.m, padded.n, padded.W)
    n = padded.n
    k = max(1, min(n, _worker_count()))
    per_source: list[QueryTable | None] = [None] * n
    workers: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _build_share(w, [r, *(pipe.fileno() for pipe in workers.values())], padded, table, range(i, n, k))
            workers[pid] = os.fdopen(r, "rb")
            os.close(w)
        for s in range(0, n, k):
            per_source[s] = _query_table(replace(padded, source=s), table)
        shared: dict[int, int] = {}  # one int object per value loaded
        for i, (pid, pipe) in enumerate(list(workers.items()), 1):
            for s in range(i, n, k):
                per_source[s] = _receive(pipe, pid, padded, s, table, shared)
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status:
                raise RuntimeError(f"per-source build worker {pid} ended with wait status {status}")
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return ApspStructure(per_source, table)


def _worker_count() -> int:
    """Processes build_apsp may use: one per usable CPU.

    1 where os.fork is missing or a second thread runs, since a child
    forked beside a running thread may inherit a lock it holds and hang.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _query_table(instance: ProblemInstance, table) -> QueryTable:
    """One source's build, reduced to its query tables; the tree dies on return."""
    built = build_offline(instance, table=table)
    return QueryTable(built.n, built.m, built.source, table, built.entry_times, built.stats)


def _build_share(fd: int, inherited: list[int], instance: ProblemInstance, table, sources: range) -> NoReturn:
    """A forked child's whole life: build sources, write their stream to fd, leave through os._exit.

    The stream holds one pickle per source of the share, its entry rows and
    its SolveCounters, or a traceback string in place of the first source
    the child cannot build.  It is written once the share is
    built: pickles written as they came would fill the pipe and stall the
    child until the caller, busy with its own share, reads.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        stream = io.BytesIO()
        try:
            for s in sources:
                built = _query_table(replace(instance, source=s), table)
                pickle.dump((built.entry_times, built.stats), stream)
        except Exception:
            pickle.dump(traceback.format_exc(), stream)
        with os.fdopen(fd, "wb") as out:
            out.write(stream.getbuffer())
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, pid: int, instance: ProblemInstance, source: int, table, shared: dict) -> QueryTable:
    """Load one source's pickle from a worker's stream and rebuild its QueryTable.

    The pickle is safe to load: the caller's own forked child wrote it to
    an anonymous pipe.  A traceback string or a stream that ends early
    raises RuntimeError.  Every list loaded, an entry row or a list field
    of the SolveCounters, is copied by _exact.
    """
    try:
        record = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        record = "its stream ended early"
    if isinstance(record, str):
        raise RuntimeError(f"per-source build worker {pid} failed at source {source}: {record}")
    rows, stats = record
    for name, value in vars(stats).items():
        if isinstance(value, list):
            setattr(stats, name, _exact(value, shared))
    return QueryTable(instance.n, instance.m, source, table, [_exact(row, shared) for row in rows], stats)


def _exact(values: list[int], shared: dict[int, int]) -> list[int]:
    """values in an exactly sized list whose ints are shared's, one object per value.

    list() of a tuple allocates no spare slots; list(map(...)) and a
    comprehension grow by appends and over-allocate.
    """
    return list(tuple(map(shared.setdefault, values, values)))


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
