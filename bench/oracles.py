"""Exact oracles and the (1 + eps) sandwich check used by the benchmark.

The oracles are insert-only and incremental, so a whole stream can be
audited in one pass.  ``incsp.oracle.exact_distance_table`` recomputes
every prefix from scratch, which is quadratic in m at benchmark sizes.
Both oracles are cross-checked against ``incsp.oracle.dijkstra_exact`` at
sampled prefixes (see ``Checks.cross_check_*``).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from incsp.oracle import dijkstra_exact

INF = math.inf

# Same relative headroom as the package's own verifier: grid values are
# floats built by repeated multiplication, and equality-boundary cases
# should not flap.
FLOAT_SLACK = 1e-9


class Checks:
    """Counts checks made and checks failed; keeps the first few failures."""

    def __init__(self, epsilon: float):
        self.upper = (1.0 + epsilon) * (1.0 + FLOAT_SLACK)
        self.lower = 1.0 - FLOAT_SLACK
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def sandwich_rows(self, exact, answers, what: str) -> None:
        """exact[v] <= answers[v] <= (1 + eps) exact[v] for every v."""
        lower, upper = self.lower, self.upper
        self.attempted += len(exact)
        for v, (x, a) in enumerate(zip(exact, answers)):
            if x == INF:
                if a != INF:
                    self.fail(f"{what}: v={v} finite answer {a} for an unreachable vertex")
            elif not x * lower <= a <= x * upper:
                self.fail(f"{what}: v={v} answer {a} outside the sandwich of exact {x}")

    def sandwich(self, exact: float, answer: float, what: str) -> None:
        self.sandwich_rows((exact,), (answer,), what)

    def cross_check_sssp(self, oracle: "IncrementalSssp", edges, source: int, t: int) -> None:
        self.expect(
            oracle.dist == dijkstra_exact(edges[:t], oracle.n, source),
            f"incremental oracle differs from dijkstra_exact at prefix {t}",
        )

    def cross_check_apsp(self, oracle: "IncrementalApsp", edges, t: int) -> None:
        prefix = edges[:t]
        self.expect(
            all(oracle.d[s] == dijkstra_exact(prefix, oracle.n, s) for s in range(oracle.n)),
            f"incremental all-pairs oracle differs from dijkstra_exact at prefix {t}",
        )


class IncrementalSssp:
    """Exact single-source distances under edge insertions.

    An inserted edge u->v can only lower distances reachable from v, so a
    Dijkstra seeded at v with its improved distance relaxes outward and
    stops where nothing improves.
    """

    def __init__(self, n: int, source: int):
        self.n = n
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.dist: list[float] = [INF] * n
        self.dist[source] = 0

    def insert(self, u: int, v: int, w: int) -> None:
        self.adj[u].append((v, w))
        dist = self.dist
        nd = dist[u] + w
        if nd >= dist[v]:
            return
        dist[v] = nd
        heap = [(nd, v)]
        adj = self.adj
        while heap:
            d, x = heappop(heap)
            if d > dist[x]:
                continue
            for y, wy in adj[x]:
                ny = d + wy
                if ny < dist[y]:
                    dist[y] = ny
                    heappush(heap, (ny, y))


class IncrementalApsp:
    """Exact all-pairs distances under edge insertions.

    Inserting u->v with weight w sets d[a][b] = min(d[a][b], d[a][u] + w +
    d[v][b]); with positive weights neither d[a][u] nor d[v][b] changes
    in the same step, so one pass over the rows is exact.
    """

    def __init__(self, n: int):
        self.n = n
        self.d: list[list[float]] = [[0 if a == b else INF for b in range(n)] for a in range(n)]

    def insert(self, u: int, v: int, w: int) -> None:
        d = self.d
        row_v = list(d[v])
        for row_a in d:
            base = row_a[u] + w
            if base >= row_a[v]:
                continue
            for b, dvb in enumerate(row_v):
                nb = base + dvb
                if nb < row_a[b]:
                    row_a[b] = nb
