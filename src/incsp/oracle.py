"""Ground truth and verification.

Everything here recomputes answers from first principles, separately from
the structures under test.  Per-prefix distances stream from an insert-only
change-propagation oracle (Ramalingam & Reps, J. Algorithms 1996), which
keeps one O(n) distance row; a standalone Dijkstra and Bellman-Ford
recompute sampled prefixes from scratch to cross-check it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from heapq import heappop, heappush

from .metrics import compute_profile, min_threshold_objective
from .model import UNREACHABLE, EdgeInsert, ProblemInstance, align_prediction, prepare_for_build
from .online import OnlineEngine


def dijkstra_exact(edges: list[EdgeInsert], n: int, source: int) -> list[float]:
    """Exact integer distances from source over the given edges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        adj[e.tail].append((e.head, e.weight))
    dist: list[float] = [UNREACHABLE] * n
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def bellman_ford(edges: list[EdgeInsert], n: int, source: int) -> list[float]:
    """Same answer by a different route; used to cross-check the oracle itself."""
    dist: list[float] = [UNREACHABLE] * n
    dist[source] = 0
    for _ in range(max(1, n - 1)):
        changed = False
        for e in edges:
            du = dist[e.tail]
            if du == UNREACHABLE:
                continue
            nd = du + e.weight
            if nd < dist[e.head]:
                dist[e.head] = nd
                changed = True
        if not changed:
            break
    return dist


def exact_rows(instance: ProblemInstance) -> Iterator[list[float]]:
    """Yield the exact distance row from the instance's source after each
    prefix t = 0..m; every row is a fresh list.

    An inserted edge u->v can only lower distances reachable from v, so a
    Dijkstra seeded at v with its improved distance relaxes outward and
    stops where nothing improves.
    """
    n = instance.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dist: list[float] = [UNREACHABLE] * n
    dist[instance.source] = 0
    yield dist[:]
    for e in instance.sigma:
        adj[e.tail].append((e.head, e.weight))
        nd = dist[e.tail] + e.weight
        if nd < dist[e.head]:
            dist[e.head] = nd
            heap = [(nd, e.head)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    nv = d + w
                    if nv < dist[v]:
                        dist[v] = nv
                        heappush(heap, (nv, v))
        yield dist[:]


def oracle_self_check(instance: ProblemInstance, stride: int = 1) -> bool:
    """exact_rows / Dijkstra / Bellman-Ford agreement on every stride-th prefix."""
    stride = max(1, stride)
    edges, n, source = list(instance.sigma), instance.n, instance.source
    for t, row in enumerate(exact_rows(instance)):
        if t % stride == 0:
            prefix = edges[:t]
            if not row == dijkstra_exact(prefix, n, source) == bellman_ford(prefix, n, source):
                return False
    return True


# Relative headroom on the upper bound comparisons below: the structures
# carry float grid values whose construction error is many orders below the
# approximation margin, but equality-boundary cases should not flap.
FLOAT_SLACK = 1e-9


def _sandwich_violation(exact: float, answer: float, epsilon: float) -> str | None:
    if exact == UNREACHABLE:
        if answer != UNREACHABLE:
            return "finite answer for an unreachable vertex"
        return None
    if answer == UNREACHABLE:
        return "unreachable answer for a reachable vertex"
    if answer < exact * (1 - FLOAT_SLACK):
        return "answer below the exact distance"
    if answer > exact * (1 + epsilon) * (1 + FLOAT_SLACK):
        return "answer above the approximation bound"
    return None


def verify_offline(structure, rows: Iterable[list[float]], epsilon: float) -> list[dict]:
    """Check every (v, t) query against exactly m+1 exact rows, such as
    ``exact_rows(instance)``; returns violations."""
    violations = []
    for t, row in zip(range(structure.m + 1), rows, strict=True):
        for v in range(structure.n):
            answer = structure.query(v, t)
            problem = _sandwich_violation(row[v], answer, epsilon)
            if problem:
                violations.append(
                    {"kind": "query", "v": v, "t": t, "exact": row[v], "answer": answer, "problem": problem}
                )
    return violations


def verify_online_run(
    instance: ProblemInstance,
    prediction_edges: list[EdgeInsert] | None,
    fresh_build_limit: int = 64,
) -> dict:
    """Replay the true timeline through the online engine and audit every step.

    Checks, per insertion: the live estimate array against the exact row,
    streamed from ``exact_rows`` alongside the engine, and (on small
    timelines) that base_m and the nodes on the current time's chain equal
    a from-scratch build on the corrected prediction.  That check does not
    flush, so the audited run repairs on demand like any other.  After the
    run the engine is flushed; on small timelines every node is then
    compared, and the per-position jump bound and the per-node rebuild
    bound implied by the prediction's displacement profile are checked,
    counting the flush's re-solves.
    """
    padded = prepare_for_build(instance)
    if prediction_edges is None:
        aligned = list(padded.sigma)
    else:
        aligned = align_prediction(prediction_edges, padded)
    engine = OnlineEngine(padded, aligned)
    profile = compute_profile(padded.sigma, aligned)
    _, jump_budget = min_threshold_objective(profile.eta_per_edge, padded.m, weight=2)

    violations: list[dict] = []
    check_fresh = padded.m <= fresh_build_limit
    rows = exact_rows(padded)
    next(rows)  # the row before any arrival
    for step, (edge, row) in enumerate(zip(padded.sigma, rows, strict=True), start=1):
        engine.insert(edge)
        for v in range(padded.n):
            problem = _sandwich_violation(row[v], engine.D[v], padded.epsilon)
            if problem:
                violations.append(
                    {"kind": "live", "v": v, "t": step, "exact": row[v], "answer": engine.D[v], "problem": problem}
                )
        if check_fresh and not engine.chain_matches_fresh_build():
            violations.append({"kind": "structure", "t": step, "problem": "chain diverged from a fresh build"})
    engine.flush()
    if check_fresh and not engine.matches_fresh_build():
        violations.append({"kind": "structure", "t": padded.m, "problem": "flushed tree diverged from a fresh build"})

    counters = engine.counters
    worst_jumps = max(counters.jumps_per_position)
    if worst_jumps > jump_budget:
        violations.append(
            {"kind": "jump-bound", "observed": worst_jumps, "bound": jump_budget, "problem": "position jumped too often"}
        )
    log_m = padded.m.bit_length() - 1
    rebuild_budget = log_m * jump_budget
    worst_rebuilds = max(counters.sink.rebuilds_per_node)
    if worst_rebuilds > rebuild_budget:
        violations.append(
            {"kind": "rebuild-bound", "observed": worst_rebuilds, "bound": rebuild_budget, "problem": "node rebuilt too often"}
        )

    return {
        "ok": not violations,
        "violations": violations,
        "profile": profile,
        "jump_budget": jump_budget,
        "rebuild_budget": rebuild_budget,
        "worst_jumps": worst_jumps,
        "worst_rebuilds": worst_rebuilds,
        "nodes_rebuilt": counters.nodes_rebuilt,
        "alive_edge_work": counters.alive_edge_work,
        "total_jumps": counters.total_jumps,
        "full_rebuilds": counters.full_rebuilds,
        "fresh_build_checked": check_fresh,
    }

