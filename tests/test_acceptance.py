"""Acceptance gate: one test per release criterion.

Run with -s (or read the -v test lines) to see one PASS/FAIL line per
criterion.  Shared state is computed once per module: a 50-instance grid of
offline builds with their exact tables, and the online replays of every
instance under six prediction perturbations.
"""

import random
import time

import pytest

from incsp.apsp import OnlineApsp, build_apsp
from incsp.metrics import compute_profile, edit_distance
from incsp.model import EdgeInsert, UNREACHABLE, align_prediction, prepare_for_build
from incsp.offline import build_offline
from incsp.oracle import verify_offline, verify_online_run
from incsp.workload import PerturbationSpec, generate, perturb
from tests.conftest import (
    brute_edit_distance,
    exact_apsp_table,
    exact_distance_table,
    verify_apsp_offline,
)

N_CHOICES = (10, 30, 50)
M_CHOICES = (32, 128, 256)
W_CHOICES = (8, 32)
EPS_CHOICES = (0.1, 0.5, 1.0)
GRID_SIZE = 50

PERTURBATIONS = [
    ("identity", dict(kind="identity")),
    ("window_shuffle(1)", dict(kind="window_shuffle", k=1)),
    ("window_shuffle(4)", dict(kind="window_shuffle", k=4)),
    ("window_shuffle(16)", dict(kind="window_shuffle", k=16)),
    ("relocate(0.05)", dict(kind="relocate", p=0.05)),
    ("replace(0.05)", dict(kind="replace", p=0.05)),
]


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _grid_cases():
    combos = [
        (n, m, W, eps)
        for n in N_CHOICES
        for m in M_CHOICES
        for W in W_CHOICES
        for eps in EPS_CHOICES
    ]
    chosen = sorted(random.Random(2026).sample(combos, GRID_SIZE))
    return [
        {"n": n, "m": m, "W": W, "eps": eps, "seed": 1000 + i}
        for i, (n, m, W, eps) in enumerate(chosen)
    ]


@pytest.fixture(scope="module")
def grid():
    """Offline builds over the full instance grid, plus everything the
    per-criterion tests need from them (structures themselves are dropped)."""
    cases = []
    verify_seconds = 0.0
    for params in _grid_cases():
        inst = generate(
            n=params["n"], m=params["m"], W=params["W"],
            seed=params["seed"], epsilon=params["eps"],
        )
        padded = prepare_for_build(inst)

        t0 = time.perf_counter()
        rows = exact_distance_table(padded)
        structure = build_offline(padded)
        violations = verify_offline(structure, rows, padded.epsilon)
        verify_seconds += time.perf_counter() - t0

        stats = structure.stats
        table = structure.table
        log_m = padded.m.bit_length() - 1
        node_bound = (log_m + 1) * (table.k_fine_nominal + 2)
        cost_bound = 2 * _ceil_log2(table.k_coarse + 1) + 4
        worst_cost = 0
        for t in range(padded.m + 1):
            for v in range(padded.n):
                _, cost = structure.query_with_cost(v, t)
                worst_cost = max(worst_cost, cost)

        cases.append(
            {
                "params": params,
                "instance": inst,
                "padded": padded,
                "violations": len(violations),
                "alive_nodes_max": max(stats.alive_nodes_per_vertex),
                "alive_nodes_bound": node_bound,
                "alive_edges_total": stats.total_alive_edges,
                "alive_edges_bound": padded.m * node_bound,
                "query_cost_max": worst_cost,
                "query_cost_bound": cost_bound,
            }
        )
    return {"cases": cases, "verify_seconds": verify_seconds}


@pytest.fixture(scope="module")
def replays(grid):
    """verify_online_run reports for every grid instance under every
    perturbation, keyed by (case index, perturbation label)."""
    out = {}
    for idx, case in enumerate(grid["cases"]):
        inst = case["instance"]
        for j, (label, kw) in enumerate(PERTURBATIONS):
            if kw["kind"] == "identity":
                pred = None
            else:
                spec = PerturbationSpec(seed=case["params"]["seed"] * 10 + j, **kw)
                pred = perturb(inst, spec)
            out[(idx, label)] = verify_online_run(inst, pred)
    return out


def test_criterion_01_offline_verification_grid(grid):
    bad = sum(c["violations"] for c in grid["cases"])
    elapsed = grid["verify_seconds"]
    ok = bad == 0 and elapsed < 60.0
    _report(
        1, "offline sandwich on the 50-instance grid", ok,
        f"{len(grid['cases'])} instances, {bad} violations, {elapsed:.1f}s",
    )


def test_criterion_02_structure_size_bounds(grid):
    node_breaches = [
        c for c in grid["cases"] if c["alive_nodes_max"] > c["alive_nodes_bound"]
    ]
    edge_breaches = [
        c for c in grid["cases"] if c["alive_edges_total"] > c["alive_edges_bound"]
    ]
    worst = max(
        c["alive_nodes_max"] / c["alive_nodes_bound"] for c in grid["cases"]
    )
    ok = not node_breaches and not edge_breaches
    _report(
        2, "alive-node and alive-edge size bounds", ok,
        f"worst node-bound headroom {worst:.3f}, "
        f"{len(node_breaches)} node breaches, {len(edge_breaches)} edge breaches",
    )


def test_criterion_03_online_sandwich_all_perturbations(replays):
    live = sum(
        1
        for report in replays.values()
        for v in report["violations"]
        if v["kind"] == "live"
    )
    _report(
        3, "per-insertion sandwich under all perturbations", live == 0,
        f"{len(replays)} replays, {live} live violations",
    )


def test_criterion_04_identity_prediction_is_free(replays):
    rebuilt = {
        idx: report["nodes_rebuilt"]
        for (idx, label), report in replays.items()
        if label == "identity"
    }
    bad = {i: r for i, r in rebuilt.items() if r != 0}
    _report(
        4, "zero rebuilds on exact predictions", not bad,
        f"{len(rebuilt)} identity replays, nonzero rebuilds: {bad or 'none'}",
    )


def test_criterion_05_per_position_jump_bound(replays):
    breaches = [
        (key, report["worst_jumps"], report["jump_budget"])
        for key, report in replays.items()
        if any(v["kind"] == "jump-bound" for v in report["violations"])
    ]
    worst = max(
        report["worst_jumps"] / max(1, report["jump_budget"])
        for report in replays.values()
    )
    _report(
        5, "per-position jumps within the displacement budget", not breaches,
        f"worst jumps/budget ratio {worst:.3f}, breaches: {breaches or 'none'}",
    )


def test_criterion_06_rebuild_bound_and_linear_work(replays):
    breaches = [
        (key, report["worst_rebuilds"], report["rebuild_budget"])
        for key, report in replays.items()
        if any(v["kind"] == "rebuild-bound" for v in report["violations"])
    ]
    work = {
        k: sum(
            report["alive_edge_work"]
            for (idx, label), report in replays.items()
            if label == f"window_shuffle({k})"
        )
        for k in (1, 4, 16)
    }
    slope_1_4 = (work[4] - work[1]) / 3
    slope_4_16 = (work[16] - work[4]) / 12
    slope_ok = slope_4_16 <= 2 * slope_1_4
    ok = not breaches and slope_ok
    _report(
        6, "per-node rebuild bound and linear shuffle work", ok,
        f"work {work[1]}/{work[4]}/{work[16]} at k=1/4/16, "
        f"slopes {slope_1_4:.0f} then {slope_4_16:.0f}, breaches: {breaches or 'none'}",
    )


def test_criterion_07_online_matches_fresh_builds(grid, replays):
    eligible = [
        idx for idx, case in enumerate(grid["cases"]) if case["padded"].m <= 64
    ]
    assert eligible, "grid lost all small timelines"
    unchecked = [
        (idx, label)
        for (idx, label), report in replays.items()
        if idx in set(eligible) and not report["fresh_build_checked"]
    ]
    diverged = sum(
        1
        for (idx, label), report in replays.items()
        for v in report["violations"]
        if v["kind"] == "structure"
    )
    ok = not unchecked and diverged == 0
    _report(
        7, "node-for-node equality with fresh builds (m <= 64)", ok,
        f"{len(eligible)} small instances x {len(PERTURBATIONS)} perturbations, "
        f"{diverged} divergences",
    )


def test_criterion_08_edit_distance_and_worked_profile(t1_padded, t1_permuted):
    rng = random.Random(88)
    mismatches = 0
    for _ in range(1000):
        a = [EdgeInsert(i, 0, 0, 1) for i in rng.sample(range(20), rng.randint(0, 10))]
        b = [EdgeInsert(i, 0, 0, 1) for i in rng.sample(range(20), rng.randint(0, 10))]
        if edit_distance(a, b) != brute_edit_distance(a, b):
            mismatches += 1
    profile = compute_profile(t1_padded.sigma, t1_permuted)
    frozen = (
        profile.eta_per_edge == {0: 1, 1: 1, 2: 0, 3: 0}
        and profile.eta_max == 1
        and profile.hamming == 2
        and profile.edit == 2
        and profile.objective == 1
    )
    ok = mismatches == 0 and frozen
    _report(
        8, "edit distance vs brute force and the worked profile", ok,
        f"1000 random pairs, {mismatches} mismatches, worked profile frozen: {frozen}",
    )


APSP_OFFLINE_CASES = [
    dict(n=12, m=32, W=8, seed=9001, epsilon=0.5),
    dict(n=20, m=64, W=32, seed=9002, epsilon=0.1),
    dict(n=8, m=16, W=8, seed=9003, epsilon=1.0),
]


def test_criterion_09_apsp_offline_sandwich():
    total = 0
    bad = 0
    for kw in APSP_OFFLINE_CASES:
        inst = generate(**kw)
        padded = prepare_for_build(inst)
        tables = exact_apsp_table(padded)
        violations = verify_apsp_offline(build_apsp(inst), tables, padded.epsilon)
        total += (padded.m + 1) * padded.n * padded.n
        bad += len(violations)
    _report(
        9, "all-pairs offline sandwich", bad == 0,
        f"{total} (i, j, t) probes across {len(APSP_OFFLINE_CASES)} instances, {bad} violations",
    )


APSP_ONLINE_CASES = [
    (dict(n=10, m=32, W=8, seed=9101, epsilon=0.5), 1),
    (dict(n=10, m=32, W=8, seed=9101, epsilon=0.5), 4),
    (dict(n=16, m=64, W=8, seed=9102, epsilon=1.0), 4),
]


def test_criterion_10_apsp_online_sandwich_and_patch_bounds():
    sandwich_bad = 0
    pending_bad = 0
    patch_bad = 0
    probes = 0
    for kw, k in APSP_ONLINE_CASES:
        inst = generate(**kw)
        padded = prepare_for_build(inst)
        tables = exact_apsp_table(padded)
        pred = perturb(inst, PerturbationSpec("window_shuffle", seed=kw["seed"] + k, k=k))
        profile = compute_profile(padded.sigma, align_prediction(pred, padded))
        online = OnlineApsp(inst, pred)
        rng = random.Random(kw["seed"])
        for t, edge in enumerate(padded.sigma, start=1):
            online.insert(edge)
            pending = len(online.pending_edges())
            if pending > profile.eta_max:
                pending_bad += 1
            for _ in range(100):
                i = rng.randrange(padded.n)
                j = rng.randrange(padded.n)
                exact = tables[t][i][j]
                got = online.query(i, j)
                probes += 1
                if online.last_patch_vertices > 2 * pending + 2:
                    patch_bad += 1
                if exact == UNREACHABLE:
                    sandwich_bad += got != UNREACHABLE
                elif not exact <= got <= exact * (1 + padded.epsilon) * (1 + 1e-9):
                    sandwich_bad += 1
    ok = sandwich_bad == 0 and pending_bad == 0 and patch_bad == 0
    _report(
        10, "all-pairs online sandwich and patch bounds", ok,
        f"{probes} probes: {sandwich_bad} sandwich, "
        f"{pending_bad} pending-size, {patch_bad} patch-size failures",
    )


def test_criterion_11_query_cost_bound(grid):
    breaches = [
        (c["params"], c["query_cost_max"], c["query_cost_bound"])
        for c in grid["cases"]
        if c["query_cost_max"] > c["query_cost_bound"]
    ]
    worst = max(c["query_cost_max"] / c["query_cost_bound"] for c in grid["cases"])
    _report(
        11, "query comparisons within the double-log bound", not breaches,
        f"worst cost/bound ratio {worst:.3f}, breaches: {breaches or 'none'}",
    )
