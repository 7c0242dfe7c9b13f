"""The benchmark's workloads and the closed loop that drives them.

One caller in one process sends each call only after the previous one has
returned.  A run builds several instances from the seed (so that one
unlucky instance does not decide the run's figures) and, for each, times
the set-up, then streams the workload's calls through the public API while
recording the outputs.  Every check runs after the stream, outside every
timed region.  Work counters come from the first round only, so they repeat
exactly for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import resource
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from incsp import apsp, metrics, model, offline, online
from incsp.oracle import dijkstra_exact
from incsp.workload import PerturbationSpec, generate, perturb

from oracles import Checks, IncrementalApsp, IncrementalSssp
from spans import Tracer, patched_modules

W = 16
EPSILON = 0.5
MAX_LEVEL = 14  # log2 of the largest timeline below (m = 16384)
PATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # offline | online | apsp
    n: int
    m: int
    perturbation: dict | None
    instances: int  # per run: work varies by 10-20% between instances of one shape
    setup_reps: int  # set-ups per instance; cheap set-ups repeat for a steadier median
    why: str

    def params(self) -> dict:
        return {
            "generate": {"n": self.n, "m": self.m, "W": W, "epsilon": EPSILON, "model": "uniform"},
            "perturb": self.perturbation,
            "source": "tail of the first arrival",
            "instances_per_run": self.instances,
            "instance_seed": "100 * seed + i, i < instances_per_run",
            "setup_reps": self.setup_reps,
        }


# The online instances are small and many: the work of one instance varies by
# 10-20% between seeds, and pooling 8-12 per run keeps a run's total work
# within about 5% of the next seed's.
SPECS = {
    s.name: s
    for s in (
        Spec(
            "offline-build", "offline", 1000, 16384, None, 2, 1,
            "n=1000 m=16384, no prediction: the offline solver at its deepest tree (14 levels) "
            "and the query path; online and apsp code stay idle, so repair-only changes leave it",
        ),
        Spec(
            "online-shuffle", "online", 150, 1024, {"kind": "window_shuffle", "k": 8}, 8, 2,
            "n=150 m=1024, window_shuffle(8): many small displacements and no absent edge, "
            "so subtree re-solves dominate and recompute_base never fires",
        ),
        Spec(
            "online-replace", "online", 60, 512, {"kind": "replace", "p": 0.02}, 12, 2,
            "n=60 m=512, replace(0.02): the prediction is wrong about which edges exist; absent "
            "arrivals, root rebuilds and shifted arrivals re-solve mostly from the root",
        ),
        Spec(
            "apsp-online", "apsp", 60, 1024, {"kind": "window_shuffle", "k": 16}, 2, 1,
            "n=60 m=1024, window_shuffle(16): the only all-pairs workload; 60 per-source "
            "builds, then 8 patched query(i, j) after every arrival",
        ),
    )
}

# Queries take about a microsecond, so throughput is timed over batches of
# half a millisecond, in repeated passes that spread the timing over more of
# the run.  The tail is timed per call: a scheduler blip then slows a handful
# of calls rather than a whole batch.
OFFLINE_BATCHES = 80
OFFLINE_BATCH = 500
OFFLINE_PASSES = 25
OFFLINE_TAIL_PASSES = 5
OFFLINE_CHECKED_TIMES = 24
APSP_QUERIES_PER_ARRIVAL = 8
CROSS_CHECKED_PREFIXES = 3


@dataclass
class Inputs:
    seed: int
    instance: model.ProblemInstance
    prediction: list | None
    queries: list


def make_inputs(spec: Spec, seed: int) -> list[Inputs]:
    out = []
    for i in range(spec.instances):
        s = 100 * seed + i
        inst = generate(spec.n, spec.m, W, s, epsilon=EPSILON)
        # Growing the graph from its first arrival makes the source reach
        # something from the start; a source whose first out-edge arrives
        # late leaves the timeline idle for a seed-dependent stretch.
        inst = dataclasses.replace(inst, source=inst.sigma[0].tail)
        pred = None
        if spec.perturbation is not None:
            pred = perturb(inst, PerturbationSpec(seed=s, **spec.perturbation))
        rng = random.Random(s)
        if spec.kind == "offline":
            count = OFFLINE_BATCHES * OFFLINE_BATCH
            queries = [(rng.randrange(spec.n), rng.randrange(spec.m + 1)) for _ in range(count)]
        elif spec.kind == "apsp":
            queries = []
            for _ in range(spec.m * APSP_QUERIES_PER_ARRIVAL):
                a = rng.randrange(spec.n)
                b = rng.randrange(spec.n - 1)
                queries.append((a, b + (b >= a)))
        else:
            queries = []
        out.append(Inputs(s, inst, pred, queries))
    return out


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    stream_s: float = 0.0
    first_stream_s: float = 0.0  # the first instance's stream, for the tracing overhead
    ops: int = 0
    op_s: array = field(default_factory=lambda: array("d"))  # latency of the headline call
    insert_s: list = field(default_factory=list)  # apsp-online only
    batch_s: list = field(default_factory=list)  # offline-build only


def _tree_histogram(per_mid, m: int) -> dict[int, int]:
    hist = dict.fromkeys(range(1, MAX_LEVEL + 1), 0)
    for mid in range(1, m):
        if per_mid[mid]:
            hist[offline.tree_level(mid, m)] += per_mid[mid]
    return hist


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_build(counters: dict, structure) -> None:
    stats = structure.stats
    _add(counters, "offline.nodes_solved", stats.nodes_solved)
    _add(counters, "offline.scan_work", stats.scan_work)
    _add(counters, "offline.alive_edges", stats.total_alive_edges)
    for level, count in _tree_histogram(stats.alive_edges_per_node, structure.m).items():
        _add(counters, f"offline.alive_edges_by_level.{level}", count)
    counters["bucketing.k_fine"] = structure.table.k_fine
    counters["bucketing.k_coarse"] = structure.table.k_coarse


def _count_profile(counters: dict, profile) -> None:
    counters.setdefault("metrics.profiles", []).append(
        {k: getattr(profile, k) for k in ("eta_max", "hamming", "edit", "objective_tau", "objective")}
    )


def _cross_checked(rng: random.Random, m: int) -> set[int]:
    return set(rng.sample(range(1, m), CROSS_CHECKED_PREFIXES - 1)) | {m}


class OfflineBuild:
    """build_offline, then seeded query(v, t) calls: timed in batches, then one by one."""

    @staticmethod
    def setup(inp: Inputs):
        return offline.build_offline(model.prepare_for_build(inp.instance))

    @staticmethod
    def instrument(structure, tracer: Tracer) -> None:
        pass

    @staticmethod
    def stream(structure, inp: Inputs, samples: Samples, tracer: Tracer | None):
        query = structure.query
        queries = inp.queries
        answers: list = []
        errors: list = []
        batch = tracer.wrap("offline.query_batch", lambda chunk: [query(v, t) for v, t in chunk]) if tracer else None
        for repeat in range(OFFLINE_PASSES):
            for start in range(0, len(queries), OFFLINE_BATCH):
                chunk = queries[start : start + OFFLINE_BATCH]
                t0 = perf_counter()
                try:
                    res = batch(chunk) if batch else [query(v, t) for v, t in chunk]
                except Exception as exc:  # a failed call is counted, not fatal
                    res = [None] * len(chunk)
                    errors.append(f"query batch at {start}: {exc!r}")
                dt = perf_counter() - t0
                samples.batch_s.append(dt)
                samples.stream_s += dt
                if repeat == 0:
                    answers.extend(res)
                elif res != answers[start : start + len(chunk)]:
                    errors.append(f"pass {repeat} answered the batch at {start} differently")
        samples.ops += OFFLINE_PASSES * len(queries)
        lat = samples.op_s
        for _ in range(OFFLINE_TAIL_PASSES):
            for v, t in queries:
                t0 = perf_counter()
                try:
                    query(v, t)
                except Exception as exc:
                    errors.append(f"query({v}, {t}): {exc!r}")
                lat.append(perf_counter() - t0)
        return answers, errors

    @staticmethod
    def check(structure, inp: Inputs, out, checks: Checks) -> None:
        answers, errors = out
        for e in errors:
            checks.expect(False, e)
        inst = inp.instance
        edges = list(model.prepare_for_build(inst).sigma)
        rng = random.Random(inp.seed + 1)
        picked = rng.sample(range(len(inp.queries)), OFFLINE_CHECKED_TIMES)
        exact = {}
        for t in sorted({inp.queries[i][1] for i in picked}):
            exact[t] = dijkstra_exact(edges[:t], inst.n, inst.source)
            row = [structure.query(v, t) for v in range(inst.n)]
            checks.sandwich_rows(exact[t], row, f"offline query at t={t}")
        for i, (v, t) in enumerate(inp.queries):
            if t in exact and answers[i] is not None:
                checks.sandwich(exact[t][v], answers[i], f"batch query {i} (v={v}, t={t})")

    @staticmethod
    def count(structure, inp: Inputs, out, counters: dict, tracer: Tracer | None) -> None:
        _count_build(counters, structure)
        if tracer is not None:
            costs = [structure.query_with_cost(v, t)[1] for v, t in inp.queries]
            _add(counters, "offline.query_comparisons_sum", sum(costs))
            _add(counters, "offline.query_count", len(costs))
            counters["offline.query_comparisons_max"] = max(
                counters.get("offline.query_comparisons_max", 0), max(costs)
            )


class OnlineReplay:
    """start_online on the prediction, then every true arrival through insert."""

    @staticmethod
    def setup(inp: Inputs):
        return online.start_online(inp.instance, inp.prediction)

    @staticmethod
    def instrument(engine, tracer: Tracer) -> None:
        structure = engine.structure
        resolve = tracer.wrap("online.resolve", structure.resolve_subtree)
        counters = tracer.counters

        def resolve_with_diff(lo, hi, sink, *args, **kwargs):
            # Snapshot the node objects of the interval; the solver replaces
            # nodes rather than mutating them, so old references stay intact.
            t0 = perf_counter()
            before = structure.nodes[lo + 1 : hi]
            t1 = perf_counter()
            resolve(lo, hi, sink, *args, **kwargs)
            t2 = perf_counter()
            after = structure.nodes[lo + 1 : hi]
            same = 0
            for old, new in zip(before, after):
                if (
                    old is not None
                    and old.alive_estimates == new.alive_estimates
                    and set(old.alive_edges) == set(new.alive_edges)
                ):
                    same += 1
            counters["online.nodes_unchanged"] = counters.get("online.nodes_unchanged", 0) + same
            tracer.add_leaf("trace.node_diff", int((t1 - t0 + perf_counter() - t2) * 1e9))

        structure.resolve_subtree = resolve_with_diff
        tracer.wrap_method(structure, "recompute_base", "online.recompute_base")
        tracer.wrap_method(engine.timeline, "move_forward", "online.timeline")
        tracer.wrap_method(engine.timeline, "insert_truncating", "online.timeline")

    @staticmethod
    def stream(engine, inp: Inputs, samples: Samples, tracer: Tracer | None):
        insert = tracer.wrap("online.insert", engine.insert) if tracer else engine.insert
        arrivals = list(engine.instance.sigma)
        snapshots = []
        errors = []
        lat = samples.op_s
        t_start = perf_counter()
        for edge in arrivals:
            t0 = perf_counter()
            try:
                insert(edge)
            except Exception as exc:  # a failed call is counted, not fatal
                errors.append(f"insert of edge {edge.edge_id}: {exc!r}")
            lat.append(perf_counter() - t0)
            snapshots.append(engine.D[:])
        samples.stream_s += perf_counter() - t_start
        samples.ops += len(arrivals)
        return arrivals, snapshots, errors

    @staticmethod
    def check(engine, inp: Inputs, out, checks: Checks) -> None:
        arrivals, snapshots, errors = out
        for e in errors:
            checks.expect(False, e)
        n, m, source = engine.n, engine.m, engine.source
        oracle = IncrementalSssp(n, source)
        cross = _cross_checked(random.Random(inp.seed + 2), m)
        for step, (edge, snap) in enumerate(zip(arrivals, snapshots), start=1):
            oracle.insert(edge.tail, edge.head, edge.weight)
            checks.sandwich_rows(oracle.dist, snap, f"D after arrival {step}")
            if step in cross:
                checks.cross_check_sssp(oracle, arrivals, source, step)
        checks.expect(engine.matches_fresh_build(), "repaired structure differs from a fresh build")
        bounds = OnlineReplay.bounds(engine, OnlineReplay.profile(engine, inp))
        checks.expect(bounds["worst_jumps"] <= bounds["jump_budget"], f"jump budget exceeded: {bounds}")
        checks.expect(bounds["worst_rebuilds"] <= bounds["rebuild_budget"], f"rebuild budget exceeded: {bounds}")

    @staticmethod
    def profile(engine, inp: Inputs):
        padded = engine.instance
        return metrics.compute_profile(padded.sigma, model.align_prediction(inp.prediction, padded))

    @staticmethod
    def bounds(engine, profile) -> dict:
        """The paper's per-position jump and per-node rebuild budgets, as verify_online_run computes them."""
        m = engine.m
        _, jump_budget = metrics.min_threshold_objective(profile.eta_per_edge, m, weight=2)
        log_m = m.bit_length() - 1
        return {
            "worst_jumps": max(engine.counters.jumps_per_position),
            "jump_budget": jump_budget,
            "worst_rebuilds": max(engine.counters.sink.rebuilds_per_node),
            "rebuild_budget": log_m * jump_budget,
        }

    @staticmethod
    def count(engine, inp: Inputs, out, counters: dict, tracer: Tracer | None) -> None:
        _count_build(counters, engine.structure)
        c = engine.counters
        _add(counters, "online.nodes_rebuilt", c.nodes_rebuilt)
        _add(counters, "online.scan_work", c.sink.scan_work)
        _add(counters, "online.alive_edge_work", c.alive_edge_work)
        _add(counters, "online.full_rebuilds", c.full_rebuilds)
        _add(counters, "online.total_jumps", c.total_jumps)
        _add(counters, "online.d_writes", c.d_writes)
        for case, count in c.case_counts.items():
            _add(counters, f"online.case.{case}", count)
        for level, count in _tree_histogram(c.sink.rebuilds_per_node, engine.m).items():
            _add(counters, f"online.rebuilds_by_level.{level}", count)
        profile = OnlineReplay.profile(engine, inp)
        bounds = OnlineReplay.bounds(engine, profile)
        # Across instances: the worst observation against the tightest budget.
        for key in ("worst_jumps", "worst_rebuilds"):
            counters[f"online.{key}"] = max(counters.get(f"online.{key}", 0), bounds[key])
        for key in ("jump_budget", "rebuild_budget"):
            counters[f"online.{key}"] = min(counters.get(f"online.{key}", math.inf), bounds[key])
        _count_profile(counters, profile)


class ApspOnline:
    """OnlineApsp on the prediction; after each arrival, 8 seeded query(i, j)."""

    @staticmethod
    def setup(inp: Inputs):
        return apsp.OnlineApsp(inp.instance, inp.prediction)

    @staticmethod
    def instrument(engine, tracer: Tracer) -> None:
        counters = tracer.counters

        def leaf(structure):
            cost_query = structure.query_with_cost

            def lookup(v, t):
                t0 = perf_counter()
                value, cost = cost_query(v, t)
                tracer.add_leaf("offline.query", int((perf_counter() - t0) * 1e9))
                counters["offline.query_comparisons_sum"] = counters.get("offline.query_comparisons_sum", 0) + cost
                if cost > counters.get("offline.query_comparisons_max", 0):
                    counters["offline.query_comparisons_max"] = cost
                return value

            return lookup

        for structure in engine.apsp.per_source:
            structure.query = leaf(structure)

    @staticmethod
    def stream(engine, inp: Inputs, samples: Samples, tracer: Tracer | None):
        insert = tracer.wrap("apsp.insert", engine.insert) if tracer else engine.insert
        query = tracer.wrap("apsp.query", engine.query) if tracer else engine.query
        arrivals = list(engine.instance.sigma)
        queries = inp.queries
        k = APSP_QUERIES_PER_ARRIVAL
        answers = [None] * len(queries)
        patches = [] if tracer else None
        errors = []
        qlat, ilat = samples.op_s, samples.insert_s
        t_start = perf_counter()
        for step, edge in enumerate(arrivals):
            t0 = perf_counter()
            try:
                insert(edge)
            except Exception as exc:  # a failed call is counted, not fatal
                errors.append(f"insert of edge {edge.edge_id}: {exc!r}")
            ilat.append(perf_counter() - t0)
            for q in range(step * k, step * k + k):
                i, j = queries[q]
                t0 = perf_counter()
                try:
                    answers[q] = query(i, j)
                except Exception as exc:
                    errors.append(f"query({i}, {j}) after arrival {step + 1}: {exc!r}")
                qlat.append(perf_counter() - t0)
                if patches is not None:
                    patches.append((engine.last_patch_vertices, len(engine.pending_edges())))
        samples.stream_s += perf_counter() - t_start
        samples.ops += len(arrivals)
        return arrivals, answers, patches, errors

    @staticmethod
    def check(engine, inp: Inputs, out, checks: Checks) -> None:
        arrivals, answers, _, errors = out
        for e in errors:
            checks.expect(False, e)
        oracle = IncrementalApsp(engine.n)
        cross = _cross_checked(random.Random(inp.seed + 2), engine.m)
        k = APSP_QUERIES_PER_ARRIVAL
        for step, edge in enumerate(arrivals):
            oracle.insert(edge.tail, edge.head, edge.weight)
            for q in range(step * k, step * k + k):
                if answers[q] is not None:
                    i, j = inp.queries[q]
                    checks.sandwich(oracle.d[i][j], answers[q], f"query({i}, {j}) after arrival {step + 1}")
            if step + 1 in cross:
                checks.cross_check_apsp(oracle, arrivals, step + 1)

    @staticmethod
    def count(engine, inp: Inputs, out, counters: dict, tracer: Tracer | None) -> None:
        for structure in engine.apsp.per_source:
            _count_build(counters, structure)
        _add(counters, "apsp.frontier_advances", engine.frontier_advances)
        _add(counters, "apsp.insert_comparisons", engine.insert_comparisons)
        _count_profile(counters, metrics.compute_profile(engine.instance.sigma, engine.prediction))
        patches = out[2]
        if patches:
            sizes = counters.setdefault("apsp.patch_sizes", [])
            sizes.extend(p for p, _ in patches)
            pending = max(e for _, e in patches)
            counters["apsp.pending_edges_max"] = max(counters.get("apsp.pending_edges_max", 0), pending)


KINDS = {"offline": OfflineBuild, "online": OnlineReplay, "apsp": ApspOnline}


def module_targets():
    """Module-level bindings whose calls are spans in a traced run."""
    return [
        (model, "prepare_for_build", "model.prepare"),
        (online, "prepare_for_build", "model.prepare"),
        (apsp, "prepare_for_build", "model.prepare"),
        (online, "align_prediction", "model.align"),
        (apsp, "align_prediction", "model.align"),
        (offline, "make_table", "bucketing.make_table"),
        (apsp, "make_table", "bucketing.make_table"),
        (offline, "build_offline", "offline.build"),
        (online, "build_offline", "offline.build"),
        (apsp, "build_offline", "offline.build"),
        (apsp, "build_apsp", "apsp.build"),
    ]


@dataclass
class RunResult:
    samples: Samples
    counters: dict
    checks: Checks
    peak_rss_kib: int
    rounds: int


def _setup_and_stream(kind, inp: Inputs, reps: int, samples: Samples, tracer: Tracer | None):
    engine = None
    for _ in range(reps):
        engine = None
        gc.collect()
        t0 = perf_counter()
        engine = kind.setup(inp)
        samples.setup_s.append(perf_counter() - t0)
    if tracer is not None:
        kind.instrument(engine, tracer)
    gc.collect()
    out = kind.stream(engine, inp, samples, tracer)
    return engine, out


def measure(spec: Spec, inputs: list[Inputs], seconds: float, tracer: Tracer | None = None) -> RunResult:
    """Rounds over all instances until ``seconds`` of set-up and stream time.

    A traced run makes exactly one round with one set-up per instance, so
    its layer sums are per-instance sums and repeat for a fixed seed.
    """
    kind = KINDS[spec.kind]
    samples = Samples()
    checks = Checks(EPSILON)
    counters: dict = {}
    peak_rss = None
    rounds = 0
    while True:
        for inp in inputs:
            if tracer is not None:
                with patched_modules(tracer, module_targets()):
                    engine, out = _setup_and_stream(kind, inp, 1, samples, tracer)
            else:
                engine, out = _setup_and_stream(kind, inp, spec.setup_reps, samples, None)
            if peak_rss is None:  # before any check has run
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                samples.first_stream_s = samples.stream_s
            kind.check(engine, inp, out, checks)
            if rounds == 0:
                kind.count(engine, inp, out, counters, tracer)
            engine = out = None
        rounds += 1
        if tracer is not None or sum(samples.setup_s) + samples.stream_s >= seconds:
            break
    return RunResult(samples, counters, checks, peak_rss, rounds)


def stream_once(spec: Spec, inp: Inputs) -> float:
    """Untraced set-up and stream of one instance; returns the stream time."""
    samples = Samples()
    _setup_and_stream(KINDS[spec.kind], inp, 1, samples, None)
    return samples.stream_s
