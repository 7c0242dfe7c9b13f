"""incsp benchmark: one closed-loop caller driving the public API.

    python3 bench/run.py --workload online-shuffle --seed 1 --seconds 8 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
workload with spans around calls into each layer and reports the
per-layer metrics, plus the tracing overhead against an untraced stream of
the first instance.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable summary and the run's record (workload parameters,
prediction error profile, Python version, nproc, git sha).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _die(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_package():
    if not (SRC / "incsp" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'incsp'}; run from a checkout of the repository", 2)
    sys.path.insert(0, str(SRC))
    import incsp

    if Path(incsp.__file__).resolve().parent != (SRC / "incsp").resolve():
        _die(f"imported incsp from {incsp.__file__}, not from {SRC}", 2)


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "incsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed at the time.

    Recorded beside the results so that a reader can tell a slow program from
    a slow machine; no metric is divided by it.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(500_000):
            total += i & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(spec, result) -> tuple[dict, list[str]]:
    s = result.samples
    setup = statistics.median(s.setup_s)
    p50 = statistics.median(s.op_s)
    p99, beyond = percentile(s.op_s, 99)
    if spec.kind == "offline":
        from workloads import OFFLINE_BATCH

        ops_per_s = OFFLINE_BATCH / statistics.median(s.batch_s)
        throughput = f"queries_per_s   {ops_per_s:12.1f} 1/s  (batch size over the median of {len(s.batch_s)} batch times)"
        call = "structure.query, timed per call"
    else:
        ops_per_s = s.ops / s.stream_s
        throughput = f"arrivals_per_s  {ops_per_s:12.3f} 1/s  ({s.ops} arrivals in {s.stream_s:.3f} s)"
        call = "OnlineApsp.query" if spec.kind == "apsp" else "engine.insert"
    # The median call is printed but not gated: on the online workloads call
    # costs span three decades, so the median moves by a third between seeds.
    values = {
        "setup_s": setup,
        "ops_per_s": ops_per_s,
        "op_ms_p99": p99 * 1e3,
        "peak_rss_mb": result.peak_rss_kib / 1024,
    }
    name = {"offline": "query", "online": "insert", "apsp": "query"}[spec.kind]
    lines = [
        f"setup_s         {setup:12.4f} s    (median of {len(s.setup_s)} set-ups)",
        throughput,
        f"{name}_ms_p50    {p50 * 1e3:12.4f} ms   ({call}; {len(s.op_s)} samples)",
        f"{name}_ms_p99    {p99 * 1e3:12.4f} ms   ({beyond} samples beyond)",
    ]
    if s.insert_s:
        i50 = statistics.median(s.insert_s)
        i99, ibeyond = percentile(s.insert_s, 99)
        lines.append(f"insert_ms_p50   {i50 * 1e3:12.4f} ms   (OnlineApsp.insert; {len(s.insert_s)} samples)")
        lines.append(f"insert_ms_p99   {i99 * 1e3:12.4f} ms   ({ibeyond} samples beyond)")
    lines.append(f"peak_rss_mb     {values['peak_rss_mb']:12.1f} MiB  (ru_maxrss before any check)")
    return values, lines


def per_layer(spec, result, tracer, untraced_s: float, traced_s: float) -> dict:
    from workloads import MAX_LEVEL, PATCH_BUCKETS

    c = dict(result.counters)
    c.update(tracer.counters)
    v = {
        "model.prepare_s": tracer.total_s("model.prepare"),
        "model.align_s": tracer.total_s("model.align"),
        "bucketing.make_table_s": tracer.total_s("bucketing.make_table"),
        "offline.build_s": tracer.total_s("offline.build"),
        "online.insert_s": tracer.total_s("online.insert"),
        "online.resolve_s": tracer.total_s("online.resolve"),
        "online.recompute_base_s": tracer.total_s("online.recompute_base"),
        "online.timeline_s": tracer.total_s("online.timeline"),
        "online.insert_self_s": tracer.self_s("online.insert"),
        "apsp.build_s": tracer.total_s("apsp.build"),
        "apsp.per_source_builds": tracer.count_under("offline.build", "apsp.build"),
        "apsp.insert_s": tracer.total_s("apsp.insert"),
        "apsp.query_s": tracer.total_s("apsp.query"),
    }
    for key in (
        "bucketing.k_fine", "bucketing.k_coarse",
        "offline.nodes_solved", "offline.scan_work", "offline.alive_edges",
        "online.nodes_rebuilt", "online.nodes_unchanged", "online.scan_work", "online.alive_edge_work",
        "online.full_rebuilds", "online.total_jumps", "online.d_writes",
        "online.case.match", "online.case.moved", "online.case.absent",
        "online.worst_jumps", "online.jump_budget", "online.worst_rebuilds", "online.rebuild_budget",
        "apsp.frontier_advances", "apsp.insert_comparisons", "apsp.pending_edges_max",
        "offline.query_comparisons_max",
    ):
        v[key] = c.get(key, 0)
    for level in range(1, MAX_LEVEL + 1):
        v[f"offline.alive_edges_by_level.{level}"] = c.get(f"offline.alive_edges_by_level.{level}", 0)
        v[f"online.rebuilds_by_level.{level}"] = c.get(f"online.rebuilds_by_level.{level}", 0)
    rebuilt = v["online.nodes_rebuilt"]
    v["online.nodes_unchanged_ratio"] = v["online.nodes_unchanged"] / rebuilt if rebuilt else 0
    if spec.kind == "offline":
        v["offline.query_s"] = tracer.total_s("offline.query_batch")
        lookups = c.get("offline.query_count", 0)
    else:
        v["offline.query_s"] = tracer.leaf_s("offline.query")
        lookups = tracer.leaf_calls.get("offline.query", 0)
    v["offline.query_comparisons_mean"] = c.get("offline.query_comparisons_sum", 0) / lookups if lookups else 0
    profiles = c.get("metrics.profiles", [])
    v["metrics.eta_max"] = max((p["eta_max"] for p in profiles), default=0)
    v["metrics.edit"] = statistics.fmean(p["edit"] for p in profiles) if profiles else 0
    v["metrics.objective"] = statistics.fmean(p["objective"] for p in profiles) if profiles else 0
    sizes = c.get("apsp.patch_sizes", [])
    v["apsp.patch_vertices_p50"] = statistics.median(sizes) if sizes else 0
    v["apsp.patch_vertices_max"] = max(sizes, default=0)
    v["apsp.lookups"] = sum(k * (k - 1) for k in sizes)
    lower = 0
    for bound in PATCH_BUCKETS:
        v[f"apsp.patch_vertices_hist.le_{bound}"] = sum(1 for k in sizes if lower < k <= bound)
        lower = bound
    v[f"apsp.patch_vertices_hist.gt_{lower}"] = sum(1 for k in sizes if k > lower)
    checks = result.checks
    v["bench.error_rate"] = checks.failed / checks.attempted
    v["bench.checks"] = checks.attempted
    v["trace.untraced_stream_s"] = untraced_s
    v["trace.traced_stream_s"] = traced_s
    v["trace.overhead"] = traced_s / untraced_s - 1
    return v


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        _die(f"cannot read {spec_path}: {exc}", 1)
    names = [w["name"] for w in declared["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_package()
    import workloads
    from spans import Tracer

    spec = workloads.SPECS[args.workload]
    inputs = workloads.make_inputs(spec, args.seed)
    reference_before = reference_loop_s()

    if args.trace:
        untraced_s = workloads.stream_once(spec, inputs[0])
        tracer = Tracer()
        result = workloads.measure(spec, inputs, args.seconds, tracer)
        values = per_layer(spec, result, tracer, untraced_s, result.samples.first_stream_s)
        declared_metrics = declared["per_layer"]
        lines = [f"{k:40s} {val}" for k, val in values.items()]
    else:
        tracer = None
        result = workloads.measure(spec, inputs, args.seconds)
        values, lines = end_to_end(spec, result)
        declared_metrics = declared["end_to_end"]

    reference_after = reference_loop_s()
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(values):
        _die(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}", 1)

    checks = result.checks
    lines.append(
        f"error_rate      {checks.failed / checks.attempted:12.6f}      ({checks.failed} of {checks.attempted} checks failed)"
    )
    print(f"workload {spec.name}, seed {args.seed}, trace {args.trace}: {len(inputs)} instances, {result.rounds} round(s)")
    for line in lines:
        print("  " + line)
    for example in checks.examples:
        print("  FAILED: " + example)

    record = {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": spec.params(),
        "instance_seeds": [inp.seed for inp in inputs],
        "prediction_profiles": result.counters.get("metrics.profiles", []),
        "rounds": result.rounds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "reference_loop_s": {"before": reference_before, "after": reference_after},
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "examples": checks.examples},
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print("record " + json.dumps(record))

    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
