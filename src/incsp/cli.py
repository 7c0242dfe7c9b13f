"""Command-line surface.

One JSON document per run on stdout (or --out); tabular traces additionally
as CSV behind --csv.  Every structured output is byte-stable for fixed
flags and seeds except the "timings" section, which reports wall-clock
seconds and is excluded from the determinism contract.

Exit codes: 0 success, 1 usage errors, 2 validation/I-O errors,
3 verification failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, replace

from .apsp import OnlineApsp, build_apsp
from .bucketing import derive_internal_epsilon
from .metrics import compute_profile
from .model import (
    InsertSequence,
    align_prediction,
    parse_instance,
    parse_prediction,
    parse_query_file,
    prepare_for_build,
    serialize_instance,
    serialize_prediction,
)
from .offline import build_offline, tree_level
from .online import OnlineEngine
from .oracle import exact_rows, oracle_self_check, verify_offline, verify_online_run
from .workload import PerturbationSpec, generate, perturb


def _sanitize(value):
    """JSON-safe copy: infinities become null."""
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _write_text(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    _write_text(json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n", out_path)


def _write_csv(rows: list[dict], fieldnames: list[str], path: str) -> None:
    """The named columns of each row; csv writes an unreachable answer (math.inf) as inf."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _load_instance(path: str, eps_override: float | None):
    with open(path) as f:
        instance = parse_instance(f)
    if eps_override is not None:
        if not eps_override > 0:
            raise ValueError("epsilon must be positive")
        instance = replace(instance, epsilon=eps_override)
    return instance


def _load_prediction(path: str, padded) -> list:
    with open(path) as f:
        return parse_prediction(f, padded)


def _instance_params(instance, padded) -> dict:
    return {
        "n": instance.n,
        "m": instance.sigma.real_len,
        "m_padded": padded.m,
        "W": instance.W,
        "epsilon": instance.epsilon,
        "epsilon_internal": derive_internal_epsilon(instance.epsilon),
        "source": instance.source,
    }


def _grid_params(table) -> dict:
    return {
        "delta": table.delta,
        "k_fine": table.k_fine,
        "k_fine_nominal": table.k_fine_nominal,
        "k_coarse": table.k_coarse,
    }


def _rebuilds_by_level(per_node: list[int], m: int) -> dict[str, int]:
    out: dict[str, int] = {}
    for mid in range(1, m):
        level = tree_level(mid, m)
        key = str(level)
        out[key] = out.get(key, 0) + per_node[mid]
    return out


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> int:
    instance = generate(
        n=args.n, m=args.m, W=args.W, seed=args.seed,
        model=args.model, epsilon=args.epsilon, source=args.source,
    )
    _write_text(serialize_instance(instance), args.out)
    return 0


def cmd_perturb(args) -> int:
    instance = _load_instance(args.input, None)
    spec = PerturbationSpec(kind=args.kind, seed=args.seed, k=args.k, p=args.p)
    prediction = perturb(instance, spec)
    _write_text(serialize_prediction(prediction), args.out)
    padded = prepare_for_build(instance)
    aligned = align_prediction(prediction, padded)
    profile = compute_profile(padded.sigma, aligned)
    doc = {
        "kind": spec.label(),
        "seed": spec.seed,
        "params": _instance_params(instance, padded),
        "profile": profile.to_dict(),
    }
    _emit_json(doc, args.metrics)
    return 0


def cmd_offline(args) -> int:
    instance = _load_instance(args.input, args.eps)
    m_raw = instance.sigma.real_len
    if args.reverse:
        flipped = InsertSequence(reversed(instance.sigma))
        instance = replace(instance, sigma=flipped)
    padded = prepare_for_build(instance)
    t0 = time.perf_counter()
    structure = build_offline(padded)
    build_s = time.perf_counter() - t0

    answers = []
    query_s = 0.0
    if args.queries:
        with open(args.queries) as f:
            pairs = parse_query_file(f, arity=2)
        t0 = time.perf_counter()
        for v, t in pairs:
            if args.reverse:
                if not 0 <= t <= m_raw:
                    raise ValueError("time out of range")
                value, cost = structure.query_with_cost(v, m_raw - t)
            else:
                value, cost = structure.query_with_cost(v, t)
            answers.append({"v": v, "t": t, "answer": value, "comparisons": cost})
        query_s = time.perf_counter() - t0

    stats = structure.stats
    doc = {
        "command": "offline",
        "reverse": bool(args.reverse),
        "params": _instance_params(instance, padded),
        "grid": _grid_params(structure.table),
        "build": {
            "nodes_solved": stats.nodes_solved,
            "total_alive_edges": stats.total_alive_edges,
            "scan_work": stats.scan_work,
            "max_alive_nodes_per_vertex": max(stats.alive_nodes_per_vertex, default=0),
            "alive_edges_by_level": _rebuilds_by_level(stats.alive_edges_per_node, padded.m),
        },
        "answers": answers,
        "timings": {"build_s": build_s, "query_s": query_s},
    }
    _emit_json(doc, args.out)
    if args.csv:
        _write_csv(answers, ["v", "t", "answer", "comparisons"], args.csv)
    return 0


def cmd_online(args) -> int:
    instance = _load_instance(args.input, args.eps)
    padded = prepare_for_build(instance)
    prediction = _load_prediction(args.pred, padded)
    aligned = align_prediction(prediction, padded)

    t0 = time.perf_counter()
    engine = OnlineEngine(padded, aligned)
    preprocess_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reports = [engine.insert(e) for e in padded.sigma]
    run_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine.flush()
    flush_s = time.perf_counter() - t0

    profile = compute_profile(padded.sigma, aligned)
    counters = engine.counters
    doc = {
        "command": "online",
        "params": _instance_params(instance, padded),
        "grid": _grid_params(engine.structure.table),
        "profile": profile.to_dict(),
        "counters": {
            "total_jumps": counters.total_jumps,
            "jumps_per_position": counters.jumps_per_position[1 : padded.m + 1],
            "nodes_rebuilt": counters.nodes_rebuilt,  # arrival chains and the final flush
            "nodes_skipped": counters.sink.nodes_skipped,
            "flush_rebuilt": counters.flush_rebuilt,
            "flush_skipped": counters.flush_skipped,
            "rebuilds_by_level": _rebuilds_by_level(counters.sink.rebuilds_per_node, padded.m),
            "full_rebuilds": counters.full_rebuilds,  # arrivals that moved base_m
            "alive_edge_work": counters.alive_edge_work,
            "scan_work": counters.sink.scan_work,
            "d_writes": counters.d_writes,
            "case_counts": counters.case_counts,
        },
        "final_distances": engine.D,
        "timings": {"preprocess_s": preprocess_s, "run_s": run_s, "flush_s": flush_s},
    }
    rows = [asdict(r) for r in reports]
    if args.trace:
        doc["trace"] = rows
    _emit_json(doc, args.out)
    if args.csv:
        _write_csv(rows, ["t", "edge_id", "case", "predicted_position", "nodes_rebuilt", "d_writes"], args.csv)
    return 0


def cmd_apsp(args) -> int:
    instance = _load_instance(args.input, args.eps)
    padded = prepare_for_build(instance)
    if args.pred:
        prediction = _load_prediction(args.pred, padded)
        with open(args.queries) as f:
            pairs = parse_query_file(f, arity=2)
        t0 = time.perf_counter()
        state = OnlineApsp(padded, prediction)
        preprocess_s = time.perf_counter() - t0
        steps = []
        t0 = time.perf_counter()
        for edge in padded.sigma:
            state.insert(edge)
            answers = []
            patch_max = 0
            for i, j in pairs:
                value = state.query(i, j)
                patch_max = max(patch_max, state.last_patch_vertices)
                answers.append({"i": i, "j": j, "answer": value})
            steps.append(
                {
                    "t": state.t,
                    "frontier": state.frontier,
                    "pending": len(state.pending_edges()),
                    "patch_vertices_max": patch_max,
                    "answers": answers,
                }
            )
        run_s = time.perf_counter() - t0
        doc = {
            "command": "apsp",
            "mode": "online",
            "params": _instance_params(instance, padded),
            "steps": steps,
            "counters": {
                "frontier_advances": state.frontier_advances,
                "insert_comparisons": state.insert_comparisons,
            },
            "timings": {"preprocess_s": preprocess_s, "run_s": run_s},
        }
        _emit_json(doc, args.out)
        if args.csv:
            rows = [{"t": s["t"], **a} for s in steps for a in s["answers"]]
            _write_csv(rows, ["t", "i", "j", "answer"], args.csv)
        return 0

    with open(args.queries) as f:
        triples = parse_query_file(f, arity=3)
    t0 = time.perf_counter()
    structure = build_apsp(padded)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    answers = []
    for i, j, t in triples:
        value, cost = structure.query_with_cost(i, j, t)
        answers.append({"i": i, "j": j, "t": t, "answer": value, "comparisons": cost})
    query_s = time.perf_counter() - t0
    doc = {
        "command": "apsp",
        "mode": "offline",
        "params": _instance_params(instance, padded),
        "answers": answers,
        "timings": {"build_s": build_s, "query_s": query_s},
    }
    _emit_json(doc, args.out)
    if args.csv:
        _write_csv(answers, ["i", "j", "t", "answer", "comparisons"], args.csv)
    return 0


def cmd_metrics(args) -> int:
    instance = _load_instance(args.input, None)
    padded = prepare_for_build(instance)
    prediction = _load_prediction(args.pred, padded)
    aligned = align_prediction(prediction, padded)
    profile = compute_profile(padded.sigma, aligned)
    doc = {
        "command": "metrics",
        "params": _instance_params(instance, padded),
        "profile": profile.to_dict(),
    }
    _emit_json(doc, args.out)
    return 0


_VERIFY_ONLINE_KEYS = (
    "ok", "violations", "jump_budget", "rebuild_budget", "worst_jumps",
    "worst_rebuilds", "nodes_rebuilt", "full_rebuilds", "fresh_build_checked",
)


def cmd_verify(args) -> int:
    instance = _load_instance(args.input, args.eps)
    padded = prepare_for_build(instance)
    if not oracle_self_check(padded, stride=max(1, padded.m // 8)):
        raise ValueError("oracle self-check failed: the streaming oracle, Dijkstra and Bellman-Ford disagree")

    structure = build_offline(padded)
    offline_violations = verify_offline(structure, exact_rows(padded), padded.epsilon)
    doc = {
        "command": "verify",
        "params": _instance_params(instance, padded),
        "offline_violations": offline_violations,
    }
    ok = not offline_violations

    if args.pred:
        prediction = _load_prediction(args.pred, padded)
        report = verify_online_run(padded, prediction, fresh_build_limit=args.fresh_limit)
        doc["online"] = {key: report[key] for key in _VERIFY_ONLINE_KEYS}
        doc["online"]["profile"] = report["profile"].to_dict()
        ok = ok and report["ok"]

    doc["ok"] = ok
    _emit_json(doc, args.out)
    return 0 if ok else 3


# -- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incsp",
        description="Incremental approximate shortest paths with warm-start predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--W", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--model", default="uniform")
    g.add_argument("--epsilon", type=float, default=1.0)
    g.add_argument("--source", type=int, default=0)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen)

    g = sub.add_parser("perturb", help="derive a prediction from an instance")
    g.add_argument("--input", required=True)
    g.add_argument("--kind", required=True,
                   choices=["identity", "window_shuffle", "relocate", "replace"])
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--p", type=float, default=None)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="prediction file path")
    g.add_argument("--metrics", default="-", help="error profile JSON path")
    g.set_defaults(func=cmd_perturb)

    g = sub.add_parser("offline", help="build the full-timeline structure and answer queries")
    g.add_argument("--input", required=True)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--queries", default=None, help="file of 'v t' lines")
    g.add_argument("--out", default="-")
    g.add_argument("--csv", default=None)
    g.add_argument("--reverse", action="store_true",
                   help="reverse the timeline; query times count deletions")
    g.set_defaults(func=cmd_offline)

    g = sub.add_parser("online", help="replay arrivals against a prediction")
    g.add_argument("--input", required=True)
    g.add_argument("--pred", required=True)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--out", default="-")
    g.add_argument("--csv", default=None)
    g.add_argument("--trace", action="store_true")
    g.set_defaults(func=cmd_online)

    g = sub.add_parser("apsp", help="all-pairs queries, offline or online")
    g.add_argument("--input", required=True)
    g.add_argument("--pred", default=None, help="permutation prediction (enables online mode)")
    g.add_argument("--queries", required=True, help="'i j t' lines offline, 'i j' online")
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--out", default="-")
    g.add_argument("--csv", default=None)
    g.set_defaults(func=cmd_apsp)

    g = sub.add_parser("metrics", help="error profile of a prediction")
    g.add_argument("--input", required=True)
    g.add_argument("--pred", required=True)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_metrics)

    g = sub.add_parser("verify", help="check builds against the exact oracle")
    g.add_argument("--input", required=True)
    g.add_argument("--pred", default=None)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--fresh-limit", type=int, default=64)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return int(args.func(args) or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
