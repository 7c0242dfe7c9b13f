"""Alternating bench pairs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --run apsp-online=10 --run offline-build=3 \
        --seed 3 11 --out BENCH_label.json

Run from anywhere inside the repository.  The base commit is exported with
``git archive`` into a temporary directory; the change side is the working
tree itself, uncommitted edits included.  Each pair runs ``bench/run.py
--trace 0`` once in each tree, the base first in even pairs and the change
first in odd ones, so a drift of the machine's speed falls on both sides.
Without ``--run``, every workload in BENCHMARK.json runs ``--pairs`` pairs.
Each workload runs its pairs at every seed given.

For every workload, seed and end-to-end metric the output holds each side's
median and quartiles, the pairs the change won (by the metric's direction
in BENCHMARK.json), whether the medians differ by more than the base's
interquartile range, and the raw values.  It also holds, per run, the
largest ru_maxrss among the bench process's reaped children
(RUSAGE_CHILDREN): ``peak_rss_mb`` counts the bench process only, so this
is where processes it forks show up.  Needs only the standard library and
git.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs bench/run.py as `python bench/run.py ...` would, then reports the
# reaped children's peak RSS on stderr.
_RUNNER = """
import json, resource, sys
from pathlib import Path
script = Path("bench/run.py").resolve()
sys.argv = [str(script), *sys.argv[1:]]
sys.path[0] = str(script.parent)
try:
    exec(compile(script.read_bytes(), str(script), "exec"), {"__name__": "__main__", "__file__": str(script)})
finally:
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("bench_pairs " + json.dumps({"children_peak_rss_mb": kib / 1024}), file=sys.stderr)
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_tree(rev: str, into: Path) -> str:
    """Write the tree of rev into a directory; returns the commit sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in tree: its end-to-end metrics, checks and children's peak RSS."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, "-c", _RUNNER, *argv], cwd=tree, capture_output=True, text=True)
    extra = [line for line in proc.stderr.splitlines() if line.startswith("bench_pairs ")]
    if proc.returncode != 0 or not extra:
        raise RuntimeError(f"bench run failed in {tree} ({workload}, exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        **json.loads(extra[-1].split(" ", 1)[1]),
    }


def run_pairs(base_tree: Path, workload: str, seed: int, count: int, seconds: float) -> list[dict]:
    """count alternating pairs of runs, the base first in even pairs; progress goes to stderr."""
    pairs = []
    for i in range(count):
        pair = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            pair[side] = run_bench(base_tree if side == "base" else ROOT, workload, seed, seconds)
        pairs.append(pair)
        metrics = ", ".join(f"{name} {pair['base']['metrics'][name]:.4g} -> {value:.4g}" for name, value in pair["change"]["metrics"].items())
        print(f"{workload} seed {seed} pair {i + 1}/{count}: {metrics}", file=sys.stderr)
    return pairs


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: both sides' median and quartiles, the change's wins, and the raw pairs."""
    out = {}
    for name, better in directions.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        b, c = quartiles(base), quartiles(change)
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, change))
        out[name] = {
            "better": better,
            "base": b,
            "change": c,
            "change_over_base": c["median"] / b["median"] if b["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "median_gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
            "base_values": base,
            "change_values": change,
        }
    for key in ("children_peak_rss_mb", "failed"):
        out[key] = {side: [p[side][key] for p in pairs] for side in ("base", "change")}
    return out


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit the working tree is measured against (default HEAD)")
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD=PAIRS")
    parser.add_argument("--pairs", type=int, default=3, help="pairs per workload without --run")
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    plan = {}
    for item in args.run:
        workload, _, count = item.partition("=")
        if workload not in names or not count.isdigit() or int(count) < 1:
            parser.error(f"--run {item}: expected one of {names} and a positive pair count")
        plan[workload] = int(count)
    plan = plan or dict.fromkeys(names, args.pairs)
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}

    change_sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp)
        base_sha = export_tree(args.base, base_tree)
        for seed in args.seed:
            for workload, count in plan.items():
                pairs = run_pairs(base_tree, workload, seed, count, args.seconds)
                results[f"{workload} seed {seed}"] = summarize(pairs, directions)

    document = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "base_sha": base_sha,
        "change_sha": change_sha,
        "change_has_uncommitted_edits": dirty,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seeds": args.seed,
        "seconds": args.seconds,
        "trace": 0,
        "order": "pair i runs the base first when i is even, the change first when i is odd",
        "workloads": results,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
