"""Sweep the window width of shuffled predictions and watch the online cost.

For each window width k, every edge of the prediction sits within k slots of
its true position.  The interesting readout is how the replay cost (rebuilt
nodes, alive-edge work, jumps) scales as k grows: roughly linearly, with the
k = 0 column showing the free ride an exact prediction gets.

    python3 scripts/smoothness_sweep.py --n 30 --m 256 --W 16 --eps 0.5 \
        --seeds 5 --csv sweep.csv

Every replay runs through incsp.oracle.verify_online_run, which audits each
answer against the exact distances and the jump and rebuild counts against
their budgets; the script exits 1 when any audit fails.
"""

import argparse
import csv
import sys

from incsp.oracle import verify_online_run
from incsp.workload import PerturbationSpec, generate, perturb


def replay(instance, prediction):
    """The audited replay's report and its table row (verify_online_run flushes, so the counters hold all the work)."""
    report = verify_online_run(instance, prediction)
    profile = report["profile"]
    return report, {
        "eta_max": profile.eta_max,
        "objective": profile.objective,
        "nodes_rebuilt": report["nodes_rebuilt"],
        "alive_edge_work": report["alive_edge_work"],
        "total_jumps": report["total_jumps"],
        "full_rebuilds": report["full_rebuilds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30)
    parser.add_argument("--m", type=int, default=256)
    parser.add_argument("--W", type=int, default=16)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--seeds", type=int, default=5, help="instances per k")
    parser.add_argument(
        "--widths", type=int, nargs="+", default=[0, 1, 2, 4, 8, 16, 32, 64]
    )
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)

    rows, failed = [], []
    for k in args.widths:
        acc = {"eta_max": 0, "objective": 0, "nodes_rebuilt": 0,
               "alive_edge_work": 0, "total_jumps": 0, "full_rebuilds": 0}
        for s in range(args.seeds):
            inst = generate(n=args.n, m=args.m, W=args.W, seed=100 + s, epsilon=args.eps)
            pred = perturb(inst, PerturbationSpec("window_shuffle", seed=200 + s, k=k))
            report, counts = replay(inst, pred)
            if not report["ok"]:
                failed.append(f"k={k} on instance seed {100 + s}: {report['violations'][:3]}")
            for key, value in counts.items():
                acc[key] += value
        row = {"k": k}
        row.update({key: value / args.seeds for key, value in acc.items()})
        rows.append(row)

    header = f"{'k':>4} {'eta_max':>8} {'objective':>10} {'rebuilt':>9} {'work':>12} {'jumps':>8} {'full':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['k']:>4} {r['eta_max']:>8.1f} {r['objective']:>10.1f} "
            f"{r['nodes_rebuilt']:>9.1f} {r['alive_edge_work']:>12.1f} "
            f"{r['total_jumps']:>8.1f} {r['full_rebuilds']:>5.1f}"
        )

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    for line in failed:
        print(f"audit failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
