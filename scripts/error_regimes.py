"""Compare perturbation families at matched intensity levels.

Window shuffles keep every edge near its slot, relocations teleport a few
edges arbitrarily far, and replacements make the prediction outright wrong
about which edges exist.  The same online machinery absorbs all three; this
script tabulates how each error shape translates into replay cost, next to
the displacement budget the cost is provably held under.

    python3 scripts/error_regimes.py --n 20 --m 128 --seeds 3

Every replay runs through incsp.oracle.verify_online_run, which audits each
answer against the exact distances and the jump and rebuild counts against
their budgets; the script exits 1 when any audit fails.
"""

import argparse
import csv
import sys

from incsp.oracle import verify_online_run
from incsp.workload import PerturbationSpec, generate, perturb

REGIMES = [
    PerturbationSpec("identity"),
    PerturbationSpec("window_shuffle", k=2),
    PerturbationSpec("window_shuffle", k=8),
    PerturbationSpec("window_shuffle", k=32),
    PerturbationSpec("relocate", p=0.02),
    PerturbationSpec("relocate", p=0.1),
    PerturbationSpec("replace", p=0.02),
    PerturbationSpec("replace", p=0.1),
]


def run_regime(inst, spec, seed):
    """The audited replay's report and its table row (verify_online_run flushes, so the counters hold all the work)."""
    if spec.kind == "identity":
        live = spec
    else:
        live = PerturbationSpec(spec.kind, seed=seed, k=spec.k, p=spec.p)
    report = verify_online_run(inst, perturb(inst, live))
    profile = report["profile"]
    return report, {
        "eta_max": profile.eta_max,
        "edit": profile.edit,
        "jump_budget": report["jump_budget"],
        "worst_jumps": report["worst_jumps"],
        "nodes_rebuilt": report["nodes_rebuilt"],
        "alive_edge_work": report["alive_edge_work"],
        "full_rebuilds": report["full_rebuilds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--m", type=int, default=128)
    parser.add_argument("--W", type=int, default=16)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--seeds", type=int, default=3, help="instances per regime")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)

    rows, failed = [], []
    for spec in REGIMES:
        keys = ["eta_max", "edit", "jump_budget", "worst_jumps",
                "nodes_rebuilt", "alive_edge_work", "full_rebuilds"]
        acc = dict.fromkeys(keys, 0)
        for s in range(args.seeds):
            inst = generate(n=args.n, m=args.m, W=args.W, seed=300 + s, epsilon=args.eps)
            report, counts = run_regime(inst, spec, seed=400 + s)
            if not report["ok"]:
                failed.append(f"{spec.label()} on instance seed {300 + s}: {report['violations'][:3]}")
            for key, value in counts.items():
                acc[key] += value
        row = {"regime": spec.label()}
        row.update({key: value / args.seeds for key, value in acc.items()})
        rows.append(row)

    header = (
        f"{'regime':<20} {'eta_max':>8} {'edit':>6} {'budget':>7} "
        f"{'jumps':>6} {'rebuilt':>8} {'work':>10} {'full':>5}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['regime']:<20} {r['eta_max']:>8.1f} {r['edit']:>6.1f} "
            f"{r['jump_budget']:>7.1f} {r['worst_jumps']:>6.1f} "
            f"{r['nodes_rebuilt']:>8.1f} {r['alive_edge_work']:>10.1f} {r['full_rebuilds']:>5.1f}"
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
