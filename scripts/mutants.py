"""Mutation checks: every listed mutant must make its test selection fail.

    python3 scripts/mutants.py

Run from anywhere inside the repository.  Each entry names a file under
src/, an exact old text, the new text that replaces it and a pytest
selection.  For each entry the script copies src/ to a temporary directory,
applies the change there and runs ``python -m pytest -x -q`` on the
selection from the repository root with PYTHONPATH set to the copy; the run
must end with failing tests (pytest exit status 1).  Before anything runs,
every old text must occur exactly once in its file, so a refactor that
moves the code stops the script and the entry is updated in the same
change.  Every selection must also pass on the unmutated src/.  A run
that outlasts TIMEOUT_S seconds counts as a surviving mutant.  Exits
non-zero if any check fails.  Needs only the standard library and the test
dependencies (pytest, hypothesis).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: paths, node ids, -k expressions


MUTANTS = [
    Mutant(
        "delta-kept-low-is-est",  # est[u] in place of its grid predecessor
        "incsp/offline.py",
        "                    low = fine[i - 1] if i else 0.0\n",
        "",
        ("tests/test_online.py",),
    ),
    Mutant(
        "delta-kept-dead-tail-ge",  # >= for > on a dead-tail lost edge
        "incsp/offline.py",
        "            elif above[u] + weight[eid] > bound:\n",
        "            elif above[u] + weight[eid] >= bound:\n",
        ("tests/test_acceptance.py", "-k", "criterion_03"),
    ),
    Mutant(
        "children-stale-symmetric-difference",
        "incsp/offline.py",
        "    for v in moved:\n        before = old[v] if v in old else stale.get(v, above[v])\n",
        "    for v in new.keys() ^ old.keys():\n        before = old[v] if v in old else stale.get(v, above[v])\n",
        ("tests/test_offline.py", "-k", "children_stale"),
    ),
    Mutant(
        "mark-prefixes-no-clip",
        "incsp/offline.py",
        "for p in range(first, min(last, self.m - 1) + 1):",
        "for p in range(first, last + 1):",
        ("tests/test_online.py", "-k", "mark_prefixes"),
    ),
    Mutant(
        "recompute-base-no-root-guard",
        "incsp/offline.py",
        "        if moved and self.nodes[self.m // 2] is not None:\n",
        "        if moved:\n",
        ("tests/test_offline.py", "-k", "build_leaves_no_repair_state"),
    ),
    Mutant(
        "push-drops-pending-delta",
        "incsp/offline.py",
        "{**stale, **old.stale}, old.delta)",
        "{**stale, **old.stale}, {})",
        ("tests/test_online.py", "-k", "share_one_entry"),
    ),
    Mutant(
        "fork-pool-left-open",  # the pool is never shut down, so its workers and thread outlive the call
        "incsp/forkpool.py",
        "        with ProcessPoolExecutor(workers, get_context(\"fork\")) as pool:\n            yield pool\n",
        "        yield ProcessPoolExecutor(workers, get_context(\"fork\"))\n",
        ("tests/test_apsp.py", "tests/test_offline.py", "-k", "leaves_no_child"),
    ),
    Mutant(
        "fork-pool-nests",  # a build_apsp share, run while the pool is open or inside it, forks its own
        "incsp/forkpool.py",
        "    if _inputs is not None:\n        return 0\n",
        "",
        ("tests/test_offline.py", "-k", "build_apsp_share"),
    ),
    Mutant(
        "fork-pool-stays-frozen",  # every object the pool froze stays out of the gc's reach
        "incsp/forkpool.py",
        "            gc.unfreeze()\n",
        "            pass\n",
        ("tests/test_offline.py", "-k", "gc_as_it_found_it"),
    ),
    Mutant(
        "halves-merge-drops-scan-work",  # the worker's half scanned nothing, by the caller's counters
        "incsp/offline.py",
        "        self.scan_work += other.scan_work\n",
        "",
        ("tests/test_offline.py", "-k", "halves_equals"),
    ),
    Mutant(
        "halves-decode-inf-as-last-grid-point",  # a right-half vertex alive at inf comes back finite
        "incsp/offline.py",
        "values = (*self.table.fine, UNREACHABLE)",
        "values = (*self.table.fine, self.table.fine[-1])",
        ("tests/test_offline.py", "-k", "halves_equals"),
    ),
    Mutant(
        "recompute-base-skips-a-tight-drop",  # a dropped edge on a shortest path counts as off every one
        "incsp/offline.py",
        "base[dropped.tail] + dropped.weight > base[dropped.head]",
        "base[dropped.tail] + dropped.weight >= base[dropped.head]",
        ("tests/test_online.py", "-k", "recompute_base_equals"),
    ),
    Mutant(
        "recompute-base-ignores-the-arrival",  # a skip that only checks the dropped edge
        "incsp/offline.py",
        "            and base[arrived.tail] + arrived.weight >= base[arrived.head]\n",
        "",
        ("tests/test_online.py", "-k", "recompute_base_equals"),
    ),
    Mutant(
        "build-apsp-shares-swapped",  # share i loaded onto the sources of share k - i
        "incsp/apsp.py",
        "for s, record in zip(range(i, n, k), share.result()):",
        "for s, record in zip(range(k - i, n, k), share.result()):",
        ("tests/test_apsp.py", "-k", "worker_shares_equal_per_source_builds"),
    ),
    Mutant(
        "fork-pool-imported-at-top",  # every `import incsp` pays for the pool's modules
        "incsp/forkpool.py",
        "import contextlib\n",
        "import concurrent.futures.process\nimport contextlib\n",
        ("tests/test_apsp.py", "-k", "loads_no_pool"),
    ),
    Mutant(
        "apsp-receive-over-allocates",  # the exact-size copy reverted to list(map(...))
        "incsp/apsp.py",
        "return list(tuple(map(shared.setdefault, values, values)))",
        "return list(map(shared.setdefault, values, values))",
        ("tests/test_apsp.py::test_worker_rows_hold_no_more_than_in_process_rows",),
    ),
    Mutant(
        "online-apsp-no-frontier-reset",  # the advancing arrival rebuilds the patch graph on top of the old one
        "incsp/apsp.py",
        "            self._graph = {}\n            for e in self.pending_edges():\n",
        "            for e in self.pending_edges():\n",
        ("tests/test_apsp.py", "-k", "cached_patch"),
    ),
    Mutant(
        "online-apsp-no-own-edge-weight",
        "incsp/apsp.py",
        "            graph[e.tail].append((e.head, e.weight))\n",
        "            pass\n",
        ("tests/test_apsp.py", "-k", "cached_patch"),
    ),
    Mutant(
        "online-apsp-no-stalled-arrival-extension",
        "incsp/apsp.py",
        "        else:\n            self._add_pending(edge)\n",
        "",
        ("tests/test_apsp.py", "-k", "cached_patch"),
    ),
    Mutant(
        "online-apsp-no-direct-bound",  # i outside P loses its direct edge into j outside P
        "incsp/apsp.py",
        "            bound = out[j]\n",
        "            bound = UNREACHABLE\n",
        ("tests/test_apsp.py", "-k", "cached_patch"),
    ),
    Mutant(
        "online-apsp-no-last-hop",  # j outside P is reached only by the direct bound
        "incsp/apsp.py",
        "last_hop = lambda u: at[u][j]",
        "last_hop = lambda u: UNREACHABLE",
        ("tests/test_apsp.py", "-k", "cached_patch"),
    ),
    Mutant(
        "online-apsp-advance-stops-short",  # the answers that change at the new frontier itself keep their old value
        "incsp/apsp.py",
        "            for t in range(old_frontier + 1, f + 1):\n",
        "            for t in range(old_frontier + 1, f):\n",
        ("tests/test_apsp.py::test_answer_matrix_follows_the_frontier",),
    ),
    Mutant(
        "online-apsp-change-list-drops-a-last-time",  # T_1(0) never takes its final value
        "incsp/apsp.py",
        "                        self._changes[t].append(x * n + v)\n",
        "                        if (x, v) != (1, 0) or t < max(u for u in row if u <= m):\n"
        "                            self._changes[t].append(x * n + v)\n",
        ("tests/test_apsp.py::test_answer_matrix_follows_the_frontier",),
    ),
    Mutant(
        "search-steps-counts-found-slot-as-below",  # every counted search makes different comparison counts
        "incsp/offline.py",
        "        if mid < index:\n",
        "        if mid <= index:\n",
        ("tests/test_cli.py", "-k", "pinned"),
    ),
    Mutant(
        "move-forward-keeps-the-index-order",  # the moved edge stays where it was in its head's in-edge list
        "incsp/model.py",
        "        cols.relink(edge_id, edge_id)\n",
        "",
        ("tests/test_model.py", "-k", "in_edge_index"),
    ),
    Mutant(
        "alive-edges-read-stops-before-mid",  # the edge at position mid is left out of the patch graph
        "incsp/offline.py",
        "            k = bisect_right(into[v], mid, key=key)\n",
        "            k = bisect_left(into[v], mid, key=key)\n",
        ("tests/test_pinned.py", "-k", "offline_build"),
    ),
    Mutant(
        "check-arrival-no-conflict",  # an arrival that reuses a known id with another triple gets through
        "incsp/model.py",
        "    if known is not None and known != edge.triple:\n",
        "    if False:\n",
        ("tests/test_apsp.py", "-k", "rejects_bad_edge"),
    ),
    Mutant(
        "dijkstra-no-push-filter",  # the same answers and lookups, but labels that cannot win are pushed
        "incsp/offline.py",
        "            if nd < best and nd < dist.get(v, UNREACHABLE):\n",
        "            if nd < dist.get(v, UNREACHABLE):\n",
        ("tests/test_apsp.py", "-k", "work_is_capped"),
    ),
]


def check_texts(mutants: list[Mutant]) -> list[str]:
    """One line per entry whose old text does not occur exactly once in its file."""
    errors = []
    for mutant in mutants:
        count = (ROOT / "src" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            errors.append(f"{mutant.name}: old text occurs {count} times in src/{mutant.file}")
    return errors


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int | None, float]:
    """pytest's exit status (None on timeout) and the wall time, with src first on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return done.returncode, time.perf_counter() - start


def main() -> int:
    errors = check_texts(MUTANTS)
    if errors:
        print("\n".join(errors))
        return 1
    failures = 0
    for tests in dict.fromkeys(mutant.tests for mutant in MUTANTS):
        status, seconds = run_tests(ROOT / "src", tests)
        print(f"{'ok' if status == 0 else 'FAIL':9} unmutated   {' '.join(tests)} ({seconds:.1f} s, exit {status})")
        failures += status != 0
    with tempfile.TemporaryDirectory(prefix="incsp-mutants-") as tmp:
        for mutant in MUTANTS:
            src = Path(tmp) / mutant.name
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            status, seconds = run_tests(src, mutant.tests)
            killed = status == 1
            print(f"{'killed' if killed else 'SURVIVED':9} {mutant.name} ({seconds:.1f} s, exit {status})")
            failures += not killed
            shutil.rmtree(src)
    print(f"{len(MUTANTS)} mutants, {failures} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
