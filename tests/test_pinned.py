"""Answers pinned to fixed digests.

The equality checks elsewhere compare the solver with itself (a repaired
structure against a fresh build of the same code).  These digests were
taken from an earlier solver, so a change that moves any node's alive set,
estimates or alive edges, or any query table entry, fails here even when
it moves every build the same way.  A change that is meant to move answers
must say so and re-pin.
"""

import hashlib
import random
from dataclasses import replace

from incsp.apsp import OnlineApsp, build_apsp
from incsp.model import align_prediction, prepare_for_build
from incsp.offline import build_offline
from incsp.online import OnlineEngine
from incsp.workload import PerturbationSpec, generate, perturb


def _structure_digest(s) -> str:
    h = hashlib.sha256()
    h.update(repr((s.n, s.m, s.source, s.base_m)).encode())
    for mid in range(1, s.m):
        node = s.nodes[mid]
        h.update(repr((mid, sorted(node.alive_estimates.items()), sorted(s.alive_edges(node)))).encode())
    # Rows are stored coarsest cell first; the digests hash them finest first.
    h.update(repr(None if s.entry_times is None else [row[::-1] for row in s.entry_times]).encode())
    return h.hexdigest()


def test_offline_build_is_pinned():
    padded = prepare_for_build(generate(n=60, m=1024, W=16, seed=11, epsilon=0.5))
    assert _structure_digest(build_offline(padded)) == (
        "5dcfe26b427b4901b97bf4bee591b7785b5e3d47f02c4e702aaacdbe2e53a9e9"
    )


PINNED_REPLAYS = {
    "window_shuffle": ({"k": 8}, "0da29976765fb465533ce633eeec902eb64a8ecb292f0c128e4c5c500635f720"),
    "relocate": ({"p": 0.05}, "47fa7bdc1ca38d5ed564167df7bbd042f2e532158679bfc4db5360dc36a7e2c2"),
    "replace": ({"p": 0.05}, "478183e5bfaeb69b5a5d464e63122b682cf9a016c30eaa162232e54d7fa6b244"),
}


def test_online_replays_are_pinned():
    for kind, (kwargs, expected) in PINNED_REPLAYS.items():
        inst = generate(n=30, m=512, W=8, seed=17, epsilon=0.5)
        padded = prepare_for_build(inst)
        pred = perturb(inst, PerturbationSpec(kind, seed=3, **kwargs))
        engine = OnlineEngine(padded, align_prediction(pred, padded))
        trail = hashlib.sha256()
        for edge in padded.sigma:
            engine.insert(edge)
            trail.update(repr(engine.D).encode())
        digest = hashlib.sha256((_structure_digest(engine.structure) + trail.hexdigest()).encode())
        assert digest.hexdigest() == expected, kind


def _per_source_trees(inst):
    """build_apsp's result and the trees behind it: build_offline per source on its shared table."""
    apsp = build_apsp(inst)
    padded = prepare_for_build(inst)
    return apsp, [build_offline(replace(padded, source=s), table=apsp.table) for s in range(padded.n)]


def test_apsp_per_source_builds_are_pinned():
    # build_apsp keeps only each source's query tables, so the trees hashed
    # here are rebuilt the way build_apsp builds them.
    _, trees = _per_source_trees(generate(n=12, m=128, W=8, seed=23, epsilon=0.5))
    digest = hashlib.sha256("".join(_structure_digest(s) for s in trees).encode())
    assert digest.hexdigest() == "be8797415e108f30b85a154997bfa44dfc4faf492cad80ffb164730397f76c59"


def test_apsp_query_tables_equal_the_per_source_trees():
    for seed in (23, 43, 47):
        apsp, trees = _per_source_trees(generate(n=10, m=64, W=8, seed=seed, epsilon=0.5))
        assert [s.entry_times for s in apsp.per_source] == [tree.entry_times for tree in trees]
        for i, tree in enumerate(trees):
            for j in range(apsp.n):
                for t in range(apsp.m + 1):
                    assert apsp.query(i, j, t) == tree.query(j, t)
                    assert apsp.query_with_cost(i, j, t) == tree.query_with_cost(j, t)


def _online_apsp_digest(inst, pred, rng) -> str:
    """Every answer and patch size of a replay with 8 seeded query(i, j) per arrival."""
    online = OnlineApsp(inst, pred)
    n = online.n
    h = hashlib.sha256()
    for edge in online.instance.sigma:
        online.insert(edge)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            h.update(repr((i, j, online.query(i, j), online.last_patch_vertices)).encode())
    return h.hexdigest()


def test_online_apsp_answers_are_pinned():
    inst = generate(n=12, m=128, W=8, seed=29, epsilon=0.5)
    pred = perturb(inst, PerturbationSpec("window_shuffle", seed=5, k=8))
    assert _online_apsp_digest(inst, pred, random.Random(31)) == (
        "85abf093f2916ed47a5de606c76556329e168b7c933dbb579898d349c863f2b8"
    )


def test_online_apsp_relocate_answers_are_pinned():
    # Relocation stalls the frontier, so the pending set is large and most
    # queries (650 of 1,024) have both endpoints among its vertices.  Taken
    # before OnlineApsp cached its patch graph across queries.
    inst = generate(n=12, m=128, W=8, seed=37, epsilon=0.5)
    pred = perturb(inst, PerturbationSpec("relocate", seed=7, p=0.05))
    assert _online_apsp_digest(inst, pred, random.Random(41)) == (
        "ed8856c0313b8b950c7823e930ad1adad3bd6bb1862c6ff59c16edaed41a64bc"
    )
