"""Seeded instance generation and prediction perturbations.

Generators take explicit seeds so every run is reproducible; there are no
entropy defaults.  Perturbations act on the raw (unpadded) timeline; the
padding appended later matches position-for-position on both sides, so
displacement bounds established here survive alignment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import EdgeInsert, InsertSequence, ProblemInstance


def _random_triple(rng: random.Random, n: int, W: int) -> tuple[int, int, int]:
    """A uniform non-self-loop (tail, head, weight)."""
    tail = rng.randrange(n)
    head = rng.randrange(n - 1)
    if head >= tail:
        head += 1
    return (tail, head, rng.randint(1, W))


def generate(
    n: int,
    m: int,
    W: int,
    seed: int,
    model: str = "uniform",
    epsilon: float = 1.0,
    source: int = 0,
) -> ProblemInstance:
    """Random instance: m distinct non-self-loop triples in uniform order."""
    if model != "uniform":
        raise ValueError(f"unknown generation model {model!r}")
    if n < 2:
        raise ValueError("need at least two vertices")
    if m < 1:
        raise ValueError("need at least one edge")
    if W < 1:
        raise ValueError("weight bound must be positive")
    if not 0 <= source < n:
        raise ValueError("source out of range")
    capacity = n * (n - 1) * W
    if m > capacity:
        raise ValueError("m exceeds the number of distinct possible triples")
    rng = random.Random(seed)
    triples: list[tuple[int, int, int]]
    if m * 3 >= capacity:
        # Dense regime: enumerate and sample, avoiding rejection stalls.
        universe = [
            (t, h, w)
            for t in range(n)
            for h in range(n)
            if h != t
            for w in range(1, W + 1)
        ]
        triples = rng.sample(universe, m)
    else:
        seen: set[tuple[int, int, int]] = set()
        triples = []
        while len(triples) < m:
            triple = _random_triple(rng, n, W)
            if triple not in seen:
                seen.add(triple)
                triples.append(triple)
    edges = [EdgeInsert(i, t, h, w) for i, (t, h, w) in enumerate(triples)]
    return ProblemInstance(n=n, W=W, epsilon=epsilon, source=source, sigma=InsertSequence(edges))


@dataclass(frozen=True)
class PerturbationSpec:
    kind: str  # identity | window_shuffle | relocate | replace
    seed: int = 0
    k: int | None = None  # window_shuffle: window width (max displacement)
    p: float | None = None  # relocate/replace: fraction of edges touched

    def label(self) -> str:
        if self.kind == "window_shuffle":
            return f"window_shuffle({self.k})"
        if self.kind in ("relocate", "replace"):
            return f"{self.kind}({self.p})"
        return self.kind


def _touched_count(p: float, m: int) -> int:
    if not 0 <= p <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    return math.ceil(p * m)


def perturb(instance: ProblemInstance, spec: PerturbationSpec) -> list[EdgeInsert]:
    """A prediction for the instance's timeline, as an edge list."""
    edges = list(instance.sigma)
    m = len(edges)
    rng = random.Random(spec.seed)
    if spec.kind == "identity":
        return edges
    if spec.kind == "window_shuffle":
        if spec.k is None or spec.k < 0:
            raise ValueError("window_shuffle needs a nonnegative k")
        # Blocks of k+1 consecutive positions shuffled internally: no edge
        # moves more than k slots.
        out = []
        width = spec.k + 1
        for start in range(0, m, width):
            block = edges[start : start + width]
            rng.shuffle(block)
            out.extend(block)
        return out
    if spec.kind == "relocate":
        if spec.p is None:
            raise ValueError("relocate needs a fraction p")
        count = _touched_count(spec.p, m)
        chosen = rng.sample(range(m), count)
        chosen_set = set(chosen)
        moved = [edges[i] for i in chosen]
        remaining = [e for i, e in enumerate(edges) if i not in chosen_set]
        for e in moved:
            remaining.insert(rng.randrange(len(remaining) + 1), e)
        return remaining
    if spec.kind == "replace":
        if spec.p is None:
            raise ValueError("replace needs a fraction p")
        count = _touched_count(spec.p, m)
        capacity = instance.n * (instance.n - 1) * instance.W
        existing = {e.triple for e in edges}
        if count > capacity - len(existing):
            raise ValueError("not enough unused triples to replace with")
        positions = sorted(rng.sample(range(m), count))
        next_id = instance.sigma.max_edge_id() + 1
        out = list(edges)
        fresh: set[tuple[int, int, int]] = set()
        for pos in positions:
            triple = _random_triple(rng, instance.n, instance.W)
            while triple in existing or triple in fresh:
                triple = _random_triple(rng, instance.n, instance.W)
            fresh.add(triple)
            out[pos] = EdgeInsert(next_id, *triple)
            next_id += 1
        return out
    raise ValueError(f"unknown perturbation kind {spec.kind!r}")
