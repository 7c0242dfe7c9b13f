"""Prediction-quality measures.

All sequence comparisons happen after prediction parsing, so edges are
matched by id (triples were resolved to ids at parse time).  Displacement
is measured per edge of the true timeline against its predicted position,
with absent edges placed at the virtual position m+1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass


def _ids(seq) -> list[int]:
    return [e.edge_id for e in seq]


def per_edge_displacement(sigma, sigma_hat) -> dict[int, int]:
    """|true position - predicted position| for every edge of sigma."""
    true_ids = _ids(sigma)
    pred_pos = {eid: i + 1 for i, eid in enumerate(_ids(sigma_hat))}
    absent = len(true_ids) + 1
    out = {}
    for i, eid in enumerate(true_ids):
        out[eid] = abs((i + 1) - pred_pos.get(eid, absent))
    return out


def hamming(sigma, sigma_hat) -> int:
    a, b = _ids(sigma), _ids(sigma_hat)
    if len(a) != len(b):
        raise ValueError("sequence lengths differ")
    return sum(1 for x, y in zip(a, b) if x != y)


def _check_distinct(ids: list[int]) -> None:
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate elements within a sequence")


def longest_common_length(sigma, sigma_hat) -> int:
    """LCS length for sequences of distinct elements, via patience sorting.

    Elements of one sequence are ranked by their position in the other;
    the LCS is then the longest strictly increasing rank subsequence.
    """
    a, b = _ids(sigma), _ids(sigma_hat)
    _check_distinct(a)
    _check_distinct(b)
    rank = {eid: i for i, eid in enumerate(a)}
    tails: list[int] = []
    for eid in b:
        r = rank.get(eid)
        if r is None:
            continue
        i = bisect_left(tails, r)
        if i == len(tails):
            tails.append(r)
        else:
            tails[i] = r
    return len(tails)


def edit_distance(sigma, sigma_hat) -> int:
    """Minimum insertions plus deletions turning sigma_hat into sigma."""
    a, b = _ids(sigma), _ids(sigma_hat)
    return len(a) + len(b) - 2 * longest_common_length(sigma, sigma_hat)


def over_threshold_counts(etas: dict[int, int], m: int) -> list[int]:
    """counts[tau] = number of edges displaced by more than tau, tau = 0..m."""
    ordered = sorted(etas.values())
    total = len(ordered)
    return [total - bisect_right(ordered, tau) for tau in range(m + 1)]


def min_threshold_objective(etas: dict[int, int], m: int, weight: int = 1) -> tuple[int, int]:
    """Minimize tau + weight * (edges displaced beyond tau) over tau = 0..m.

    Ties resolve to the smallest tau.  Returns (tau, value).
    """
    counts = over_threshold_counts(etas, m)
    best_tau, best = 0, counts[0] * weight
    for tau in range(1, m + 1):
        value = tau + weight * counts[tau]
        if value < best:
            best_tau, best = tau, value
    return best_tau, best


@dataclass(frozen=True)
class ErrorProfile:
    eta_per_edge: dict[int, int]
    eta_max: int
    hamming: int
    edit: int
    high_cardinality: list[int]  # indexed by tau, 0..m
    objective_tau: int
    objective: int

    def to_dict(self) -> dict:
        return {
            "eta_per_edge": {str(k): v for k, v in sorted(self.eta_per_edge.items())},
            "eta_max": self.eta_max,
            "hamming": self.hamming,
            "edit": self.edit,
            "high_cardinality": list(self.high_cardinality),
            "objective_tau": self.objective_tau,
            "objective": self.objective,
        }


def compute_profile(sigma, sigma_hat) -> ErrorProfile:
    """The full error report for a true timeline and an id-matched prediction."""
    m = len(_ids(sigma))
    etas = per_edge_displacement(sigma, sigma_hat)
    counts = over_threshold_counts(etas, m)
    tau, value = min_threshold_objective(etas, m)
    return ErrorProfile(
        eta_per_edge=etas,
        eta_max=max(etas.values(), default=0),
        hamming=hamming(sigma, sigma_hat),
        edit=edit_distance(sigma, sigma_hat),
        high_cardinality=counts,
        objective_tau=tau,
        objective=value,
    )
