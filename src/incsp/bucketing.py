"""Geometric distance grids shared by the engines.

Two monotone threshold arrays back all rounding decisions: a fine grid
``(1 + delta)^k`` that absorbs the per-level rounding of the recursion
tree, and a coarse grid ``(1 + epsilon_internal)^i`` that backs the query
tables.  Both are materialized once by repeated multiplication, and every
later comparison is made against the stored values, so rounding is
reproducible bit for bit.  The accumulated float error of the repeated
multiplication is a few machine epsilons, far below delta, and is inside
the approximation budget.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

EPSILON_CAP = 1.79
DEFAULT_FINE_CAP = 10_000_000

_INF = math.inf


def derive_internal_epsilon(epsilon_input: float) -> float:
    """Shrink the requested accuracy so compounded rounding stays inside it."""
    if not epsilon_input > 0:
        raise ValueError("epsilon must be positive")
    return min(EPSILON_CAP, epsilon_input) / 4.0


def _grid(base: float, cover: float) -> list[float]:
    thresholds = [1.0]
    while thresholds[-1] < cover:
        thresholds.append(thresholds[-1] * base)
    return thresholds


@dataclass(frozen=True)
class BucketTable:
    """Immutable pair of threshold grids; safe to share between builds."""

    epsilon_internal: float
    delta: float
    fine: tuple[float, ...]
    coarse: tuple[float, ...]
    k_fine_nominal: int  # ceil(log_{1+delta}(n*W)); the arrays extend further
    # Query answers by the count c of entry times at or below t: inf for
    # c = 0, else the c-th coarse value from the top.  Built with the table,
    # so every structure on it shares the tuple.
    answers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # coarse_cell_of_value of every finite value the solver rounds to:
    # each fine grid point, and 0.0, which lies in cell 0 (no alive estimate
    # is 0.0, since only the source is at distance 0).  Built with the
    # table, so a node's estimates need no bisect.
    cell_of_fine: dict[float, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "answers", (_INF, *reversed(self.coarse)))
        cells = {value: bisect_left(self.coarse, value) for value in (0.0, *self.fine)}
        object.__setattr__(self, "cell_of_fine", cells)

    @property
    def k_fine(self) -> int:
        return len(self.fine) - 1

    @property
    def k_coarse(self) -> int:
        return len(self.coarse) - 1

    def coarse_cell_of_value(self, value: float) -> int:
        """Index of the smallest coarse threshold >= value."""
        if not value <= self.coarse[-1]:
            raise ValueError("value beyond the coarse grid")
        return bisect_left(self.coarse, value)


def make_table(epsilon_internal: float, m: int, n: int, W: int) -> BucketTable:
    """Build the grids for a timeline of (power-of-two) length m.

    The fine grid must cover not just n*W but the largest estimate the
    recursion can emit, which is inflated by up to (1+delta)^log2(m); we
    build out to n*W*(1+eps)^3 which dominates that.  The nominal index
    ceil(log_{1+delta}(n*W)) is kept for work-bound reporting.
    """
    if m < 2 or m & (m - 1):
        raise ValueError("timeline length must be a power of two, at least 2")
    if not 0 < epsilon_internal < 1:
        raise ValueError("internal epsilon out of range")
    delta = epsilon_internal / math.log2(m)
    limit = n * W
    nominal = 0 if limit <= 1 else math.ceil(math.log(limit) / math.log1p(delta))
    cover = limit * (1.0 + epsilon_internal) ** 3
    projected = 0 if cover <= 1 else math.ceil(math.log(cover) / math.log1p(delta))
    if projected > DEFAULT_FINE_CAP:
        raise ValueError(f"fine grid would need {projected} thresholds, above the cap {DEFAULT_FINE_CAP}")
    fine = _grid(1.0 + delta, cover)
    coarse = _grid(1.0 + epsilon_internal, cover)
    while coarse[-1] < fine[-1]:  # coarse cells must exist for every fine point
        coarse.append(coarse[-1] * (1.0 + epsilon_internal))
    return BucketTable(
        epsilon_internal=epsilon_internal,
        delta=delta,
        fine=tuple(fine),
        coarse=tuple(coarse),
        k_fine_nominal=nominal,
    )
