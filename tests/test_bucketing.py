import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incsp.bucketing
from incsp.bucketing import BucketTable, derive_internal_epsilon, make_table


def round_up_value(table: BucketTable, value: float) -> float:
    """Fine grid point >= value (0 and inf pass through), as the solver rounds.

    Grid points round to themselves.  Values above the last threshold
    map to inf; estimates produced by the engines never get there
    because the grid covers the worst inflated distance.
    """
    if value < 0:
        raise ValueError("distances are nonnegative")
    if value == 0:
        return 0.0
    if value > table.fine[-1]:
        return math.inf
    return table.fine[bisect_left(table.fine, value)]


def test_internal_epsilon_examples():
    assert derive_internal_epsilon(1.0) == 0.25
    assert derive_internal_epsilon(4.0) == pytest.approx(0.4475)
    assert derive_internal_epsilon(0.1) == pytest.approx(0.025)


def test_internal_epsilon_rejects_nonpositive():
    with pytest.raises(ValueError):
        derive_internal_epsilon(0.0)
    with pytest.raises(ValueError):
        derive_internal_epsilon(-1.0)


def test_make_table_delta_and_nominal_length():
    table = make_table(0.25, m=4, n=3, W=8)
    assert table.delta == pytest.approx(0.125)
    # ceil(log(24)/log(1.125)) = 27
    assert table.k_fine_nominal == 27
    assert table.fine[0] == 1.0
    # thresholds are memoized products of the base
    assert table.fine[1] == pytest.approx(1.125)
    assert table.fine[2] == pytest.approx(1.125 * 1.125)


def test_make_table_base_powers():
    table = make_table(0.5, m=4, n=3, W=8)
    assert table.delta == pytest.approx(0.25)
    assert list(table.fine[:3]) == [1.0, 1.25, 1.5625]


def test_make_table_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        make_table(0.25, m=3, n=3, W=8)
    with pytest.raises(ValueError):
        make_table(0.25, m=1, n=3, W=8)


def test_make_table_rejects_oversized_grid(monkeypatch):
    monkeypatch.setattr(incsp.bucketing, "DEFAULT_FINE_CAP", 10)
    with pytest.raises(ValueError, match="above the cap 10"):
        make_table(0.25, m=4, n=3, W=8)


def _delta_half_table():
    # m=2 makes delta equal epsilon_internal: thresholds 1, 1.5, 2.25, ...
    return make_table(0.5, m=2, n=3, W=8)


def test_round_up_examples():
    table = _delta_half_table()
    assert table.fine[:5] == pytest.approx([1.0, 1.5, 2.25, 3.375, 5.0625])
    assert round_up_value(table, 5.0) == table.fine[4]
    assert round_up_value(table, 2.25) == table.fine[2]  # exact grid points map to themselves
    assert round_up_value(table, 0.0) == 0.0


def test_round_up_rejects_negative():
    table = _delta_half_table()
    with pytest.raises(ValueError):
        round_up_value(table, -1.0)


def test_round_up_beyond_grid_is_unreachable():
    table = _delta_half_table()
    assert round_up_value(table, table.fine[-1] * 2) == math.inf


def test_value_of_sentinels():
    table = _delta_half_table()
    assert round_up_value(table, 0.0) == 0.0
    assert round_up_value(table, math.inf) == math.inf
    assert round_up_value(table, table.fine[4]) == table.fine[4]


def test_coarse_cell_examples():
    table = _delta_half_table()
    assert table.coarse_cell_of_value(0.0) == 0
    # delta == epsilon_internal here, so both grids coincide
    assert table.coarse_cell_of_value(table.fine[4]) == 4
    with pytest.raises(ValueError):
        table.coarse_cell_of_value(math.inf)


def test_grid_covers_inflated_estimates():
    # internal estimates can exceed nW after compounded round-ups; the fine
    # grid must still cover nW stretched by three coarse factors
    table = make_table(0.25, m=256, n=50, W=32)
    assert table.fine[-1] >= 50 * 32 * 1.25**3
    assert table.coarse[-1] >= table.fine[-1]


positive_values = st.floats(
    min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200)
@given(positive_values)
def test_round_up_sandwich(value):
    table = make_table(0.25, m=8, n=40, W=250)
    rounded = round_up_value(table, value)
    if rounded == math.inf:
        assert value > table.fine[-1]
        return
    assert value <= rounded
    idx = table.fine.index(rounded)  # raises unless rounded is a grid point
    if idx > 0:
        # nearest power: the previous threshold is strictly below the value
        assert table.fine[idx - 1] < value
        assert rounded <= value * (1 + table.delta) * (1 + 1e-12)


@settings(max_examples=100)
@given(positive_values, positive_values)
def test_round_up_monotone(a, b):
    table = make_table(0.25, m=8, n=40, W=250)
    lo, hi = min(a, b), max(a, b)
    assert round_up_value(table, lo) <= round_up_value(table, hi)


def test_round_up_idempotent_on_grid_points():
    table = make_table(0.25, m=8, n=10, W=16)
    for k, threshold in enumerate(table.fine):
        assert round_up_value(table, threshold) == table.fine[k]


def test_tables_deterministic():
    a = make_table(0.25, m=16, n=10, W=8)
    b = make_table(0.25, m=16, n=10, W=8)
    assert a.fine == b.fine
    assert a.coarse == b.coarse
    assert a == b


def test_round_up_value_passthrough():
    table = _delta_half_table()
    assert round_up_value(table, 0.0) == 0.0
    assert round_up_value(table, math.inf) == math.inf
    assert round_up_value(table, 5.0) == pytest.approx(5.0625)


def test_coarse_cell_of_value_matches_scan():
    table = make_table(0.25, m=8, n=10, W=16)
    for value in [1.0, 1.3, 2.0, 7.7, table.coarse[-1]]:
        expected = min(i for i, c in enumerate(table.coarse) if value <= c)
        assert table.coarse_cell_of_value(value) == expected
    with pytest.raises(ValueError):
        table.coarse_cell_of_value(table.coarse[-1] * 2)
    # The grid map holds the same cell for every finite rounded value.
    assert table.cell_of_fine == {value: table.coarse_cell_of_value(value) for value in (0.0, *table.fine)}
