import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsp.metrics import (
    compute_profile,
    edit_distance,
    hamming,
    longest_common_length,
    min_threshold_objective,
    over_threshold_counts,
    per_edge_displacement,
)
from incsp.model import EdgeInsert, InsertSequence
from tests.conftest import brute_edit_distance


def seq(ids):
    return InsertSequence([EdgeInsert(i, 0, 0, 1) for i in ids])


# -- the worked example -----------------------------------------------------------


def test_t1_displacements(t1_padded, t1_permuted):
    etas = per_edge_displacement(t1_padded.sigma, t1_permuted)
    assert etas == {0: 1, 1: 1, 2: 0, 3: 0}


def test_t1_profile(t1_padded, t1_permuted):
    profile = compute_profile(t1_padded.sigma, t1_permuted)
    assert profile.eta_max == 1
    assert profile.hamming == 2
    assert profile.edit == 2
    assert profile.objective == 1
    assert profile.objective_tau == 1
    assert profile.high_cardinality[0] == 2
    assert profile.high_cardinality[1] == 0


def test_t1_high_sets(t1_padded, t1_permuted):
    etas = per_edge_displacement(t1_padded.sigma, t1_permuted)
    assert {eid for eid, eta in etas.items() if eta > 0} == {0, 1}
    assert {eid for eid, eta in etas.items() if eta > 1} == set()


def test_profile_to_dict_round_trips(t1_padded, t1_permuted):
    doc = compute_profile(t1_padded.sigma, t1_permuted).to_dict()
    assert doc["eta_per_edge"] == {"0": 1, "1": 1, "2": 0, "3": 0}
    assert doc["eta_max"] == 1
    assert doc["high_cardinality"] == [2, 0, 0, 0, 0]


# -- basics ------------------------------------------------------------------------


def test_absent_edges_land_at_virtual_position():
    s = seq([1, 2, 3, 4])
    p = seq([9, 2, 3, 4])
    etas = per_edge_displacement(s, p)
    assert etas[1] == 4  # |1 - (m + 1)| with m = 4
    assert set(etas) == {1, 2, 3, 4}  # predicted-only ids never appear


def test_hamming_counts_mismatched_slots():
    assert hamming(seq([1, 2, 3]), seq([1, 3, 2])) == 2
    assert hamming(seq([1, 2, 3]), seq([1, 2, 3])) == 0


def test_hamming_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        hamming(seq([1, 2]), seq([1, 2, 3]))


def test_lcs_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        longest_common_length(seq([1, 1, 2]), seq([1, 2, 3]))


def test_edit_distance_examples():
    assert edit_distance(seq([1, 2, 3]), seq([1, 2, 3])) == 0
    assert edit_distance(seq([1, 2, 3]), seq([4, 5, 6])) == 6
    assert edit_distance(seq([1, 2, 3, 4]), seq([2, 1, 4, 3])) == 4
    assert edit_distance(seq([1, 2, 3, 4]), seq([2, 3, 4, 1])) == 2


def test_threshold_counts_tabulate_the_tail():
    etas = {1: 0, 2: 2, 3: 2, 4: 5}
    assert over_threshold_counts(etas, 6) == [3, 3, 1, 1, 1, 0, 0]


def test_objective_prefers_smallest_tau_on_ties():
    # tau=0 scores 0+1, tau=1 scores 1+0: the tie resolves low
    etas = {1: 1}
    assert min_threshold_objective(etas, 4) == (0, 1)


def test_objective_weight_doubles_the_cardinality_term():
    etas = {1: 0, 2: 3, 3: 3}
    assert min_threshold_objective(etas, 6, weight=1) == (0, 2)  # tau=0: 0+2
    tau, value = min_threshold_objective(etas, 6, weight=2)
    assert value == min(t + 2 * c for t, c in enumerate(over_threshold_counts(etas, 6)))


# -- properties --------------------------------------------------------------------


@st.composite
def id_pairs(draw):
    m = draw(st.integers(min_value=0, max_value=10))
    k = draw(st.integers(min_value=0, max_value=10))
    pool = list(range(20))
    a = draw(st.permutations(pool))[:m]
    b = draw(st.permutations(pool))[:k]
    return a, b


@settings(max_examples=1000, deadline=None)
@given(id_pairs())
def test_edit_distance_matches_brute_dp(pair):
    a, b = pair
    assert edit_distance(seq(a), seq(b)) == brute_edit_distance(seq(a), seq(b))


@st.composite
def same_length_pairs(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    pool = list(range(24))
    a = draw(st.permutations(pool))[:m]
    b = draw(st.permutations(pool))[:m]
    return a, b


@settings(max_examples=300, deadline=None)
@given(same_length_pairs())
def test_profile_invariants(pair):
    a, b = pair
    m = len(a)
    profile = compute_profile(seq(a), seq(b))
    counts = profile.high_cardinality

    # the tail counts shrink as the threshold loosens, and vanish past eta_max
    assert all(x >= y for x, y in zip(counts, counts[1:]))
    if profile.eta_max <= m:
        assert counts[profile.eta_max] == 0

    # the objective undercuts every fixed threshold, including tau = eta_max
    assert all(profile.objective <= tau + c for tau, c in enumerate(counts))
    assert profile.objective <= profile.eta_max

    assert profile.edit <= 2 * profile.hamming
    assert profile.edit <= 2 * m

    # one edit op moves any surviving edge by at most one slot, so only
    # absent edges can sit beyond the edit distance, and each costs an op
    if profile.edit <= m:
        assert counts[profile.edit] <= profile.edit


@settings(max_examples=200, deadline=None)
@given(same_length_pairs())
def test_identical_prefixes_only_differ_in_the_tail(pair):
    a, _ = pair
    profile = compute_profile(seq(a), seq(a))
    assert profile.eta_max == 0
    assert profile.hamming == 0
    assert profile.edit == 0
    assert profile.objective == 0
