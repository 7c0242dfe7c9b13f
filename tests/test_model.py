import math
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsp.model import (
    UNREACHABLE,
    EdgeColumns,
    EdgeInsert,
    InsertSequence,
    align_prediction,
    pad_to_power_of_two,
    parse_instance,
    parse_prediction,
    parse_query_file,
    prepare_for_build,
    serialize_instance,
    serialize_prediction,
)
from tests.conftest import T1_TEXT


def test_parse_t1(t1):
    assert (t1.n, t1.W, t1.epsilon, t1.source) == (3, 8, 1.0, 0)
    assert t1.m == 4
    triples = [e.triple for e in t1.sigma]
    assert triples == [(0, 1, 4), (1, 2, 2), (0, 2, 8), (0, 1, 1)]
    assert [e.edge_id for e in t1.sigma] == [0, 1, 2, 3]


def test_parse_rejects_zero_weight():
    text = "3 1 8 1.0 0\n0 1 0\n"
    with pytest.raises(ValueError, match="weight out of range"):
        parse_instance(text)


def test_parse_rejects_duplicate_edge():
    text = "3 2 8 1.0 0\n0 1 4\n0 1 4\n"
    with pytest.raises(ValueError, match="duplicate edge"):
        parse_instance(text)


def test_parse_rejects_bad_vertex():
    text = "3 1 8 1.0 0\n0 3 4\n"
    with pytest.raises(ValueError, match="vertex id out of range"):
        parse_instance(text)


def test_parse_rejects_malformed_header():
    with pytest.raises(ValueError, match="malformed header"):
        parse_instance("3 1 8\n0 1 4\n")


def test_parse_rejects_wrong_line_count():
    with pytest.raises(ValueError):
        parse_instance("3 2 8 1.0 0\n0 1 4\n")


def test_round_trip(t1):
    assert parse_instance(serialize_instance(t1)) == t1
    assert serialize_instance(t1) == T1_TEXT


def _dummy_free_sequence(k):
    return InsertSequence(
        [EdgeInsert(i, 0, 1, i + 1) for i in range(k)]
    )


def test_padding_lengths():
    assert len(pad_to_power_of_two(_dummy_free_sequence(4), 0)) == 4
    assert len(pad_to_power_of_two(_dummy_free_sequence(5), 0)) == 8
    assert len(pad_to_power_of_two(_dummy_free_sequence(1), 0)) == 1
    assert len(pad_to_power_of_two(_dummy_free_sequence(1), 0, minimum=2)) == 2


def test_padding_appends_source_self_loops():
    seq = _dummy_free_sequence(5)
    padded = pad_to_power_of_two(seq, 3)
    assert padded.real_len == 5
    for e in padded.edges[5:]:
        assert (e.tail, e.head, e.weight) == (3, 3, 1)
    # fresh ids, no collisions
    assert len(set(padded.ids())) == 8


def test_positions_are_one_based(t1):
    seq = t1.sigma
    assert seq.position_of(0) == 1
    assert seq.position_of(3) == 4
    assert seq.position_of(99) == len(seq) + 1


def test_positions_with_far_edge_ids():
    seq = InsertSequence([EdgeInsert(10**12, 0, 1, 1), EdgeInsert(-3, 1, 2, 1), EdgeInsert(0, 0, 2, 1)])
    assert [seq.position_of(i) for i in (10**12, -3, 0, 1, -1, 10**12 + 1)] == [1, 2, 3, 4, 4, 4]


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate edge id"):
        InsertSequence([EdgeInsert(0, 0, 1, 1), EdgeInsert(0, 1, 2, 1)])


def test_prepare_for_build_pads_to_minimum_two():
    inst = parse_instance("2 1 4 1.0 0\n0 1 2\n")
    padded = prepare_for_build(inst)
    assert padded.m == 2
    assert padded.sigma.real_len == 1


def test_parse_prediction_matches_by_triple(t1_padded):
    pred_text = "1 2 2\n0 1 4\n0 2 8\n0 1 1\n"
    edges = parse_prediction(pred_text, t1_padded)
    assert [e.edge_id for e in edges] == [1, 0, 2, 3]


def test_parse_prediction_phantoms_get_fresh_ids(t1_padded):
    pred_text = "1 2 2\n0 1 4\n2 1 3\n0 1 1\n"
    edges = parse_prediction(pred_text, t1_padded)
    known = set(t1_padded.sigma.ids())
    assert edges[2].edge_id not in known
    assert edges[2].triple == (2, 1, 3)


def test_parse_prediction_rejects_duplicates(t1_padded):
    pred_text = "1 2 2\n1 2 2\n"
    with pytest.raises(ValueError):
        parse_prediction(pred_text, t1_padded)


def test_align_identity_is_identity(t1_padded):
    aligned = align_prediction(list(t1_padded.sigma), t1_padded)
    assert aligned == t1_padded.sigma


def test_align_pads_short_prediction(t1_padded):
    edges = list(t1_padded.sigma)[:2]
    aligned = align_prediction(edges, t1_padded)
    assert len(aligned) == t1_padded.m
    assert list(aligned)[:2] == edges
    for e in list(aligned)[2:]:
        assert (e.tail, e.head, e.weight) == (0, 0, 1)


def test_align_truncates_long_prediction(t1_padded):
    extra = EdgeInsert(97, 2, 1, 5)
    edges = list(t1_padded.sigma) + [extra]
    aligned = align_prediction(edges, t1_padded)
    assert len(aligned) == t1_padded.m
    assert list(aligned) == list(t1_padded.sigma)


def test_align_renumbers_phantom_holding_a_padding_id():
    inst = parse_instance("3 3 4 1.0 0\n0 1 2\n1 2 3\n0 2 4\n")
    padded = prepare_for_build(inst)
    assert padded.sigma[3].edge_id == 3  # the padding self-loop
    # a replaced edge numbered against the unpadded timeline, as perturb does
    phantom = EdgeInsert(3, 2, 0, 1)
    pred = [inst.sigma[0], phantom, inst.sigma[2]]
    aligned = align_prediction(pred, padded)
    assert [e.triple for e in aligned] == [(0, 1, 2), (2, 0, 1), (0, 2, 4), (0, 0, 1)]
    assert aligned[1].edge_id not in set(padded.sigma.ids())
    assert aligned[3] == padded.sigma[3]


def test_serialize_prediction_round_trips(t1_padded):
    edges = list(t1_padded.sigma)
    text = serialize_prediction(edges)
    again = parse_prediction(text, t1_padded)
    assert [e.triple for e in again] == [e.triple for e in edges]
    assert [e.edge_id for e in again] == [e.edge_id for e in edges]


def test_parse_query_file_arities():
    assert parse_query_file("1 2\n3 4\n", arity=2) == [(1, 2), (3, 4)]
    assert parse_query_file("1 2 3\n", arity=3) == [(1, 2, 3)]
    with pytest.raises(ValueError):
        parse_query_file("1 2 3\n", arity=2)


def test_unreachable_sentinel():
    assert UNREACHABLE == math.inf
    assert 10**18 < UNREACHABLE


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=40))
def test_padding_length_is_next_power_of_two(k):
    padded = pad_to_power_of_two(_dummy_free_sequence(k), 0)
    size = len(padded)
    assert size >= k
    assert size & (size - 1) == 0
    assert size < 2 * k or size == 1 or (size == 2 and k == 1)


_triples = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.lists(_triples, min_size=m, max_size=m),
    st.lists(st.tuples(st.booleans(), st.integers(1, m), st.integers(1, m), _triples), max_size=20),
)))
def test_in_edge_index_follows_the_corrections(case):
    # Four vertices, so heads repeat and each correction reorders a list.
    # After every move_forward and insert_truncating the index (ids and
    # hops) equals the one the columns would build from the order alone,
    # and holds no dropped edge.
    triples, steps = case
    seq = InsertSequence([EdgeInsert(i, *triple) for i, triple in enumerate(triples)])
    cols, next_id, dropped = seq.columns, len(triples), set()
    for move, a, b, triple in steps:
        if move:
            seq.move_forward(cols.order[max(a, b) - 1], min(a, b))
        else:
            dropped.add(seq.insert_truncating(EdgeInsert(next_id, *triple), a).edge_id)
            next_id += 1
        rebuilt = EdgeColumns([EdgeInsert(eid, cols.tail[eid], cols.head[eid], cols.weight[eid]) for eid in cols.order])
        assert {v: ids for v, ids in cols.into.items() if ids} == rebuilt.into
        assert {v: hops for v, hops in cols.hops.items() if hops} == rebuilt.hops
        assert dropped.isdisjoint(chain.from_iterable(cols.into.values()))
