"""Property test: :func:`merge_topk` equals its reference definition.

The reference: concatenate every partial, sort by :func:`match_key`
(stable, so the first of equal keys leads), drop adjacent duplicates,
keep the first ``k``.  The merge must return the very same objects in
the same order — which of two equal duplicates survives is part of the
contract, since equal matches from different shards may carry their
assignments in different dict orders.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matches import Match
from repro.shard.merge import _keyed_run, match_key, merge_topk, node_key
from tests.strategies import FUZZ_EXAMPLES

#: Node ids of every kind the merge must order: ints, strings, tuples.
#: A case draws its data nodes from one kind or from a mix of kinds
#: (keys compare data nodes through ``node_key``); query nodes are
#: shared by all matches and may mix.
ID_KINDS = (
    st.integers(-3, 12),
    st.text("abv", min_size=1, max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from(("x", "y"))),
)
node_ids = st.one_of(*ID_KINDS)
DATA_KINDS = (*ID_KINDS, node_ids, st.one_of(st.integers(0, 3), st.sampled_from("ab")))


def reference_merge(partials, k):
    ordered = sorted(
        (match for partial in partials for match in partial), key=match_key
    )
    merged = []
    for match in ordered:
        if merged and match_key(merged[-1]) == match_key(match):
            continue
        merged.append(match)
    return merged[: max(k, 0)]


@st.composite
def merge_cases(draw):
    """Score-sorted partials over one query's node set, with tied scores
    and the same assignment repeated across (and within) partials."""
    query_nodes = draw(st.lists(node_ids, min_size=1, max_size=4, unique=True))
    data_kind = draw(st.sampled_from(DATA_KINDS))
    data_nodes = draw(st.lists(data_kind, min_size=1, max_size=5, unique=True))
    universe = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(data_nodes),
                    min_size=len(query_nodes),
                    max_size=len(query_nodes),
                ),
                st.sampled_from((0.0, 1.0, 2.5)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    partials = []
    for _ in range(draw(st.integers(0, 4))):
        picks = draw(st.lists(st.sampled_from(universe), max_size=8))
        partial = []
        for nodes, score in picks:
            pairs = list(zip(query_nodes, nodes))
            # Equal matches built separately, their dict order permuted.
            partial.append(Match(dict(draw(st.permutations(pairs))), score))
        partial.sort(key=lambda match: match.score)
        partials.append(partial)
    total = sum(len(partial) for partial in partials)
    k = draw(st.one_of(st.just(0), st.just(1), st.integers(0, total + 3)))
    return partials, k


@given(case=merge_cases())
@settings(max_examples=max(FUZZ_EXAMPLES, 200), deadline=None)
def test_merge_topk_equals_reference_definition(case):
    partials, k = case
    got = merge_topk(partials, k)
    expected = reference_merge(partials, k)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


class _Named(str):
    """A query-node id whose ``repr`` is chosen by the test."""

    def __new__(cls, value, shown):
        node = super().__new__(cls, value)
        node.shown = shown
        return node

    def __repr__(self):
        return self.shown


def test_keys_fall_back_when_data_nodes_decide_the_pair_order():
    """With ``repr(q1)`` a prefix of ``repr(q2)``, the data nodes decide
    how the pairs sort: ``"(q, 'b')" < "(q, 'z', 'a')" < "(q, 'zz')"``.
    The merge's keys must still equal :func:`match_key`'s."""
    first, second = _Named("q1", "q"), _Named("q2", "q, 'z'")
    partial = [
        Match({first: "b", second: "a"}, 0.0),
        Match({first: "zz", second: "a"}, 0.0),
    ]
    keys = [key for key, _ in _keyed_run(partial, {})]
    assert sorted(keys) == sorted(match_key(match) for match in partial)
    assert keys[0][1][0][0] is not keys[1][1][0][0], "orders must differ"
    assert merge_topk([partial], 2) == reference_merge([partial], 2)


#: Numbers of types that compare with ints natively: one kind.
NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.fractions(-3, 12, max_denominator=4),
    st.decimals(-3, 12, places=1),
    st.floats(-3, 12),
)


@given(ids=st.lists(st.one_of(*ID_KINDS, NUMBERS), min_size=2, max_size=6))
@settings(max_examples=max(FUZZ_EXAMPLES, 200), deadline=None)
def test_node_keys_keep_native_order_and_order_mixed_kinds(ids):
    """Sorting by :func:`node_key` sorts ids of one kind as they sort
    natively, and any mix of kinds the same way whatever the input order.
    Ints, fractions, decimals and floats are one kind, and ids equal by
    value have equal keys, so the merge dedups them alike."""
    by_key = sorted(ids, key=node_key)
    assert sorted(reversed(ids), key=node_key) == by_key
    for kind in ((int, float, Fraction, Decimal), str, tuple):
        same = [node for node in ids if isinstance(node, kind)]
        assert [node for node in by_key if isinstance(node, kind)] == sorted(same)
        for a in same:
            for b in same:
                assert (node_key(a) == node_key(b)) is (a == b)


def test_node_keys_treat_numpy_scalars_as_numbers():
    np = pytest.importorskip("numpy")
    ids = [np.int64(3), 2, Fraction(5, 2), np.float64(0.5)]
    assert sorted(ids, key=node_key) == [np.float64(0.5), 2, Fraction(5, 2), np.int64(3)]
    assert node_key(np.int64(1)) == node_key(1)
    first = Match({"q": 1}, 0.0)
    same = Match({"q": np.int64(1)}, 0.0)
    assert merge_topk([[first], [same]], 5) == [first]
