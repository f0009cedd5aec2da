"""Cross-algorithm agreement: the load-bearing correctness evidence.

Randomized and property-based tests that all four algorithms (plus the
general-twig engine) produce exactly the oracle's score sequence, and
that every returned assignment is a valid match with the claimed score.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MatchEngine
from repro.core.brute_force import all_matches
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query import QueryTree
from repro.runtime.graph import assignment_score, build_runtime_graph

ALGS = ("dp-b", "dp-p", "topk", "topk-en")


def random_instance(seed: int):
    """A random (graph, matcher, query) triple with tiny parameters."""
    rng = random.Random(seed)
    g = erdos_renyi_graph(
        rng.randint(5, 14), rng.randint(6, 34), num_labels=rng.randint(3, 5),
        seed=seed,
    )
    tm = MatchEngine(
        g, backend="full", algorithm="topk-en",
        block_size=rng.choice([1, 2, 8, 64]),
    )
    labels = sorted(g.labels())
    rng.shuffle(labels)
    size = min(len(labels), rng.randint(2, 5))
    query = QueryTree(
        {i: labels[i] for i in range(size)},
        [(rng.randrange(i), i) for i in range(1, size)],
    )
    return rng, tm, query


@pytest.mark.parametrize("seed", range(40))
def test_all_algorithms_match_oracle(seed):
    rng, tm, query = random_instance(seed)
    gr = build_runtime_graph(tm.store, query)
    oracle = [m.score for m in all_matches(gr)]
    k = rng.choice([1, 3, 8, 25])
    for alg in ALGS:
        got = tm.top_k(query, k, algorithm=alg)
        assert [m.score for m in got] == oracle[:k], (alg, seed)
        for match in got:
            check = assignment_score(tm.store, query, match.assignment)
            assert check == pytest.approx(match.score), (alg, seed)


@pytest.mark.parametrize("seed", range(12))
def test_weighted_graphs_agree(seed):
    rng = random.Random(seed + 10_000)
    base = erdos_renyi_graph(rng.randint(5, 12), rng.randint(6, 26),
                             num_labels=4, seed=seed)
    g = graph_from_edges(
        {v: base.label(v) for v in base.nodes()},
        [(t, h, rng.randint(1, 6)) for t, h, _ in base.edges()],
    )
    tm = MatchEngine(
        g, backend="full", algorithm="topk-en", block_size=rng.choice([2, 16])
    )
    labels = sorted(g.labels())
    rng.shuffle(labels)
    size = min(len(labels), rng.randint(2, 4))
    query = QueryTree(
        {i: labels[i] for i in range(size)},
        [(rng.randrange(i), i) for i in range(1, size)],
    )
    gr = build_runtime_graph(tm.store, query)
    oracle = [m.score for m in all_matches(gr)]
    for alg in ALGS:
        got = [m.score for m in tm.top_k(query, 12, algorithm=alg)]
        assert got == oracle[:12], (alg, seed)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_agreement_property(seed):
    """Hypothesis-driven variant of the oracle agreement test."""
    rng, tm, query = random_instance(seed)
    gr = build_runtime_graph(tm.store, query)
    oracle = [m.score for m in all_matches(gr)]
    for alg in ("topk", "topk-en"):
        got = [m.score for m in tm.top_k(query, 10, algorithm=alg)]
        assert got == oracle[:10]


@pytest.mark.parametrize("seed", range(10))
def test_deterministic_across_runs(seed):
    _, tm, query = random_instance(seed)
    a = tm.top_k(query, 10, algorithm="topk-en")
    b = MatchEngine(tm.graph, backend="full").top_k(query, 10, algorithm="topk-en")
    assert [m.score for m in a] == [m.score for m in b]
    assert [m.assignment for m in a] == [m.assignment for m in b]


@pytest.mark.parametrize("seed", range(10))
def test_prefix_stability(seed):
    """Property: top-k is a prefix of top-(k+5) for every algorithm."""
    _, tm, query = random_instance(seed + 500)
    for alg in ALGS:
        small = tm.top_k(query, 4, algorithm=alg)
        large = tm.top_k(query, 9, algorithm=alg)
        assert [m.score for m in large[: len(small)]] == [m.score for m in small]
