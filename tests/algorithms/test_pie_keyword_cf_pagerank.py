"""PIE-program tests: Keyword, CF and PageRank."""

import pytest

from repro.algorithms.cf import CFProgram, CFQuery
from repro.algorithms.keyword import KeywordProgram, KeywordQuery, TUPLE_MIN
from repro.algorithms.pagerank import PageRankProgram, PageRankQuery
from repro.algorithms.sequential.cf_seq import rmse
from repro.algorithms.sequential.keyword_seq import keyword_cover_roots
from repro.algorithms.sequential.pagerank_seq import pagerank
from repro.engineapi.session import Session
from repro.graph.digraph import Graph
from repro.graph.generators import (
    bipartite_ratings,
    labeled_social,
    road_network,
)


# -------------------------------------------------------------- keyword
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_keyword_equals_oracle(workers):
    g = labeled_social(100, seed=1)
    query = KeywordQuery(keywords=("person", "product"), radius=3)
    session = Session(g, num_workers=workers, check_monotonic=True)
    result = session.run(KeywordProgram(), query)
    assert result.answer == keyword_cover_roots(
        g, ["person", "product"], 3
    )


def test_keyword_radius_zero_only_holders():
    g = labeled_social(60, seed=2)
    query = KeywordQuery(keywords=("product",), radius=0)
    session = Session(g, num_workers=3)
    result = session.run(KeywordProgram(), query)
    assert set(result.answer) == {
        v for v in g.vertices() if g.vertex_label(v) == "product"
    }


def test_keyword_cross_fragment_propagation():
    # Path 0 -> 1 -> 2 where only 2 holds the keyword, split across
    # fragments so coverage must travel through update parameters.
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_vertex(2, keywords=["gold"])
    from repro.graph.fragment import build_fragments
    from repro.core.engine import GrapeEngine

    fragd = build_fragments(g, {0: 0, 1: 1, 2: 2}, 3)
    result = GrapeEngine(fragd).run(
        KeywordProgram(), KeywordQuery(keywords=("gold",), radius=5)
    )
    assert result.answer == {0: 2.0, 1: 1.0, 2: 0.0}


def test_tuple_min_aggregator():
    assert TUPLE_MIN.resolve((3.0, 5.0), (4.0, 1.0)) == (3.0, 1.0)
    assert TUPLE_MIN.order.advances((3.0, 5.0), (3.0, 1.0))
    assert not TUPLE_MIN.order.advances((3.0, 1.0), (3.0, 5.0))


def test_keyword_scores_are_distance_sums():
    g = labeled_social(80, seed=3)
    query = KeywordQuery(keywords=("person",), radius=2)
    result = Session(g, num_workers=2).run(KeywordProgram(), query)
    oracle = keyword_cover_roots(g, ["person"], 2)
    assert result.answer == oracle
    assert all(0 <= s <= 2 for s in result.answer.values())


# ------------------------------------------------------------------- cf
def test_cf_trains_and_reduces_rmse():
    g = bipartite_ratings(80, 20, ratings_per_user=8, seed=4)
    ratings = [(e.src, e.dst, e.weight) for e in g.edges()]
    session = Session(g, num_workers=4)
    result = session.run(CFProgram(), CFQuery(rank=4, epochs=5))
    # Baseline: predicting the global mean.
    mean = sum(r for _, _, r in ratings) / len(ratings)
    from repro.algorithms.sequential.cf_seq import FactorModel

    baseline = rmse(FactorModel(rank=1, mean=mean), ratings)
    assert result.answer.train_rmse < baseline


def test_cf_epochs_control_supersteps():
    g = bipartite_ratings(60, 15, seed=5)
    session = Session(g, num_workers=3)
    short = session.run(CFProgram(), CFQuery(epochs=2))
    long = session.run(CFProgram(), CFQuery(epochs=6))
    assert long.num_supersteps > short.num_supersteps


def test_cf_mse_curves_per_worker_decrease():
    g = bipartite_ratings(80, 20, ratings_per_user=8, seed=6)
    result = Session(g, num_workers=4).run(
        CFProgram(), CFQuery(rank=4, epochs=6)
    )
    for curve in result.answer.mse_curves:
        if len(curve) >= 2:
            assert curve[-1] < curve[0]


def test_cf_single_epoch_single_superstep():
    g = bipartite_ratings(40, 10, seed=7)
    result = Session(g, num_workers=2).run(CFProgram(), CFQuery(epochs=1))
    assert result.rounds == []  # nothing published: peval only


def test_cf_deterministic_given_seed():
    g = bipartite_ratings(50, 12, seed=8)
    r1 = Session(g, num_workers=2).run(CFProgram(), CFQuery(seed=3))
    r2 = Session(g, num_workers=2).run(CFProgram(), CFQuery(seed=3))
    assert r1.answer.train_rmse == pytest.approx(r2.answer.train_rmse)


def test_cf_model_covers_all_rated_items():
    g = bipartite_ratings(60, 15, seed=9)
    result = Session(g, num_workers=3).run(CFProgram(), CFQuery(epochs=2))
    rated_items = {e.dst for e in g.edges()}
    assert rated_items <= set(result.answer.model.item_factors)


# ------------------------------------------------------------- pagerank
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pagerank_matches_power_iteration(workers):
    g = road_network(8, 8, seed=10)  # bidirectional: no dangling nodes
    session = Session(g, num_workers=workers, check_monotonic=True)
    result = session.run(
        PageRankProgram(total_vertices=g.num_vertices),
        PageRankQuery(tolerance=1e-8),
    )
    oracle = pagerank(g, tol=1e-12)
    for v in g.vertices():
        assert result.answer.get(v, 0.0) == pytest.approx(
            oracle[v], abs=1e-4
        )


def test_pagerank_mass_conserved_approximately():
    g = road_network(6, 6, seed=11)
    result = Session(g, num_workers=3).run(
        PageRankProgram(total_vertices=g.num_vertices),
        PageRankQuery(tolerance=1e-9),
    )
    assert sum(result.answer.values()) == pytest.approx(1.0, abs=1e-3)


def test_pagerank_tolerance_bounds_work():
    g = road_network(8, 8, seed=12)
    coarse = Session(g, num_workers=2).run(
        PageRankProgram(total_vertices=g.num_vertices),
        PageRankQuery(tolerance=1e-3),
    )
    fine = Session(g, num_workers=2).run(
        PageRankProgram(total_vertices=g.num_vertices),
        PageRankQuery(tolerance=1e-8),
    )
    def pushes(result):
        return result.metrics.work("peval") + result.metrics.work("inceval")

    assert pushes(fine) > pushes(coarse)
