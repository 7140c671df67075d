"""Independent oracle for the Dijkstra kernel.

``single_source`` is what the ladder's verifier and most suites compare
GRAPE against, and it *is* this kernel — so here the kernel is checked
against a Bellman–Ford fixpoint written in this file, which shares
nothing with it but the Graph API.

Weights and seed costs are dyadic rationals, so every path sum is exact
and distances are compared with ``==``. The small weight alphabet makes
zero-weight edges and equal-cost ties the common case, and vertex ids
mix ``int``, ``str`` and ``tuple``: a heap entry that ever compares two
ids raises ``TypeError`` on the first tie.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sequential.dijkstra import INF, dijkstra
from repro.algorithms.sequential.inc_sssp import incremental_sssp
from repro.graph.digraph import Graph

IDS = [0, "a", (0, 1), 1, "b", (1, "x"), 2, "c", (2,), 3, "d", ()]
ABSENT = [-1, "ghost", (9, 9)]
WEIGHTS = [0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]
COSTS = [0.0, 0.5, 1.0, 4.0]

CASES = settings(max_examples=200, deadline=None)


@st.composite
def graphs(draw):
    ids = IDS[: draw(st.integers(1, len(IDS)))]
    graph = Graph(directed=draw(st.booleans()))
    for v in ids:
        graph.add_vertex(v)
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(ids),
                st.sampled_from(WEIGHTS),
            ),
            max_size=3 * len(ids),
        )
    )
    for src, dst, weight in edges:
        graph.add_edge(src, dst, weight)
    return graph


seed_maps = st.dictionaries(
    st.sampled_from(IDS + ABSENT), st.sampled_from(COSTS), max_size=5
)


def bellman_ford(graph, seeds):
    """Least cost from any seed, by relaxing every edge to a fixpoint."""
    best = {v: cost for v, cost in seeds.items() if v in graph}
    changed = True
    while changed:
        changed = False
        for v in graph.vertices():
            if v not in best:
                continue
            for dst, weight in graph.iter_out(v):
                if best[v] + weight < best.get(dst, INF):
                    best[dst] = best[v] + weight
                    changed = True
    return best


def merged(first, second):
    """Both seed maps, the lower cost where they share a vertex."""
    out = dict(first)
    for v, cost in second.items():
        out[v] = min(cost, out.get(v, INF))
    return out


@CASES
@given(graphs(), seed_maps)
def test_multi_seed_matches_bellman_ford(graph, seeds):
    updates, settled = dijkstra(graph, seeds)
    assert updates == bellman_ford(graph, seeds)
    assert settled == len(updates)


@CASES
@given(graphs(), seed_maps, seed_maps)
def test_known_prior_returns_only_improvements(graph, first, second):
    known = bellman_ford(graph, first)
    frozen = dict(known)
    updates, settled = dijkstra(graph, second, known=known)
    assert known == frozen  # the prior is read, never written
    full = bellman_ford(graph, merged(first, second))
    assert updates == {
        v: d for v, d in full.items() if d < known.get(v, INF)
    }
    assert settled == len(updates)


@CASES
@given(graphs(), seed_maps, seed_maps)
def test_incremental_sssp_repairs_in_place(graph, first, decreased):
    dist = bellman_ford(graph, first)
    before = dict(dist)
    changes, settled = incremental_sssp(graph, dist, decreased)
    assert dist == bellman_ford(graph, merged(first, decreased))
    assert changes == {
        v: d for v, d in dist.items() if d < before.get(v, INF)
    }
    assert settled == len(changes)


def test_equal_cost_ties_settle_in_insertion_order():
    """Pop order is a function of the input alone: ties leave the queue
    in the order they entered it, whatever the ids are."""
    graph = Graph()
    leaves = ["z", (3, 1), 7, "a", (), 2]
    for leaf in leaves:
        graph.add_edge("hub", leaf, 1.0)
        graph.add_edge(leaf, "sink", 0.0)
    updates, settled = dijkstra(graph, {"hub": 0.0})
    assert list(updates) == ["hub", *leaves, "sink"]
    assert settled == len(leaves) + 2
