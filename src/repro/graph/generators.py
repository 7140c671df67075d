"""Synthetic graph generators standing in for the paper's datasets.

The demo's experiments run on the US road network (graph traversal),
LiveJournal (partition-strategy comparison) and Weibo (GPAR marketing).
None of those can be bundled here, so each generator is parameterized to
reproduce the *structural property the experiment depends on*:

* :func:`road_network` — planar-ish grid with diagonals and weighted
  edges: **huge diameter, degree <= 8**. Diameter is what makes
  vertex-centric SSSP take thousands of supersteps (Table 1).
* :func:`power_law` — preferential attachment: **low diameter, heavy
  tail**. Degree skew is what separates METIS-style from streaming
  partitions via cross-edge counts (Section 3).
* :func:`labeled_social` — follow/recommend/rate edges with person and
  product labels, for Sim/SubIso/Keyword/GPAR workloads (Fig. 4).
* :func:`bipartite_ratings` — user-item ratings for CF.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from repro.graph.digraph import Graph
from repro.utils.rng import make_rng


def path_graph(n: int, directed: bool = True) -> Graph:
    """0 -> 1 -> ... -> n-1."""
    g = Graph(directed=directed)
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(v - 1, v)
    return g


def cycle_graph(n: int, directed: bool = True) -> Graph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    g = path_graph(n, directed)
    if n > 1:
        g.add_edge(n - 1, 0)
    return g


def star_graph(n: int, directed: bool = True) -> Graph:
    """Hub 0 pointing at spokes 1..n-1."""
    g = Graph(directed=directed)
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(0, v)
    return g


def complete_graph(n: int, directed: bool = True) -> Graph:
    """Complete graph on ``n`` vertices."""
    g = Graph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(n):
            if u != v and (directed or u < v):
                g.add_edge(u, v)
    return g


def binary_tree(depth: int, directed: bool = True) -> Graph:
    """Complete binary tree of the given depth, edges parent -> child."""
    g = Graph(directed=directed)
    g.add_vertex(0)
    last = 2 ** (depth + 1) - 2
    for v in range(1, last + 1):
        g.add_edge((v - 1) // 2, v)
    return g


def erdos_renyi(
    n: int, p: float, seed: int | None = 0, directed: bool = True
) -> Graph:
    """G(n, p) random graph."""
    rng = make_rng(seed, "erdos_renyi", n)
    g = Graph(directed=directed)
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        start = 0 if directed else u + 1
        for v in range(start, n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


def random_weighted_digraph(
    n: int,
    m: int,
    seed: int | None = 0,
    max_weight: float = 10.0,
    store: str | None = None,
) -> Graph:
    """n vertices, ~m distinct weighted arcs, uniformly random endpoints."""
    rng = make_rng(seed, "random_weighted", n, m)
    g = Graph(directed=True, store=store)
    for v in range(n):
        g.add_vertex(v)
    added = 0
    attempts = 0
    while added < m and attempts < 20 * m:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v, 1.0 + rng.random() * (max_weight - 1.0))
        added += 1
    return g


def road_network(
    rows: int,
    cols: int,
    seed: int | None = 0,
    diagonal_prob: float = 0.15,
    removal_prob: float = 0.05,
    store: str | None = None,
) -> Graph:
    """A US-road-network stand-in: grid with sparse diagonals and holes.

    Every edge is added in both directions with a weight drawn from
    [1, 10] (road length). The resulting graph has diameter
    Θ(rows + cols) and max degree 8 — the structural profile of real
    road networks that drives Table 1's vertex-centric blow-up.
    """
    rng = make_rng(seed, "road", rows, cols)
    g = Graph(directed=True, store=store)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            g.add_vertex(vid(r, c))
    for r in range(rows):
        for c in range(cols):
            here = vid(r, c)
            if c + 1 < cols and rng.random() > removal_prob:
                w = 1.0 + rng.random() * 9.0
                g.add_edge(here, vid(r, c + 1), w)
                g.add_edge(vid(r, c + 1), here, w)
            if r + 1 < rows and rng.random() > removal_prob:
                w = 1.0 + rng.random() * 9.0
                g.add_edge(here, vid(r + 1, c), w)
                g.add_edge(vid(r + 1, c), here, w)
            if (
                r + 1 < rows
                and c + 1 < cols
                and rng.random() < diagonal_prob
            ):
                w = 1.5 + rng.random() * 12.0
                g.add_edge(here, vid(r + 1, c + 1), w)
                g.add_edge(vid(r + 1, c + 1), here, w)
    return g


def power_law(
    n: int,
    m_per_node: int = 4,
    seed: int | None = 0,
    directed: bool = True,
    store: str | None = None,
) -> Graph:
    """Barabási–Albert preferential attachment (LiveJournal stand-in).

    Each arriving vertex attaches to ``m_per_node`` existing vertices
    chosen proportionally to degree (repeated-endpoint trick), giving the
    heavy-tailed degree distribution and low diameter of social graphs.
    Edges go both ways so traversal queries reach the whole graph.
    """
    if n <= m_per_node:
        raise ValueError(f"n must exceed m_per_node ({m_per_node})")
    rng = make_rng(seed, "power_law", n, m_per_node)
    g = Graph(directed=directed, store=store)
    targets = list(range(m_per_node))
    repeated: list[int] = []
    for v in range(m_per_node):
        g.add_vertex(v)
    for v in range(m_per_node, n):
        for t in set(targets):
            w = 1.0 + rng.random() * 4.0
            g.add_edge(v, t, w)
            if directed:
                g.add_edge(t, v, w)
            repeated.append(t)
            repeated.append(v)
        targets = [rng.choice(repeated) for _ in range(m_per_node)]
    return g


_FIRST_NAMES = (
    "ann bob cai dana eli fei gus hana ivan juno kara liam mona nick "
    "omar pia quin rosa sam tess ugo vera wade xiu yara zane"
).split()

_PRODUCTS = ("phone", "laptop", "camera", "tablet", "watch", "console")


def labeled_social(
    n_people: int,
    n_products: int = 6,
    seed: int | None = 0,
    follow_per_person: int = 6,
    interaction_prob: float = 0.35,
    store: str | None = None,
) -> Graph:
    """A Weibo-style labeled social graph for Sim/SubIso/Keyword/GPAR.

    Vertices: ``person`` (props: name) and ``product`` (props: name).
    Edges: ``follow`` (person -> person, preferential), ``recommend`` and
    ``rate_bad`` and ``buy`` (person -> product). The follow structure is
    preferential so influencer patterns (Fig. 4's GPAR) have matches.
    """
    rng = make_rng(seed, "social", n_people, n_products)
    g = Graph(directed=True, store=store)
    n_products = min(n_products, len(_PRODUCTS))
    products = []
    for i in range(n_products):
        pid = n_people + i
        g.add_vertex(pid, label="product", name=_PRODUCTS[i])
        products.append(pid)
    for v in range(n_people):
        g.add_vertex(
            v,
            label="person",
            name=f"{_FIRST_NAMES[v % len(_FIRST_NAMES)]}{v}",
        )
    # Preferential follow edges.
    popularity = [1] * n_people
    for v in range(n_people):
        k = min(follow_per_person, n_people - 1)
        total = sum(popularity)
        for _ in range(k):
            pick = rng.randrange(total)
            acc = 0
            target = 0
            for u, pop in enumerate(popularity):
                acc += pop
                if pick < acc:
                    target = u
                    break
            if target != v and not g.has_edge(v, target):
                g.add_edge(v, target, label="follow")
                popularity[target] += 2
    # Product interactions.
    for v in range(n_people):
        if rng.random() >= interaction_prob:
            continue
        product = rng.choice(products)
        roll = rng.random()
        if roll < 0.55:
            g.add_edge(v, product, label="recommend")
        elif roll < 0.75:
            g.add_edge(v, product, label="buy")
        else:
            g.add_edge(v, product, label="rate_bad")
    return g


def community_graph(
    n: int,
    num_communities: int = 20,
    intra_degree: int = 8,
    inter_degree: int = 1,
    seed: int | None = 0,
    store: str | None = None,
) -> Graph:
    """Community-structured social graph (the LiveJournal stand-in).

    LiveJournal-class social networks combine a heavy-tailed degree
    distribution with strong *community structure* — most edges stay
    inside dense clusters. That locality is what separates METIS-class
    partitioners from hash partitioning in the Section-3 experiment, and
    plain preferential attachment does not have it. This generator plants
    ``num_communities`` equal communities; each vertex draws
    ``intra_degree`` preferential edges inside its community and
    ``inter_degree`` uniform edges outside. Edges go both ways so
    traversal reaches the whole graph.
    """
    rng = make_rng(seed, "community", n, num_communities)
    g = Graph(directed=True, store=store)
    size = -(-n // num_communities)
    for v in range(n):
        g.add_vertex(v)

    def community_of(v: int) -> int:
        return v // size

    # Preferential attachment within each community.
    popularity = [1] * n
    for v in range(n):
        c = community_of(v)
        lo, hi = c * size, min((c + 1) * size, n)
        members = range(lo, hi)
        total = sum(popularity[u] for u in members)
        for _ in range(min(intra_degree, hi - lo - 1)):
            pick = rng.randrange(total)
            acc = 0
            target = lo
            for u in members:
                acc += popularity[u]
                if pick < acc:
                    target = u
                    break
            if target != v and not g.has_edge(v, target):
                w = 1.0 + rng.random() * 4.0
                g.add_edge(v, target, w)
                g.add_edge(target, v, w)
                popularity[target] += 1
                total += 1
        for _ in range(inter_degree):
            target = rng.randrange(n)
            if community_of(target) != c and not g.has_edge(v, target):
                w = 1.0 + rng.random() * 4.0
                g.add_edge(v, target, w)
                g.add_edge(target, v, w)
    return g


def labeled_random(
    n: int,
    num_labels: int = 20,
    edges_per_vertex: int = 4,
    seed: int | None = 0,
) -> Graph:
    """Random digraph with many vertex labels (index-selectivity tests).

    Labels are ``L0..L{k-1}``, assigned uniformly; when a pattern touches
    only a couple of labels, a label index can skip the bulk of the
    graph — the workload for the graph-level-optimization ablation (E8).
    """
    rng = make_rng(seed, "labeled_random", n, num_labels)
    g = Graph(directed=True)
    for v in range(n):
        g.add_vertex(v, label=f"L{rng.randrange(num_labels)}")
    for v in range(n):
        for _ in range(edges_per_vertex):
            u = rng.randrange(n)
            if u != v:
                g.add_edge(v, u)
    return g


def bipartite_ratings(
    n_users: int,
    n_items: int,
    ratings_per_user: int = 10,
    seed: int | None = 0,
    max_rating: float = 5.0,
) -> Graph:
    """User-item rating bipartite graph for collaborative filtering.

    Users are ``0..n_users-1`` (label ``user``); items are
    ``n_users..n_users+n_items-1`` (label ``item``). Edge weight is the
    rating, generated from latent user/item factors plus noise so that a
    matrix-factorization CF model can actually fit it.
    """
    rng = make_rng(seed, "ratings", n_users, n_items)
    g = Graph(directed=True)
    rank = 3
    user_factors = [
        [rng.gauss(0, 1) for _ in range(rank)] for _ in range(n_users)
    ]
    item_factors = [
        [rng.gauss(0, 1) for _ in range(rank)] for _ in range(n_items)
    ]
    for u in range(n_users):
        g.add_vertex(u, label="user")
    for i in range(n_items):
        g.add_vertex(n_users + i, label="item")
    mid = max_rating / 2.0
    for u in range(n_users):
        items = rng.sample(range(n_items), min(ratings_per_user, n_items))
        for i in items:
            dot = sum(a * b for a, b in zip(user_factors[u], item_factors[i]))
            rating = mid + dot + rng.gauss(0, 0.3)
            rating = max(0.5, min(max_rating, rating))
            g.add_edge(u, n_users + i, weight=round(rating * 2) / 2, label="rate")
    return g


def graph_from_spec(spec: str, store: str | None = None) -> Graph:
    """Build a generator graph from a compact ``kind:params`` spec.

    The shared vocabulary of the CLI and workload traces:
    ``road:RxC`` (road network grid), ``power:N`` (power law),
    ``social:N`` (labeled social graph). ``store`` selects the backing
    storage ("dict"/"csr"); fragments built from the graph inherit it.
    A size that is not a positive integer (or too small for the
    generator) is a :class:`~repro.errors.GraphError`.
    """
    from repro.errors import GrapeError, GraphError

    def size(text: str) -> int:
        n = int(text) if text.isdecimal() else 0
        if n <= 0:
            raise ValueError(f"{text!r} is not a positive integer")
        return n

    kind, _, arg = spec.partition(":")
    try:
        if kind == "road":
            rows, _, cols = arg.partition("x")
            return road_network(size(rows), size(cols or rows), store=store)
        if kind == "power":
            return power_law(size(arg or "1000"), store=store)
        if kind == "social":
            return labeled_social(size(arg or "500"), store=store)
    except ValueError as exc:
        raise GraphError(
            f"bad graph spec {spec!r}: {exc}; use road:RxC, power:N or "
            "social:N"
        ) from exc
    raise GrapeError(
        f"unknown graph spec {spec!r}; use road:RxC, power:N or social:N"
    )
