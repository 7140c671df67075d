"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.dsu import DisjointSet
from repro.utils.sizeof import value_size


# ------------------------------------------------------------------ dsu
@given(
    st.integers(2, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39))),
)
def test_dsu_equivalence_closure(n, unions):
    """DSU connectivity equals the reflexive-transitive closure."""
    dsu = DisjointSet(range(n))
    adj = {i: set() for i in range(n)}
    for a, b in unions:
        a, b = a % n, b % n
        dsu.union(a, b)
        adj[a].add(b)
        adj[b].add(a)

    def reachable(start):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    comp0 = reachable(0)
    for v in range(n):
        assert dsu.connected(0, v) == (v in comp0)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20))))
def test_dsu_sizes_partition(unions):
    dsu = DisjointSet(range(21))
    for a, b in unions:
        dsu.union(a, b)
    groups = dsu.groups()
    assert sum(len(g) for g in groups.values()) == 21
    for root, members in groups.items():
        assert dsu.set_size(root) == len(members)


# --------------------------------------------------------------- sizeof
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1e9, 1e9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_values)
def test_value_size_nonnegative_and_stable(value):
    size = value_size(value)
    assert size >= 0
    assert value_size(value) == size


@given(st.lists(json_values, max_size=5))
def test_value_size_additive_for_lists(items):
    assert value_size(items) == sum(value_size(i) for i in items)
