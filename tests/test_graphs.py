import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    DimensionMismatch,
    RigInstance,
    SimpleGraph,
    UniformHypergraph,
    ValidationError,
    graph_from_text,
    graph_to_text,
    hypergraph_from_text,
    hypergraph_to_text,
    project_hypergraph,
    project_rig,
)
from oracles import is_subgraph, oracle_project_rig, union


def test_edges_are_canonical():
    g = SimpleGraph.from_edges(4, [(2, 0), (3, 1), (0, 2)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)
    # one symmetric CSR store with sorted, duplicate-free rows
    assert g.indptr.tolist() == [0, 1, 2, 3, 4] and g.indices.tolist() == [2, 3, 0, 1]
    assert g.degrees().tolist() == [1, 1, 1, 1] and g.edge_count() == 2
    assert g == SimpleGraph(4, [(1, 3), (0, 2)]) and g != SimpleGraph(4, [(0, 2)])
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(ValueError):
        g.indices[0] = 1


def test_invalid_edges_rejected():
    with pytest.raises(ValidationError):
        SimpleGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ValidationError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValidationError):
        SimpleGraph.from_edges(3, [(0, 1), (-1, 2)])
    with pytest.raises(ValidationError):
        UniformHypergraph(4, 3, frozenset({(0, 1)}))


def test_project_hypergraph_examples():
    tri = UniformHypergraph(3, 3, frozenset({(0, 1, 2)}))
    assert project_hypergraph(tri).edges == frozenset({(0, 1), (0, 2), (1, 2)})
    empty = UniformHypergraph(5, 3, frozenset())
    assert project_hypergraph(empty) == SimpleGraph(5)
    path = UniformHypergraph(3, 2, frozenset({(0, 1), (1, 2)}))
    assert project_hypergraph(path).edges == frozenset({(0, 1), (1, 2)})


def test_project_rig_examples():
    tri = RigInstance(3, 2, (frozenset({0, 1, 2}), frozenset()))
    assert project_rig(tri).edges == frozenset({(0, 1), (0, 2), (1, 2)})
    singletons = RigInstance(4, 3, (frozenset({0}), frozenset({3}), frozenset()))
    assert project_rig(singletons).edge_count() == 0
    path = RigInstance(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
    assert project_rig(path).edges == frozenset({(0, 1), (1, 2)})


def test_union_identity_idempotence():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    h = SimpleGraph.from_edges(3, [(1, 2)])
    assert union(g, SimpleGraph(3)) == g
    assert union(g, g) == g
    assert union(g, h).edges == frozenset({(0, 1), (1, 2)})
    assert union(g, h) == union(h, g)
    with pytest.raises(DimensionMismatch):
        union(g, SimpleGraph(4))


def test_is_subgraph():
    tri = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert is_subgraph(SimpleGraph(3), tri)
    assert is_subgraph(tri, tri)
    assert not is_subgraph(tri, path)
    assert is_subgraph(path, tri)
    with pytest.raises(DimensionMismatch):
        is_subgraph(path, SimpleGraph(5))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_project_rig_matches_clique_union(data):
    n = data.draw(st.integers(2, 30))
    m = data.draw(st.integers(1, 6))
    sets = [frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(m)]
    inst = RigInstance(n, m, tuple(sets))
    assert project_rig(inst).edges == oracle_project_rig(sets)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_arity2_projection_is_bijective(data):
    n = data.draw(st.integers(2, 8))
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1])))
    h = UniformHypergraph(n, 2, frozenset(pairs))
    assert project_hypergraph(h).edges == h.hyperedges


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_subgraph_of_union(data):
    n = data.draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    a = SimpleGraph.from_edges(n, data.draw(st.lists(pair, max_size=10)))
    b = SimpleGraph.from_edges(n, data.draw(st.lists(pair, max_size=10)))
    assert is_subgraph(a, union(a, b))
    assert is_subgraph(b, union(a, b))


def test_edge_list_round_trip():
    g = SimpleGraph.from_edges(5, [(3, 1), (0, 4), (0, 1)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == "5 3"
    assert text.splitlines()[1:] == ["0 1", "0 4", "1 3"]
    assert graph_from_text(text) == g


def test_hypergraph_text_round_trip():
    h = UniformHypergraph(6, 3, frozenset({(3, 4, 5), (0, 1, 2)}))
    text = hypergraph_to_text(h)
    assert text.splitlines()[0] == "6 3 2"
    assert hypergraph_from_text(text) == h


def test_edge_list_rejects_malformed():
    with pytest.raises(ValidationError):
        graph_from_text("")
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n2 1\n")  # u >= v
    with pytest.raises(ValidationError):
        graph_from_text("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n1 x\n")  # non-integer token
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n0 1 2\n")  # three tokens on an edge line
    with pytest.raises(ValidationError):
        graph_from_text("3 one\n0 1\n")  # non-integer header
    with pytest.raises(ValidationError):
        hypergraph_from_text("4 3 1\n0 1 x\n")
    with pytest.raises(ValidationError):
        hypergraph_from_text("4 3 1\n0 1\n")  # too few tokens for the arity
    with pytest.raises(ValidationError):
        hypergraph_from_text("4 three 1\n0 1 2\n")


def test_features_of_inverse_view():
    inst = RigInstance(4, 3, (frozenset({0, 1}), frozenset({1, 2}), frozenset()))
    assert inst.features_of(1) == frozenset({0, 1})
    assert inst.features_of(3) == frozenset()
