import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    FeatureProbabilities,
    RigInstance,
    SimpleGraph,
    UniformHypergraph,
    ValidationError,
    graph_from_text,
    graph_to_text,
    hypergraph_to_text,
    project_hypergraph,
    project_rig,
)
from rig_lab import graphs
from oracles import (DimensionMismatch, hypergraph_from_text, is_subgraph, oracle_clique_union,
                     oracle_project_rig, union)


def test_edges_are_canonical():
    g = SimpleGraph(4, [(2, 0), (3, 1), (0, 2)])
    assert set(g.edge_list()) == frozenset({(0, 2), (1, 3)})
    assert 0 in g.neighbor_lists()[2] and 1 not in g.neighbor_lists()[0]
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
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValidationError):
        SimpleGraph(3, [(0, 1), (-1, 2)])
    with pytest.raises(ValidationError):
        UniformHypergraph(4, 3, frozenset({(0, 1)}))


def test_values_pickle_to_equal_read_only_values():
    values = (SimpleGraph(3, [(0, 1)]), RigInstance(4, 2, [{0, 3}, {1}]),
              UniformHypergraph(6, 3, [(3, 4, 5), (0, 1, 2)]), FeatureProbabilities([0.25, 0.5]))
    for value in values:
        loaded = pickle.loads(pickle.dumps(value))
        assert type(loaded) is type(value) and loaded == value and hash(loaded) == hash(value)
        arrays = [f for f in loaded._fields() if isinstance(f, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


_KEY = st.one_of(st.integers(-8, 40), st.sampled_from([-2**63, 2**63 - 1]))


@given(st.lists(_KEY, max_size=24), st.lists(_KEY, max_size=24))
@settings(max_examples=200, deadline=None)
def test_in_sorted_matches_membership(keys, queries):
    # repeated keys allowed; array queries and scalar queries alike
    sorted_keys = np.sort(np.array(keys, dtype=np.int64))
    found = graphs._in_sorted(sorted_keys, np.array(queries, dtype=np.int64))
    assert found.tolist() == [q in keys for q in queries]
    for q in queries:
        assert bool(graphs._in_sorted(sorted_keys, q)) == (q in keys)


def test_in_sorted_on_empty_keys():
    empty = np.empty(0, dtype=np.int64)
    assert graphs._in_sorted(empty, empty).tolist() == []
    assert graphs._in_sorted(empty, np.array([0, 5, -1])).tolist() == [False, False, False]
    assert not graphs._in_sorted(empty, 3)


def test_project_hypergraph_examples():
    tri = UniformHypergraph(3, 3, frozenset({(0, 1, 2)}))
    assert set(project_hypergraph(tri).edge_list()) == frozenset({(0, 1), (0, 2), (1, 2)})
    empty = UniformHypergraph(5, 3, frozenset())
    assert project_hypergraph(empty) == SimpleGraph(5)
    path = UniformHypergraph(3, 2, frozenset({(0, 1), (1, 2)}))
    assert set(project_hypergraph(path).edge_list()) == frozenset({(0, 1), (1, 2)})


def test_project_rig_examples():
    tri = RigInstance(3, 2, (frozenset({0, 1, 2}), frozenset()))
    assert set(project_rig(tri).edge_list()) == frozenset({(0, 1), (0, 2), (1, 2)})
    singletons = RigInstance(4, 3, (frozenset({0}), frozenset({3}), frozenset()))
    assert project_rig(singletons).edge_count() == 0
    path = RigInstance(3, 2, (frozenset({0, 1}), frozenset({1, 2})))
    assert set(project_rig(path).edge_list()) == frozenset({(0, 1), (1, 2)})


def test_union_identity_idempotence():
    g = SimpleGraph(3, [(0, 1)])
    h = SimpleGraph(3, [(1, 2)])
    assert union(g, SimpleGraph(3)) == g
    assert union(g, g) == g
    assert set(union(g, h).edge_list()) == frozenset({(0, 1), (1, 2)})
    assert union(g, h) == union(h, g)
    with pytest.raises(DimensionMismatch):
        union(g, SimpleGraph(4))


def test_is_subgraph():
    tri = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    path = SimpleGraph(3, [(0, 1), (1, 2)])
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
    assert set(project_rig(inst).edge_list()) == oracle_project_rig(sets)


@st.composite
def incidences(draw):
    """Incidences mixing empty, singleton, full, repeated and random features."""
    n = draw(st.integers(0, 12))
    kinds = [st.just(frozenset()), st.just(frozenset(range(n)))]
    if n:
        vertex = st.integers(0, n - 1)
        kinds += [vertex.map(lambda v: frozenset({v})), st.sets(vertex, max_size=n).map(frozenset)]
    sets = draw(st.lists(st.one_of(kinds), max_size=6))
    copies = draw(st.integers(0, 3))
    if sets and copies:
        sets += [sets[0]] * copies
    return RigInstance(n, len(sets), tuple(sets))


def _assert_matches_sparse_product(inst):
    g = project_rig(inst)
    assert g == oracle_clique_union(inst.n, inst.indptr, inst.members)
    assert set(g.edge_list()) == oracle_project_rig(inst.feature_sets)


@given(incidences())
@settings(max_examples=150, deadline=None)
def test_projection_matches_sparse_product(inst):
    _assert_matches_sparse_product(inst)


@given(incidences())
@settings(max_examples=60, deadline=None)
def test_projection_with_tiny_key_cap_folds_each_block(inst):
    # a cap of 3 keys makes every block one row and folds after each block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_KEY_CAP", 3)
        _assert_matches_sparse_product(inst)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hypergraph_projection_matches_sparse_product(data):
    arity = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(arity, 9))
    edge = st.sets(st.integers(0, n - 1), min_size=arity, max_size=arity).map(tuple)
    drawn = data.draw(st.lists(edge, max_size=12))
    h = UniformHypergraph(n, arity, drawn)
    distinct = sorted({tuple(sorted(e)) for e in drawn})
    assert sorted(map(tuple, h.rows().tolist())) == distinct
    members = np.array(distinct, dtype=np.int64).reshape(-1)
    indptr = np.arange(0, len(members) + 1, arity)
    assert project_hypergraph(h) == oracle_clique_union(n, indptr, members)


def test_projection_past_int32_keys_matches_sparse_product():
    # n * n >= 2**31, so the clique-pair keys need int64
    n = 50_000
    inst = RigInstance(n, 3, ({0, 3, n - 1}, {5, n - 1}, range(n - 4, n)))
    _assert_matches_sparse_product(inst)
    g = project_rig(inst)
    assert n - 1 in g.indices[g.indptr[3]:g.indptr[4]] and g.indices.dtype == np.int64


def test_projection_memory_stays_bounded_under_heavy_overlap():
    # 60 copies of one 600-member feature: 60 * 600 * 599 = 21.6M ordered pairs
    # (173 MiB of int64 keys) for 179,700 distinct edges
    n, copies, size = 1000, 60, 600
    inst = RigInstance(n, copies, [range(size)] * copies)
    unfolded = copies * size * (size - 1) * 8
    tracemalloc.start()
    try:
        g = project_rig(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == size * (size - 1) // 2
    assert g.degrees().tolist() == [size - 1] * size + [0] * (n - size)
    assert peak < unfolded / 4


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_arity2_projection_is_bijective(data):
    n = data.draw(st.integers(2, 8))
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1])))
    h = UniformHypergraph(n, 2, frozenset(pairs))
    assert set(map(tuple, h.rows().tolist())) == pairs
    assert set(project_hypergraph(h).edge_list()) == pairs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_subgraph_of_union(data):
    n = data.draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    a = SimpleGraph(n, data.draw(st.lists(pair, max_size=10)))
    b = SimpleGraph(n, data.draw(st.lists(pair, max_size=10)))
    assert is_subgraph(a, union(a, b))
    assert is_subgraph(b, union(a, b))


def test_edge_list_round_trip():
    g = SimpleGraph(5, [(3, 1), (0, 4), (0, 1)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == "5 3"
    assert text.splitlines()[1:] == ["0 1", "0 4", "1 3"]
    assert graph_from_text(text) == g


def test_hypergraph_text_round_trip():
    h = UniformHypergraph(6, 3, frozenset({(3, 4, 5), (0, 1, 2)}))
    text = hypergraph_to_text(h)
    assert text.splitlines()[0] == "6 3 2"
    assert hypergraph_from_text(text) == h
    # colex rank order puts (0, 2, 3) before (0, 1, 4); the text is lexicographic
    h = UniformHypergraph(5, 3, [(1, 2, 3), (0, 2, 3), (4, 1, 0)])
    assert hypergraph_to_text(h).splitlines() == ["5 3 3", "0 1 4", "0 2 3", "1 2 3"]


def test_edge_list_rejects_malformed():
    with pytest.raises(ValidationError):
        graph_from_text("")
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n2 1\n")  # u >= v
    with pytest.raises(ValidationError):
        graph_from_text("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValidationError):
        graph_from_text("5 2\n0 1\n0 1\n")  # a repeated line: one distinct edge
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n1 x\n")  # non-integer token
    with pytest.raises(ValidationError):
        graph_from_text("3 1\n0 1 2\n")  # three tokens on an edge line
    with pytest.raises(ValidationError):
        graph_from_text("3 one\n0 1\n")  # non-integer header

