import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from rig_lab import (
    Seed,
    SimpleGraph,
    ValidationError,
    hamiltonicity,
    has_perfect_matching,
    is_connected,
    is_k_connected,
    min_degree,
)
from rig_lab.experiments import ExperimentConfig, plan_point
from rig_lab.graphs import project_rig
from rig_lab.properties import (_augment_from, _biconnected_sides, _bipartite_parts,
                                _closure_joins, _cut_pairs, _is_hamilton_cycle, _k_connected,
                                _perfect_matching, _posa_search, _short_paths, is_biconnected)
from rig_lab.sampling import _as_rng, sample_rig
from conftest import random_graph
from oracles import (
    _local_vertex_connectivity,
    oracle_cut_pairs,
    oracle_flow_k_connected,
    oracle_bipartite_parts,
    oracle_hamiltonian,
    oracle_has_perfect_matching,
    oracle_is_connected,
    oracle_is_hamilton_cycle,
    oracle_maximum_matching,
    oracle_posa_search,
    oracle_vertex_k_connected,
)


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def adjacent(g, u, v):
    """Whether v is in u's CSR row."""
    return v in g.indices[g.indptr[u]:g.indptr[u + 1]]


def test_min_degree_examples():
    assert min_degree(SimpleGraph(4)) == 0
    assert min_degree(complete(4)) == 3
    assert min_degree(path(3)) == 1


def test_k_connectivity_examples(petersen):
    assert is_k_connected(complete(4), 3)
    assert not is_k_connected(path(3), 2)
    assert is_k_connected(petersen, 3)
    assert not is_k_connected(petersen, 4)
    with pytest.raises(ValidationError):
        is_k_connected(complete(3), 0)


def test_k_connectivity_against_bfs_reachability():
    for n in (0, 1, 2):  # edgeless graphs: connected only below two vertices
        assert is_connected(SimpleGraph(n)) == oracle_is_connected(n, ()) == (n < 2)
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(2, 65))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
        assert is_k_connected(g, 1) == oracle_is_connected(g.n, set(g.edge_list()))
        assert is_connected(g) == oracle_is_connected(g.n, set(g.edge_list()))


def _undirected_components(g):
    return connected_components(g.matrix(), directed=False, return_labels=False)


def test_is_connected_matches_undirected_components():
    star = [(0, v) for v in range(1, 6)]
    path = [(v, v + 1) for v in range(1, 5)]
    cases = [
        SimpleGraph(0), SimpleGraph(1),
        SimpleGraph(6, path),  # vertex 0 isolated, the rest a path
        SimpleGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two components
        SimpleGraph(6, star),
    ]
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        cases.append(random_graph(rng, n, math.log(n) / n * float(rng.uniform(0.5, 1.5))))
    verdicts = set()
    for g in cases:
        expected = g.n == 0 or _undirected_components(g) == 1
        assert is_connected(g) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}
    assert [is_connected(g) for g in cases[:5]] == [True, True, False, False, True]


def test_checkers_match_oracles_small_graphs():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        edges = set(g.edge_list())
        for k in (1, 2, 3):
            assert is_k_connected(g, k) == oracle_vertex_k_connected(n, edges, k), (n, edges, k)
        assert has_perfect_matching(g) == oracle_has_perfect_matching(n, edges), (n, edges)
        if n >= 3:
            verdict = hamiltonicity(g, seed=Seed(0).child("t", n))
            assert verdict.verdict in ("yes", "no")
            assert (verdict.verdict == "yes") == oracle_hamiltonian(n, edges), (n, edges)


def cycles(*vertex_lists, n):
    """The union of the cycles through each list of vertices, in order."""
    return SimpleGraph(n, [(c[i], c[(i + 1) % len(c)])
                                      for c in vertex_lists for i in range(len(c))])


def test_biconnected_agrees_with_flow_checker():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        expected = oracle_flow_k_connected(n, set(g.edge_list()), 2)
        assert is_biconnected(g) == expected, (n, g.edge_list())
        assert is_k_connected(g, 2) == expected, (n, g.edge_list())
    # the depth-first search starts at vertex 0, so put cut vertices at the root and away from it
    for name, g, expected in [
        ("two cycles sharing vertex 0", cycles([0, 1, 2, 3], [0, 4, 5, 6], n=7), False),
        ("two cycles sharing vertex n-1", cycles([0, 1, 2, 6], [3, 4, 5, 6], n=7), False),
        ("two disjoint cycles", cycles([0, 1, 2], [3, 4, 5], n=6), False),
        ("a bare cycle", cycle(6), True),
        ("K_{2,5}", SimpleGraph(7, [(a, b) for a in (0, 1) for b in range(2, 7)]), True),
    ]:
        assert oracle_flow_k_connected(g.n, set(g.edge_list()), 2) == expected, name
        assert is_biconnected(g) == expected, name
        assert is_k_connected(g, 2) == expected, name


def harary(k, n):
    """Harary graph H_{k,n}: k-connected with the fewest edges, ceil(kn/2)."""
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    if k % 2:
        edges += [(i, (i + (n + 1) // 2) % n) for i in range((n + 1) // 2)]
    return SimpleGraph(n, edges)


def shared_cliques(size, shared):
    """Two copies of K_size that share `shared` vertices."""
    second = list(range(size - shared, 2 * size - shared))
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [(u, v) for i, u in enumerate(second) for v in second[i + 1:] if v >= size]
    return SimpleGraph(2 * size - shared, edges)


def adversarial_graphs(k):
    """(name, graph, k it is tested at, k-connected?) around the k boundary."""
    pendant = SimpleGraph(k + 9, complete(k + 8).edge_list() + [(v, k + 8) for v in range(k - 1)])
    apart = SimpleGraph(2 * k + 4, [(u + off, v + off) for off in (0, k + 2)
                                    for u, v in complete(k + 2).edge_list()])
    cases = [
        ("K_{k+2} twice, sharing k-1", shared_cliques(k + 2, k - 1), k, False),
        ("K_{k+2} twice, sharing k", shared_cliques(k + 2, k), k, True),
        ("one vertex of degree k-1", pendant, k, False),
        ("disconnected", apart, k, False),
        ("K_{k+1}", complete(k + 1), k, True),
        ("K_k", complete(k), k, False),
    ]
    for n in (2 * k + 5, 2 * k + 6, 40, 200):
        cases.append((f"H_(k,{n})", harary(k, n), k, True))
        cases.append((f"H_(k,{n}) at k+1", harary(k, n), k + 1, False))
    cases.append(("K_{k+2} hung on H_(k,200) by k-1 vertices", hung_clique(k, 200), k, False))
    wheel = SimpleGraph(9, [(8, v) for v in range(8)] + cycle(8).edge_list())
    cases.append(("wheel on 8 spokes", wheel, k, k <= 3))
    cases.append(("K_{k,k+7}", SimpleGraph(2 * k + 7, [(a, b) for a in range(k)
                                                        for b in range(k, 2 * k + 7)]), k, True))
    return cases


def hung_clique(k, n):
    """H_{k,n} plus a K_{k+2} on the vertices n.. whose every vertex is joined
    to the same k-1 vertices of H_{k,n}: min degree k, and a (k-1)-vertex cut
    splits off the highest-numbered vertices."""
    clique = range(n, n + k + 2)
    joins = [i * n // (k - 1) for i in range(k - 1)]
    return SimpleGraph(n + k + 2, harary(k, n).edge_list()
                                  + [(u, v) for u in clique for v in clique if u < v]
                                  + [(x, v) for x in joins for v in clique])


def test_cut_pairs_match_set_oracle():
    rng = np.random.default_rng(31)
    graphs = [SimpleGraph(2), complete(5), harary(3, 12), shared_cliques(5, 2)]
    graphs += [random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.95)))
               for _ in range(300)]
    for g in graphs:
        sources, sinks = _cut_pairs(g)
        pairs = oracle_cut_pairs(g.n, set(g.edge_list()))
        assert list(zip(sources.tolist(), sinks.tolist())) == pairs


def test_closure_leaves_harary_pairs_to_max_flow():
    """At n = 200 no two vertices of H_(3,n) share 3 neighbors, so the closure
    joins none of the k = 3 pairs that no short paths certify, and each goes
    to its own max-flow, which finds the hung clique's 2-vertex cut."""
    for g in (harary(3, 200), hung_clique(3, 200)):
        assert min_degree(g) == 3
        sources, sinks = _cut_pairs(g)
        left = ~_short_paths(g, 3, sources, sinks)
        sources, sinks = sources[left], sinks[left]
        assert len(sources) > 100 and not _closure_joins(g, 3, sources, sinks).any()
        assert _k_connected(g, 3)[1] == len(sources)


def glued(rng, size, shared, p):
    """Two random graphs on `size` vertices each, with edge probability p,
    sharing the vertices size - shared .. size - 1."""
    second = np.arange(size - shared, 2 * size - shared)
    edges = random_graph(rng, size, p).edge_list()
    edges += [(int(second[u]), int(second[v])) for u, v in random_graph(rng, size, p).edge_list()]
    return SimpleGraph(2 * size - shared, edges)


def sampled_graphs(k):
    """Random graphs to test at k against the oracle: projected random
    intersection graphs near the k-connectivity threshold, where a "no"
    comes from the min-degree obstruction (at m = 10n, short paths leave cut
    pairs that the closure joins), and dense random graphs, alone
    and glued at k - 1 and at k vertices, where flow cuts below k occur."""
    for c in (-1.0, 1.0):
        for n, m in ((40, 40), (60, 60), (80, 80), (40, 400), (60, 600)):
            config = ExperimentConfig(theorem=f"k-connectivity({k})", n=n, m=m, c_grid=(c,),
                                      trials_per_point=1, master_seed=41)
            point = plan_point(config, c)
            for trial in range(2):
                seed = Seed(41).child("kconn", k, f"{c:+}", n, trial)
                yield project_rig(sample_rig(n, point.probabilities, seed))
    rng = np.random.default_rng(97 + k)
    for _ in range(40):
        yield random_graph(rng, int(rng.integers(k + 2, 16)), float(rng.uniform(0.4, 0.95)))
    for shared in (k - 1, k):
        for _ in range(10):
            yield glued(rng, int(rng.integers(k + 3, 11)), shared, float(rng.uniform(0.7, 1.0)))


def closure_settled(g, k, flow_pairs):
    """Cut pairs that `_k_connected` settled by the closure: those short paths
    left, less those it sent to max-flow."""
    if k < 3 or g.n <= k or min_degree(g) < k:
        return 0
    sources, sinks = _cut_pairs(g)
    return np.count_nonzero(~_short_paths(g, k, sources, sinks)) - flow_pairs


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_k_connected_matches_flow_oracle(k):
    flow_no = 0  # "no" verdicts that a max-flow gave
    closed = 0  # cut pairs the closure settled
    for g in sampled_graphs(k):
        expected = oracle_flow_k_connected(g.n, set(g.edge_list()), k)
        ok, flow_pairs = _k_connected(g, k)
        assert ok == expected, (k, g.edge_list())
        flow_no += not ok and flow_pairs > 0
        closed += closure_settled(g, k, flow_pairs)
    for name, g, kk, expected in adversarial_graphs(k):
        assert oracle_flow_k_connected(g.n, set(g.edge_list()), kk) == expected, name
        ok, flow_pairs = _k_connected(g, kk)
        assert ok == expected, name
        flow_no += not ok and flow_pairs > 0
        closed += closure_settled(g, kk, flow_pairs)
    assert flow_no or k == 2
    assert closed or k == 2


def cube():
    """The 3-cube: antipodal vertices share no neighbor, and are joined by
    three disjoint paths of length 3."""
    return SimpleGraph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_short_paths_certify_only_pairs_with_k_disjoint_paths(data):
    n = data.draw(st.integers(4, 14))
    k = data.draw(st.sampled_from((3, 4)))
    p = data.draw(st.one_of(st.floats(0.15, 0.45), st.floats(0.55, 0.95)))  # sparse or dense
    g = random_graph(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, p)
    apart = [(s, t) for s in range(n) for t in range(s + 1, n) if not adjacent(g, s, t)]
    sources, sinks = np.array(apart, dtype=np.int64).reshape(-1, 2).T
    adj = [set(row) for row in g.neighbor_lists()]
    for certify in (_short_paths, _closure_joins):
        for s, t in zip(*(side[certify(g, k, sources, sinks)].tolist()
                          for side in (sources, sinks))):
            assert _local_vertex_connectivity(adj, n, s, t, k) >= k, (certify, n, k, s, t)


def test_short_paths_match_through_second_neighbors():
    # no common neighbor: only the matched paths 0-1-3-7, 0-2-6-7 and 0-4-5-7 certify
    pair = np.array([0]), np.array([7])
    assert _short_paths(cube(), 3, *pair).tolist() == [True]
    assert _short_paths(cube(), 4, *pair).tolist() == [False]
    assert _short_paths(harary(3, 40), 3, np.array([0]), np.array([10])).tolist() == [False]


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, 0.4)
        present = set(g.edge_list())
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        rng.shuffle(missing)
        ks = [k for k in (1, 2, 3)]
        conn_before = {k: is_k_connected(g, k) for k in ks}
        pm_before = has_perfect_matching(g)
        for extra in missing[:3]:
            g = SimpleGraph(n, g.edge_list() + [extra])
        for k in ks:
            if conn_before[k]:
                assert is_k_connected(g, k)
        if pm_before:
            assert has_perfect_matching(g)


def test_matching_examples(petersen):
    assert has_perfect_matching(cycle(4))
    assert not has_perfect_matching(complete(3))
    assert has_perfect_matching(petersen)
    match = oracle_maximum_matching(petersen.n, set(petersen.edge_list()))
    assert sorted(match) == sorted(range(10))


def assert_matching_agrees(g):
    """has_perfect_matching against the old blossom matcher (and the exhaustive
    oracle on small graphs), and the helper's matching checked edge by edge."""
    expected = -1 not in oracle_maximum_matching(g.n, set(g.edge_list()))
    assert has_perfect_matching(g) == expected, (g.n, g.edge_list())
    if g.n <= 12:
        assert oracle_has_perfect_matching(g.n, set(g.edge_list())) == expected
    if expected and g.n:
        mate = _perfect_matching(g)
        assert all(mate[mate[v]] == v != mate[v] and adjacent(g, v, mate[v]) for v in range(g.n))


def test_perfect_matching_matches_oracles_on_random_graphs():
    rng = np.random.default_rng(20260811 + 9)  # criterion 9's graphs
    for _ in range(500):
        n = int(rng.integers(2, 9))
        assert_matching_agrees(random_graph(rng, n, float(rng.uniform(0.1, 0.9))))
    for _ in range(300):  # sparse even graphs, where odd cycles and blossoms are common
        n = 2 * int(rng.integers(5, 30))
        assert_matching_agrees(random_graph(rng, n, float(rng.uniform(1.0, 4.0)) / n))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_perfect_matching_matches_oracles_on_hypothesis_graphs(data):
    n = data.draw(st.integers(0, 12))
    end = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(end, end), max_size=3 * n))
    assert_matching_agrees(SimpleGraph(n, [(u, v) for u, v in pairs if u != v]))


def odd_cycles_with_chords(rng, n_min):
    """Disjoint cycles of 3, 5 and 7 vertices, at least n_min and an even count
    in all, plus random chords: the cycle covers leave many exposed vertices."""
    sizes = []
    while sum(sizes) < n_min or sum(sizes) % 2:
        sizes.append(int(rng.choice([3, 3, 5, 7])))
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    edges = [(a + i, a + (i + 1) % s) for a, s in zip(starts, sizes) for i in range(s)]
    chords = rng.integers(n, size=(int(rng.integers(0, n)), 2))
    return SimpleGraph(n, edges + [(int(u), int(v)) for u, v in chords if u != v])


def test_perfect_matching_matches_oracles_on_odd_cycle_graphs():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        assert_matching_agrees(odd_cycles_with_chords(rng, int(rng.integers(6, 40))))


def test_blossom_search_walks_through_a_contracted_blossom():
    # a search that merged each blossom in the middle of its contraction walk
    # stopped that walk early here and missed the augmenting path from 1 to 4
    g = SimpleGraph(22, [(0, 1), (0, 2), (1, 2), (1, 10), (1, 20), (3, 4), (3, 5), (3, 20),
                         (4, 5), (6, 7), (6, 12), (7, 8), (8, 9), (9, 17), (10, 15), (11, 12),
                         (11, 15), (13, 14), (16, 17), (16, 18), (17, 18), (18, 19), (19, 21),
                         (20, 21)])
    mate = [2, -1, 0, 5, -1, 3, 7, 6, 9, 8, 15, 12, 11, 14, 13, 10, 17, 16, 19, 18, 21, 20]
    assert _augment_from(g.indptr.tolist(), g.indices, mate, 1)
    assert all(mate[mate[v]] == v != mate[v] and adjacent(g, v, mate[v]) for v in range(g.n))


def hub_with_arms(length, arms=3):
    """Triangles joined to hub 0, each by a path of `length` edges to one corner."""
    edges, n = [], 1
    for _ in range(arms):
        arm = [0] + list(range(n, n + length + 2))
        edges += list(zip(arm, arm[1:])) + [(arm[-1], arm[-3])]
        n += length + 2
    return SimpleGraph(n, edges)


def test_perfect_matching_tutte_obstructions(petersen):
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    triangles = cycles([0, 1, 2], [3, 4, 5], n=6)
    chain = cycles([0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], n=12)
    chain = SimpleGraph(12, chain.edge_list() + [(2, 3), (5, 6), (8, 9)])
    # (name, graph, has a perfect matching, double cover has one too)
    cases = [
        ("star K_{1,3}", star, False, False),
        ("three triangles off one cut vertex", hub_with_arms(1), False, True),
        ("three triangles on paths of 3 edges to a hub", hub_with_arms(3), False, True),
        ("two disjoint triangles", triangles, False, True),
        ("two triangles joined by an edge", SimpleGraph(6, triangles.edge_list() + [(2, 3)]), True, True),
        ("four triangles joined in a chain", chain, True, True),
        ("Petersen", petersen, True, True),
    ]
    for name, g, expected, cover in cases:
        assert (maximum_bipartite_matching(g.matrix(), perm_type="column") >= 0).all() == cover, name
        assert has_perfect_matching(g) == expected, name
        assert_matching_agrees(g)


def test_hamiltonicity_examples(petersen):
    v = hamiltonicity(cycle(5))
    assert v.verdict == "yes" and len(v.certificate) == 5
    k23 = SimpleGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert hamiltonicity(k23).verdict == "no"
    assert hamiltonicity(petersen).verdict == "no"
    bowtie = hamiltonicity(cycles([0, 1, 2], [0, 3, 4], n=5))  # cut vertex at the search root
    assert bowtie.verdict == "no" and bowtie.effort == 0
    with pytest.raises(ValidationError):
        hamiltonicity(complete(2))


def test_hamiltonicity_certificates_are_verified():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(6, 30))
        g = random_graph(rng, n, 0.4)
        v = hamiltonicity(g, seed=Seed(4).child("cert", n))
        if v.verdict == "yes":
            cyc = v.certificate
            assert len(cyc) == n and len(set(cyc)) == n
            assert all(adjacent(g, cyc[i], cyc[(i + 1) % n]) for i in range(n))


def test_hamiltonicity_never_rejects_planted_cycle():
    rng = np.random.default_rng(19)
    for trial in range(25):
        n = int(rng.integers(8, 201))
        order = rng.permutation(n)
        edges = {tuple(sorted((int(order[i]), int(order[(i + 1) % n])))) for i in range(n)}
        extra = int(rng.integers(0, 2 * n))
        for _ in range(extra):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.add(tuple(sorted((u, v))))
        g = SimpleGraph(n, frozenset(edges))
        v = hamiltonicity(g, budget=50_000, seed=Seed(5).child("plant", trial))
        assert v.verdict != "no"


def test_hamiltonicity_budget_exhaustion_is_unknown():
    # sparse graph, no low-degree shortcut, tiny budget for the exact phase
    rng = np.random.default_rng(101)
    n = 60
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {tuple(sorted(e)) for e in edges}
    # chords keep min degree 2+ and connectivity but destroy the cycle's simplicity
    for _ in range(n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add(tuple(sorted((u, v))))
    g = SimpleGraph(n, frozenset(edges))
    v = hamiltonicity(g, budget=0, seed=Seed(6).child("tiny-budget"))
    assert v.verdict in ("unknown", "no")  # budget 0: only exact preconditions may answer



@st.composite
def posa_graphs(draw):
    """Graphs with no isolated vertex, on 3 to 60 vertices: sparse near-cycles
    with chords (some missing a cycle edge), which make the search reroot,
    swap ends and close by rotation; disjoint near-cycles, whose components
    the search exhausts; bipartite graphs with balanced or unbalanced parts;
    and dense random graphs."""
    kind = draw(st.sampled_from(["near-cycle", "pieces", "bipartite", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 60))
    if kind == "bipartite":
        a = draw(st.integers(1, n - 1))
        p = draw(st.floats(0.1, 0.9))
        edges = [(u, v) for u in range(a) for v in range(a, n) if rng.random() < p]
    elif kind == "dense":
        edges = random_graph(rng, n, draw(st.floats(0.2, 0.9))).edge_list()
    else:
        sizes = [n]
        if kind == "pieces":
            pieces = draw(st.integers(2, max(2, n // 3)))
            cuts = np.sort(rng.choice(np.arange(3, n - 2), size=pieces - 1, replace=False)) \
                if n >= 6 else np.array([], dtype=int)
            sizes = np.diff(np.concatenate(([0], cuts, [n]))).tolist()
        order = rng.permutation(n)
        edges, first = [], 0
        for size in sizes:
            piece = order[first:first + size]
            edges += [(piece[i], piece[(i + 1) % size]) for i in range(size)]
            if draw(st.booleans()):  # drop one cycle edge: a path plus chords
                edges.pop(int(rng.integers(len(edges) - size, len(edges))))
            for _ in range(int(rng.integers(0, size // 2 + 1))):
                u, v = rng.choice(piece, size=2)
                edges.append((u, v))
            first += size
        edges = [(int(u), int(v)) for u, v in edges if u != v]
    g = SimpleGraph(n, edges)
    if g.degrees().min() == 0:  # the search never runs with an isolated vertex
        g = SimpleGraph(n, g.edge_list() + [(v, (v + 1) % n) for v in range(n)
                                            if g.degrees()[v] == 0])
    return g


def assert_posa_matches_oracle(g, seed, budget):
    edges = g.edge_list()
    got = _posa_search(g, _as_rng(seed), budget)
    expected = oracle_posa_search(g.n, edges, _as_rng(seed), budget)
    assert got == expected, (g.n, edges)
    cycle = got[0]
    assert cycle is None or oracle_is_hamilton_cycle(g.n, edges, cycle)


@given(posa_graphs(), st.integers(0, 2**16), st.sampled_from([0, 1, 40, 500, 5000]))
@settings(max_examples=300, deadline=None)
def test_posa_search_matches_set_oracle(g, seed, budget):
    # the CSR search makes the set search's draws, so cycle and effort agree
    assert_posa_matches_oracle(g, Seed(seed).child("posa"), budget)


def test_posa_search_matches_set_oracle_at_the_criterion_8_config():
    config = ExperimentConfig(theorem="hamiltonicity", n=1000, m=1000, c_grid=(4.0,),
                              trials_per_point=10, master_seed=20260811,
                              experiment_id="accept-hc")
    point = plan_point(config, 4.0, 0)
    for trial in range(10):
        trial_seed = Seed(config.master_seed).child(config.experiment_id, 0, trial)
        g = project_rig(sample_rig(point.n_vertices, point.probabilities,
                                   trial_seed.child("sample")))
        assert_posa_matches_oracle(g, trial_seed.child("hc"), config.hc_budget // 2)


def test_is_hamilton_cycle_matches_set_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        g = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        edges = g.edge_list()
        if not edges:
            continue
        candidate = rng.permutation(n).tolist()
        for cyc in (candidate, candidate[:-1], candidate[:-1] + candidate[:1],
                    candidate[::-1]):
            assert _is_hamilton_cycle(g, cyc) == oracle_is_hamilton_cycle(n, edges, cyc)
    # a closed walk along edges that repeats a vertex is no Hamilton cycle
    assert not _is_hamilton_cycle(complete(4), [0, 1, 2, 1])


def bipartite(a, b, rng, p):
    return SimpleGraph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)
                               if rng.random() < p])


def test_depth_first_parts_match_breadth_first_colouring():
    # the depth parity of scipy's depth-first tree against a BFS 2-colouring
    rng = np.random.default_rng(41)
    named = [SimpleGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K_{2,3}
             cycle(6), cycle(7), cycle(3), path(2), complete(4)]
    drawn = [random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.5)))
             for _ in range(200)]
    for a, b in [(5, 5), (8, 8), (3, 9), (10, 4)]:
        drawn += [bipartite(a, b, rng, p) for p in (0.3, 0.6, 1.0)]
    seen = {None: 0, "equal": 0, "unequal": 0}
    for g in named + drawn:
        edges = g.edge_list()
        biconnected, side = _biconnected_sides(g)
        if not oracle_is_connected(g.n, edges):
            assert not biconnected and side is None
            continue
        assert biconnected == (g.n >= 3 and oracle_flow_k_connected(g.n, set(edges), 2))
        parts = _bipartite_parts(g, side)
        assert parts == oracle_bipartite_parts(g.n, edges), edges
        seen[None if parts is None else "equal" if parts[0] == parts[1] else "unequal"] += 1
    assert min(seen.values()) >= 5, seen
