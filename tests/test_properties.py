import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from rig_lab import (
    AuditParams,
    Seed,
    SimpleGraph,
    ValidationError,
    edge_connectivity,
    hamiltonicity,
    has_perfect_matching,
    is_connected,
    is_k_connected,
    min_degree,
    structure_audit,
    vertex_connectivity,
)
from rig_lab.experiments import ExperimentConfig, plan_point
from rig_lab.graphs import project_rig
from rig_lab.properties import (_augment_from, _perfect_matching, _scan_first_certificate,
                                is_biconnected)
from rig_lab.sampling import sample_rig
from conftest import random_graph
from oracles import (
    oracle_edge_connectivity,
    oracle_edge_k_connected,
    oracle_flow_k_connected,
    oracle_hamiltonian,
    oracle_has_perfect_matching,
    oracle_is_connected,
    oracle_maximum_matching,
    oracle_vertex_connectivity,
    oracle_vertex_k_connected,
)


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_min_degree_examples():
    assert min_degree(SimpleGraph(4)) == 0
    assert min_degree(complete(4)) == 3
    assert min_degree(path(3)) == 1


def test_k_connectivity_examples(petersen):
    assert is_k_connected(complete(4), 3)
    assert not is_k_connected(path(3), 2)
    assert is_k_connected(petersen, 3)
    assert not is_k_connected(petersen, 4)
    assert vertex_connectivity(petersen) == 3
    assert edge_connectivity(petersen) == 3
    with pytest.raises(ValidationError):
        is_k_connected(complete(3), 0)
    with pytest.raises(ValidationError):
        is_k_connected(complete(3), 1, mode="diagonal")


def test_k_connectivity_against_bfs_reachability():
    for n in (0, 1, 2):  # edgeless graphs: connected only below two vertices
        assert is_connected(SimpleGraph(n)) == oracle_is_connected(n, ()) == (n < 2)
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(2, 65))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
        assert is_k_connected(g, 1) == oracle_is_connected(g.n, g.edges)
        assert is_connected(g) == oracle_is_connected(g.n, g.edges)


def _undirected_components(g):
    return connected_components(g.matrix(), directed=False, return_labels=False)


def test_is_connected_matches_undirected_components():
    star = [(0, v) for v in range(1, 6)]
    path = [(v, v + 1) for v in range(1, 5)]
    cases = [
        SimpleGraph(0), SimpleGraph(1),
        SimpleGraph.from_edges(6, path),  # vertex 0 isolated, the rest a path
        SimpleGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two components
        SimpleGraph.from_edges(6, star),
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
        for k in (1, 2, 3):
            assert is_k_connected(g, k) == oracle_vertex_k_connected(n, g.edges, k), (n, g.edges, k)
        assert has_perfect_matching(g) == oracle_has_perfect_matching(n, g.edges), (n, g.edges)
        if n >= 3:
            verdict = hamiltonicity(g, seed=Seed(0).child("t", n))
            assert verdict.verdict in ("yes", "no")
            assert (verdict.verdict == "yes") == oracle_hamiltonian(n, g.edges), (n, g.edges)


def test_connectivity_values_match_oracles():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.95)))
        assert vertex_connectivity(g) == oracle_vertex_connectivity(n, g.edges)
        assert edge_connectivity(g) == oracle_edge_connectivity(n, g.edges)
        for k in (1, 2, 3):
            assert is_k_connected(g, k, mode="edge") == oracle_edge_k_connected(n, g.edges, k)


def cycles(*vertex_lists, n):
    """The union of the cycles through each list of vertices, in order."""
    return SimpleGraph.from_edges(n, [(c[i], c[(i + 1) % len(c)])
                                      for c in vertex_lists for i in range(len(c))])


def test_biconnected_agrees_with_flow_checker():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        expected = oracle_flow_k_connected(n, g.edges, 2)
        assert is_biconnected(g) == expected, (n, sorted(g.edges))
        assert is_k_connected(g, 2) == expected, (n, sorted(g.edges))
    # the depth-first search starts at vertex 0, so put cut vertices at the root and away from it
    for name, g, expected in [
        ("two cycles sharing vertex 0", cycles([0, 1, 2, 3], [0, 4, 5, 6], n=7), False),
        ("two cycles sharing vertex n-1", cycles([0, 1, 2, 6], [3, 4, 5, 6], n=7), False),
        ("two disjoint cycles", cycles([0, 1, 2], [3, 4, 5], n=6), False),
        ("a bare cycle", cycle(6), True),
        ("K_{2,5}", SimpleGraph.from_edges(7, [(a, b) for a in (0, 1) for b in range(2, 7)]), True),
    ]:
        assert oracle_flow_k_connected(g.n, g.edges, 2) == expected, name
        assert is_biconnected(g) == expected, name
        assert is_k_connected(g, 2) == expected, name


def harary(k, n):
    """Harary graph H_{k,n}: k-connected with the fewest edges, ceil(kn/2)."""
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    if k % 2:
        edges += [(i, (i + (n + 1) // 2) % n) for i in range((n + 1) // 2)]
    return SimpleGraph.from_edges(n, edges)


def shared_cliques(size, shared):
    """Two copies of K_size that share `shared` vertices."""
    second = list(range(size - shared, 2 * size - shared))
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [(u, v) for i, u in enumerate(second) for v in second[i + 1:] if v >= size]
    return SimpleGraph.from_edges(2 * size - shared, edges)


def adversarial_graphs(k):
    """(name, graph, k it is tested at, k-connected?) around the k boundary."""
    pendant = SimpleGraph(k + 9, complete(k + 8).edges | {(v, k + 8) for v in range(k - 1)})
    apart = SimpleGraph.from_edges(2 * k + 4, [(u + off, v + off) for off in (0, k + 2)
                                               for u, v in complete(k + 2).edges])
    cases = [
        ("K_{k+2} twice, sharing k-1", shared_cliques(k + 2, k - 1), k, False),
        ("K_{k+2} twice, sharing k", shared_cliques(k + 2, k), k, True),
        ("one vertex of degree k-1", pendant, k, False),
        ("disconnected", apart, k, False),
        ("K_{k+1}", complete(k + 1), k, True),
        ("K_k", complete(k), k, False),
    ]
    for n in (2 * k + 5, 2 * k + 6, 40):
        cases.append((f"H_(k,{n})", harary(k, n), k, True))
        cases.append((f"H_(k,{n}) at k+1", harary(k, n), k + 1, False))
    return cases


def rig_graphs(k):
    """Projected random intersection graphs near the k-connectivity threshold.

    At these sizes a "no" comes from the min-degree obstruction; flow cuts
    below k come from the adversarial graphs.
    """
    for c in (-1.0, 1.0):
        for n in (40, 60, 80):
            config = ExperimentConfig(theorem=f"k-connectivity({k})", n=n, m=n, c_grid=(c,),
                                      trials_per_point=1, master_seed=41)
            point = plan_point(config, c)
            for trial in range(2):
                seed = Seed(41).child("kconn", k, f"{c:+}", n, trial)
                yield project_rig(sample_rig(n, point.probabilities, seed))


@pytest.mark.parametrize("k", (2, 3, 4))
def test_k_connected_matches_flow_oracle(k):
    for g in rig_graphs(k):
        assert is_k_connected(g, k) == oracle_flow_k_connected(g.n, g.edges, k), (g.n, k)
    for name, g, kk, expected in adversarial_graphs(k):
        assert oracle_flow_k_connected(g.n, g.edges, kk) == expected, name
        assert is_k_connected(g, kk) == expected, name


@pytest.mark.parametrize("k", (2, 3, 4))
def test_scan_first_certificate_preserves_k_connectivity(k):
    graphs = list(rig_graphs(k)) + [g for _, g, kk, _ in adversarial_graphs(k) if kk == k]
    for g in graphs:
        cert = _scan_first_certificate(g, k)
        assert cert.n == g.n and cert.edges <= g.edges
        assert cert.edge_count() <= k * (g.n - 1)
        assert (oracle_flow_k_connected(g.n, cert.edges, k)
                == oracle_flow_k_connected(g.n, g.edges, k))


def test_whitney_inequality():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        kappa = vertex_connectivity(g)
        lam = edge_connectivity(g)
        assert kappa <= lam <= (min_degree(g) if g.n > 1 else 0)


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, 0.4)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
        rng.shuffle(missing)
        ks = [k for k in (1, 2, 3)]
        conn_before = {k: is_k_connected(g, k) for k in ks}
        pm_before = has_perfect_matching(g)
        for extra in missing[:3]:
            g = SimpleGraph(n, g.edges | {extra})
        for k in ks:
            if conn_before[k]:
                assert is_k_connected(g, k)
        if pm_before:
            assert has_perfect_matching(g)


def test_matching_examples(petersen):
    assert has_perfect_matching(cycle(4))
    assert not has_perfect_matching(complete(3))
    assert has_perfect_matching(petersen)
    match = oracle_maximum_matching(petersen.n, petersen.edges)
    assert sorted(match) == sorted(range(10))


def assert_matching_agrees(g):
    """has_perfect_matching against the old blossom matcher (and the exhaustive
    oracle on small graphs), and the helper's matching checked edge by edge."""
    expected = -1 not in oracle_maximum_matching(g.n, g.edges)
    assert has_perfect_matching(g) == expected, (g.n, g.edge_list())
    if g.n <= 12:
        assert oracle_has_perfect_matching(g.n, g.edges) == expected
    if expected and g.n:
        mate = _perfect_matching(g)
        assert all(mate[mate[v]] == v != mate[v] and g.has_edge(v, mate[v]) for v in range(g.n))


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
    assert_matching_agrees(SimpleGraph.from_edges(n, [(u, v) for u, v in pairs if u != v]))


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
    assert all(mate[mate[v]] == v != mate[v] and g.has_edge(v, mate[v]) for v in range(g.n))


def hub_with_arms(length, arms=3):
    """Triangles joined to hub 0, each by a path of `length` edges to one corner."""
    edges, n = [], 1
    for _ in range(arms):
        arm = [0] + list(range(n, n + length + 2))
        edges += list(zip(arm, arm[1:])) + [(arm[-1], arm[-3])]
        n += length + 2
    return SimpleGraph.from_edges(n, edges)


def test_perfect_matching_tutte_obstructions(petersen):
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    triangles = cycles([0, 1, 2], [3, 4, 5], n=6)
    chain = cycles([0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], n=12)
    chain = SimpleGraph(12, chain.edges | {(2, 3), (5, 6), (8, 9)})
    # (name, graph, has a perfect matching, double cover has one too)
    cases = [
        ("star K_{1,3}", star, False, False),
        ("three triangles off one cut vertex", hub_with_arms(1), False, True),
        ("three triangles on paths of 3 edges to a hub", hub_with_arms(3), False, True),
        ("two disjoint triangles", triangles, False, True),
        ("two triangles joined by an edge", SimpleGraph(6, triangles.edges | {(2, 3)}), True, True),
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
    k23 = SimpleGraph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
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
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % n]) for i in range(n))


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


def test_structure_audit_complete_graph():
    g = complete(40)
    params = AuditParams(gamma=0.5, k=1, degree_cutoff=3, sample_count=20)
    report = structure_audit(g, params, Seed(9).child("audit"))
    assert report.expansion_double.violations == 0
    assert report.high_degree_expansion.violations == 0
    assert report.low_degree_pairs == 0 and report.low_degree_close_pairs == 0


def test_structure_audit_star_spacing_violations():
    n = 30
    star = SimpleGraph.from_edges(n, [(0, v) for v in range(1, n)])
    params = AuditParams(gamma=0.5, k=1, degree_cutoff=1, sample_count=10)
    report = structure_audit(star, params, Seed(9).child("audit2"))
    # all leaves have degree 1 and sit at distance 2 through the hub
    assert report.low_degree_pairs == math.comb(n - 1, 2)
    assert report.low_degree_close_pairs == math.comb(n - 1, 2)


def test_structure_audit_validation():
    with pytest.raises(ValidationError):
        AuditParams(gamma=1.5, k=1, degree_cutoff=1, sample_count=1)
    with pytest.raises(ValidationError):
        AuditParams(gamma=0.5, k=0, degree_cutoff=1, sample_count=1)


def _pairwise_close_oracle(g, low):
    # plain pairwise BFS distances, depth-limited to 5
    adj = g.adjacency()
    close = 0
    for i, u in enumerate(low):
        dist = {u: 0}
        frontier = [u]
        for d in range(1, 6):
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        for v in low[i + 1:]:
            if v in dist:
                close += 1
    return close


def test_low_degree_spacing_matches_pairwise_oracle():
    from rig_lab.properties import _close_low_degree_pairs

    rng = np.random.default_rng(31)
    for cutoff in (2, 60):  # a few low vertices, then every vertex
        for _ in range(15):
            n = int(rng.integers(55, 90))
            g = random_graph(rng, n, 0.05)
            low = [v for v, d in enumerate(g.degrees()) if d <= cutoff]
            got = _close_low_degree_pairs(g, low)
            assert got == _pairwise_close_oracle(g, low), (n, cutoff)


def test_structure_audit_supercritical_expansion():
    # an independent-edge graph above the connectivity scale expands well:
    # no double-expansion violations expected at this density
    from rig_lab import UniformHypergraph, project_hypergraph, sample_h_independent

    n = 2000
    phat = 1.5 * math.log(n) / n
    g = project_hypergraph(sample_h_independent(n, 2, phat, Seed(77).child("audit-g")))
    params = AuditParams(gamma=0.6, k=1, degree_cutoff=19, sample_count=200)
    report = structure_audit(g, params, Seed(77).child("audit-s"))
    assert report.expansion_double.violations == 0
    assert report.expansion_double.sampled > 0
    assert report.expansion_vs_cap.sampled > 0
    assert report.high_degree_expansion.sampled > 0
    assert report.low_degree_pairs >= report.low_degree_close_pairs >= 0
    assert report.params == params
