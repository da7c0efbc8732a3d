"""Independent brute-force oracles.

Everything here is deliberately naive (enumeration, exhaustive recursion,
extended-precision summation, sets of edge tuples) and shares no code with
the library paths it cross-checks.  Some oracles are the code a faster
library path replaced, kept to check that path on the same streams.
"""

import itertools
import math
from collections import deque

import mpmath
import numpy as np
from scipy.sparse import csc_array

from rig_lab import (CoverageNotReached, FeatureProbabilities, OutOfRangeError, SimpleGraph,
                     UniformHypergraph, ValidationError,
                     hamiltonicity, has_perfect_matching, is_connected, is_k_connected,
                     min_degree, summary_stats)
from rig_lab.properties import is_biconnected
from rig_lab.thresholds import _one_minus_pow_1m_2p, _pow_1m_p
from rig_lab.coupling import CollectorReport, CouplingReport


class DimensionMismatch(ValidationError):
    """Raised when two graphs with different vertex counts are combined."""


def _adj_sets(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected_on(vertices, adj):
    vertices = set(vertices)
    if not vertices:
        return True
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def oracle_sample_rig(n, values, seed):
    """The per-feature sampler the library used before its vectorized draw:
    Binomial(n, p_i) members for each feature in turn, then Floyd's algorithm
    on that feature's own block of k uniforms (none when k >= n).  Returns
    the feature sets; `seed` is a rig_lab Seed."""
    rng = seed.rng()
    sets = []
    for k in rng.binomial(n, np.asarray(values, dtype=np.float64)).tolist():
        if k >= n:
            sets.append(frozenset(range(n)))
            continue
        sets.append(frozenset(_oracle_floyd(rng.random(k), n, k)))
    return tuple(sets)


def _oracle_floyd(u, n, k):
    chosen = set()
    for j in range(k):
        t = int(u[j] * (n - k + 1 + j))
        if t in chosen:
            t = n - k + j
        chosen.add(t)
    return sorted(chosen)


def oracle_project_rig(feature_sets):
    """Intersection graph edges as the union of the cliques on the feature sets."""
    edges = set()
    for s in feature_sets:
        edges.update(itertools.combinations(sorted(s), 2))
    return frozenset(edges)


def oracle_clique_union(n, indptr, members):
    """The projection the library used before its key-sort path: the
    off-diagonal pattern of the sparse product B B^T, where column i of the
    n x m incidence B is the row ``members[indptr[i]:indptr[i + 1]]``."""
    b = csc_array((np.ones(len(members)), members, indptr), shape=(n, len(indptr) - 1))
    product = (b @ b.T).tocoo()
    off = product.row != product.col
    return SimpleGraph(n, zip(product.row[off].tolist(), product.col[off].tolist()))


def oracle_judge(spec, k, g, hc_budget, trial_seed):
    """The sweep judge before trials were judged on the incidence: every law's
    checker on the projected graph g, plus its min-degree consistency check.
    Returns (verdict, min degree)."""
    deg = min_degree(g)
    name = spec.name
    if name == "connectivity":
        ok = is_connected(g)
        if ok and deg < 1:
            raise AssertionError("connected graph with an isolated vertex")
        return ("yes" if ok else "no"), deg
    if name in ("k-connectivity", "k-connectivity-refined"):
        ok = is_k_connected(g, k)
        if ok and deg < k:
            raise AssertionError(f"{k}-connected graph with min degree {deg}")
        return ("yes" if ok else "no"), deg
    if name == "perfect-matching":
        ok = has_perfect_matching(g)
        if ok and deg < 1:
            raise AssertionError("perfect matching with an isolated vertex")
        return ("yes" if ok else "no"), deg
    if name in ("hamiltonicity", "hamiltonicity-refined"):
        verdict = hamiltonicity(g, budget=hc_budget, seed=trial_seed.child("hc"))
        if verdict.verdict == "yes":
            if deg < 2 or not is_biconnected(g):
                raise AssertionError("Hamiltonian graph that is not 2-connected")
        return verdict.verdict, deg
    if name in ("min-degree", "min-degree-refined"):
        return ("yes" if deg >= k else "no"), deg
    raise AssertionError(f"unhandled law {name}")


def oracle_is_connected(n, edges):
    return connected_on(range(n), _adj_sets(n, edges))


def oracle_vertex_k_connected(n, edges, k):
    """No vertex cut of size < k, checked by trying every candidate cut."""
    if n <= k:
        return False
    adj = _adj_sets(n, edges)
    for size in range(k):
        for cut in itertools.combinations(range(n), size):
            rest = set(range(n)) - set(cut)
            if len(rest) >= 2 and not connected_on(rest, adj):
                return False
    return True


class _UnitFlow:
    """Residual network with unit capacities; augments one BFS path at a time."""

    def __init__(self, n):
        self.n = n
        self.to = [[] for _ in range(n)]
        self.cap = [[] for _ in range(n)]
        self.rev = [[] for _ in range(n)]

    def add(self, u, v):
        self.to[u].append(v)
        self.cap[u].append(1)
        self.rev[u].append(len(self.to[v]))
        self.to[v].append(u)
        self.cap[v].append(0)
        self.rev[v].append(len(self.to[u]) - 1)

    def maxflow(self, s, t, limit):
        flow = 0
        while flow < limit:
            prev = [-1] * self.n
            prev_edge = [-1] * self.n
            prev[s] = s
            q = deque([s])
            while q and prev[t] == -1:
                v = q.popleft()
                for idx, w in enumerate(self.to[v]):
                    if self.cap[v][idx] > 0 and prev[w] == -1:
                        prev[w] = v
                        prev_edge[w] = idx
                        if w == t:
                            break
                        q.append(w)
            if prev[t] == -1:
                break
            v = t
            while v != s:
                u = prev[v]
                idx = prev_edge[v]
                self.cap[u][idx] -= 1
                self.cap[v][self.rev[u][idx]] += 1
                v = u
            flow += 1
        return flow


def _local_vertex_connectivity(adj, n, s, t, limit):
    """min(kappa(s, t), limit) for non-adjacent s, t via the vertex-split digraph."""
    net = _UnitFlow(2 * n)
    for v in range(n):
        net.add(2 * v, 2 * v + 1)  # in -> out, the vertex budget
    for u in range(n):
        for v in adj[u]:
            if u < v:
                net.add(2 * u + 1, 2 * v)
                net.add(2 * v + 1, 2 * u)
    return net.maxflow(2 * s + 1, 2 * t, limit)


def oracle_flow_k_connected(n, edges, k):
    """The unit-capacity flow checker the library used before its sparse
    certificate: a fresh network per pair of the Esfahanian-Hakimi family (a
    min-degree vertex against its non-neighbors, plus non-adjacent pairs
    among its neighbors).  Fast enough for graphs of a few hundred edges."""
    if n <= k:
        return False
    adj = _adj_sets(n, edges)
    if k == 1:
        return connected_on(range(n), adj)
    if min(len(a) for a in adj) < k:
        return False
    return all(_local_vertex_connectivity(adj, n, s, t, k) >= k
               for s, t in oracle_cut_pairs(n, edges))


def oracle_cut_pairs(n, edges):
    """The Esfahanian-Hakimi pair family from neighbor sets, in order: the
    first min-degree vertex v0 against each non-neighbor, then the
    non-adjacent pairs among its neighbors."""
    adj = _adj_sets(n, edges)
    v0 = min(range(n), key=lambda v: len(adj[v]))
    pairs = [(v0, u) for u in range(n) if u != v0 and u not in adj[v0]]
    nbrs = sorted(adj[v0])
    return pairs + [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b not in adj[a]]


def oracle_has_perfect_matching(n, edges):
    if n % 2:
        return False
    adj = _adj_sets(n, edges)

    def rec(unmatched):
        if not unmatched:
            return True
        v = min(unmatched)
        for w in adj[v]:
            if w in unmatched:
                if rec(unmatched - {v, w}):
                    return True
        return False

    return rec(frozenset(range(n)))


def _oracle_augment(adj, n, match, root):
    """One phase of blossom search with O(n) contractions; augments the
    matching if a path is found."""
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    q = deque([root])

    def lca(a, b):
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur_base = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not in_queue[i]:
                            in_queue[i] = True
                            q.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        u = parent[to]
                        nxt = match[u]
                        match[u] = to
                        match[to] = u
                        to = nxt
                    return True
                w = match[to]
                if not in_queue[w]:
                    in_queue[w] = True
                    q.append(w)
    return False


def oracle_maximum_matching(n, edges):
    """The blossom matcher the library used before its double-cover warm
    start: a greedy warm start over pairs u < v in lexicographic order, then
    one blossom search from each exposed vertex.  Entry v holds v's partner
    or -1."""
    adj = _adj_sets(n, edges)
    match = [-1] * n
    for u in range(n):
        if match[u] == -1:
            for v in sorted(adj[u]):
                if u < v and match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    for v in range(n):
        if match[v] == -1 and adj[v]:
            _oracle_augment(adj, n, match, v)
    return match


def oracle_hamiltonian(n, edges):
    """Exhaustive depth-first enumeration of simple cycles through vertex 0."""
    if n < 3:
        return False
    adj = _adj_sets(n, edges)
    visited = [False] * n
    visited[0] = True

    def rec(v, depth):
        if depth == n:
            return 0 in adj[v]
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                if rec(w, depth + 1):
                    return True
                visited[w] = False
        return False

    return rec(0, 1)


def oracle_is_hamilton_cycle(n, edges, cycle):
    """Set-based check that `cycle` visits every vertex once along edges."""
    adj = _adj_sets(n, edges)
    if cycle is None or len(cycle) != n or len(set(cycle)) != n:
        return False
    return all(cycle[(i + 1) % n] in adj[cycle[i]] for i in range(n))


def oracle_posa_search(n, edges, rng, budget):
    """The list-and-set rotation-extension search that the CSR search in
    `properties._posa_search` replaced: neighbors in increasing order, the
    same `rng.integers` calls, and the same (cycle or None, effort)."""
    adj_sets = _adj_sets(n, edges)
    adj = [sorted(row) for row in adj_sets]
    effort = 0
    max_restarts = 20 * n
    rot_cap = n * n
    for _ in range(max_restarts):
        if effort >= budget:
            break
        start = int(rng.integers(n))
        pos = [-1] * n
        path = [start]
        pos[start] = 0
        out_deg = [len(adj[v]) for v in range(n)]  # neighbors outside the path
        for x in adj[start]:
            out_deg[x] -= 1
        rotations = 0
        stalled = 0
        stall_cap = 8 * n + 64
        while rotations < rot_cap and stalled < stall_cap and effort < budget:
            e = path[-1]
            effort += 1
            fresh = [w for w in adj[e] if pos[w] < 0]
            if fresh:
                w = fresh[int(rng.integers(len(fresh)))]
                pos[w] = len(path)
                path.append(w)
                for x in adj[w]:
                    out_deg[x] -= 1
                stalled = 0
                continue
            full = len(path) == n
            start = path[0]
            if start in adj_sets[e]:
                if full:
                    return path, effort
                # short cycle: re-open it at a vertex with an outside neighbor
                reroot = -1
                for i, v in enumerate(path):
                    if out_deg[v] > 0:
                        reroot = i
                        break
                if reroot < 0:
                    break  # the path's component is exhausted
                path = path[reroot + 1:] + path[:reroot + 1]
                for j, v in enumerate(path):
                    pos[v] = j
                rotations += 1
                effort += 1
                stalled = 0
                continue
            if full and rng.integers(2):
                # work the other endpoint while hunting for the closing edge
                path.reverse()
                for j, v in enumerate(path):
                    pos[v] = j
                e = path[-1]
                start = path[0]
            last = len(path) - 1
            goods = []
            closing = -1
            fallback = []
            for u in adj[e]:
                i = pos[u]
                if i < 0 or i == last - 1 or i == last:
                    continue
                w = path[i + 1]
                if out_deg[w] > 0:
                    goods.append(i)
                elif full and w in adj_sets[start]:
                    closing = i
                else:
                    fallback.append(i)
            if closing >= 0:
                best = closing
            elif goods:
                best = goods[int(rng.integers(len(goods)))]
            elif fallback:
                best = fallback[int(rng.integers(len(fallback)))]
            else:
                break
            seg = path[best + 1:]
            seg.reverse()
            path[best + 1:] = seg
            for j in range(best + 1, len(path)):
                pos[path[j]] = j
            rotations += 1
            effort += 1
            stalled += 1
    return None, effort


def oracle_bipartite_parts(n, edges):
    """Part sizes of a connected graph by breadth-first 2-colouring from
    vertex 0, or None if some edge joins two vertices of one colour."""
    adj = _adj_sets(n, edges)
    side = [-1] * n
    side[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if side[w] < 0:
                side[w] = 1 - side[v]
                queue.append(w)
            elif side[w] == side[v]:
                return None
    return n - sum(side), sum(side)


def oracle_stats(n, pvec):
    """S1, S2, S3 and the full S1t profile from feature-size expectations.

    Works from the probabilistic meaning (sizes are Binomial(n, p_i)) at 50
    significant digits, not from the closed forms under test.
    """
    with mpmath.workdps(50):
        s1 = mpmath.mpf(0)
        s2 = mpmath.mpf(0)
        s3 = mpmath.mpf(0)
        s1t = [mpmath.mpf(0)] * (n + 1)
        for p in pvec:
            mp_p = mpmath.mpf(p)
            mp_q = 1 - mp_p
            for t in range(n + 1):
                prob = mpmath.binomial(n, t) * mp_p**t * mp_q ** (n - t)
                if t >= 2:
                    s1 += t * prob
                    s2 += (t - (t % 2)) * prob
                    if t % 2:
                        s3 += prob
                    s1t[t] += t * prob
        return float(s1), float(s2), float(s3), [float(x) for x in s1t[2:]]


def oracle_fsum(terms, counts=None):
    """The feature sum before sums ran over distinct values: ``math.fsum``
    over the m-term list, counts[i] copies of terms[i] (one each by default)."""
    if counts is not None:
        terms = np.repeat(terms, counts)
    return math.fsum(np.asarray(terms, dtype=np.float64).tolist())


def oracle_feature_sums(n, values, t_max):
    """(S1, S2, S3, S1t) by the closed forms of ``summary_stats``, each summed
    term by term over all m features with ``oracle_fsum``."""
    arr = np.asarray(values, dtype=np.float64)
    np_i = n * arr
    one_m_w = _one_minus_pow_1m_2p(arr, n)
    s1 = oracle_fsum(n * arr * -np.expm1((n - 1) * np.log1p(-arr)))
    s2 = oracle_fsum(np_i - one_m_w / 2.0)
    s3 = oracle_fsum(one_m_w / 2.0 - np_i * _pow_1m_p(arr, n - 1))
    s1t = []
    for t in range(2, t_max + 1):
        log_binom = math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
        s1t.append(oracle_fsum(t * np.exp(log_binom + t * np.log(arr) + (n - t) * np.log1p(-arr))))
    return s1, s2, s3, tuple(s1t)


# --- threshold helpers that no library path or command uses -----------------


def c_from_s1(n: int, s1: float, k: int = 1, kind: str = "connectivity") -> float:
    """Invert the c-axis parameterization S1 = n*(ln n + shift + c).

    kind "connectivity" uses shift = (k-1)*ln(ln n) (minimum degree and
    k-connectivity scale); kind "hamiltonicity" uses shift = ln(ln n).
    """
    if s1 < 0:
        raise ValidationError(f"S1 must be nonnegative, got {s1}")
    if kind == "connectivity":
        if k < 1:
            raise ValidationError(f"k must be positive, got {k}")
        lnln_mult = k - 1
    elif kind == "hamiltonicity":
        lnln_mult = 1
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    if lnln_mult and n < 3:
        raise ValidationError(f"need n >= 3 when the ln(ln n) term is present, got n={n}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    shift = lnln_mult * math.log(math.log(n)) if lnln_mult else 0.0
    return s1 / n - math.log(n) - shift


def balanced_feature_ratio(gamma: float) -> tuple[float, float]:
    """Constants for the scaling m = beta*n*ln n, p = gamma/n.

    Returns (beta, slope) with beta*gamma*(1 - e^(-gamma)) = 1 and
    slope = 1 + gamma*e^(-gamma)/(1 - e^(-gamma)), the factor multiplying
    the drift sequence inside the limit law.
    """
    if gamma <= 0 or math.isnan(gamma):
        raise ValidationError(f"gamma must be positive, got {gamma}")
    denom = gamma * -math.expm1(-gamma)
    beta = 1.0 / denom
    slope = 1.0 + gamma * math.exp(-gamma) / -math.expm1(-gamma)
    return beta, slope


# --- the set-based coupling chain the library used before its array rebuild --


def clique_edges(vertices):
    """All unordered pairs within a vertex set, canonically ordered."""
    return set(itertools.combinations(sorted(vertices), 2))


def union(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"cannot union graphs on {a.n} and {b.n} vertices")
    return SimpleGraph(a.n, a.edge_list() + b.edge_list())


def is_subgraph(a, b):
    """Containment under the identity vertex map (no isomorphism search)."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compare graphs on {a.n} and {b.n} vertices")
    return set(a.edge_list()) <= set(b.edge_list())


def subset_rank(subset):
    """Colex rank of a sorted vertex tuple."""
    return sum(math.comb(v, j + 1) for j, v in enumerate(subset))


def _max_with_comb_le(r, j):
    """Largest v with C(v, j) <= r, in exact integers."""
    if j == 1:
        return r
    if j == 2:
        v = int((1 + math.isqrt(1 + 8 * r)) // 2)
    else:
        v = max(j - 1, int(round((6.0 * r) ** (1.0 / 3.0))))
    while math.comb(v + 1, j) <= r:
        v += 1
    while v >= j and math.comb(v, j) > r:
        v -= 1
    return max(v, j - 1)


def subset_unrank(rank, arity):
    """Inverse of subset_rank; valid for any n (the rank encodes the subset)."""
    out = []
    r = rank
    for j in range(arity, 0, -1):
        v = _max_with_comb_le(r, j)
        out.append(v)
        r -= math.comb(v, j)
    out.reverse()
    return tuple(out)


def _draw_subsets(n, arity, count, rng):
    if count == 0:
        return []
    ranks = rng.integers(0, math.comb(n, arity), size=count)
    return [subset_unrank(int(r), arity) for r in ranks]


def _assemble_feature(size, n, pair_draws, triple_draws, rng):
    """Edges and reconstructed feature set for one feature, given its draws:
    cliques on the draws, and the touched vertices padded with uniformly
    chosen fresh ones up to `size`."""
    edges = set()
    touched = set()
    for sub in pair_draws:
        edges.add(sub)
        touched.update(sub)
    for sub in triple_draws:
        edges.update(clique_edges(sub))
        touched.update(sub)
    missing = size - len(touched)
    if missing > 0:
        rest = sorted(set(range(n)) - touched)
        idx = range(len(rest)) if missing >= len(rest) else _oracle_floyd(rng.random(missing), len(rest), missing)
        touched.update(rest[i] for i in idx)
    return edges, frozenset(touched)


def oracle_couple_feature(size, odd, n, seed):
    """``couple_feature`` on sets of edge tuples, for valid arguments."""
    rng = seed.rng() if hasattr(seed, "rng") else seed
    if size == 0:
        return SimpleGraph(n), frozenset()
    pairs = _draw_subsets(n, 2, (size - 3 * odd) // 2, rng)
    triples = _draw_subsets(n, 3, odd, rng)
    edges, members = _assemble_feature(size, n, pairs, triples, rng)
    return SimpleGraph(n, edges), members


def split_sizes(sizes):
    """(active sizes, odd flags) as Python lists: a feature of size y >= 2 is active
    and takes y mod 2 triples, a smaller one is 0 and takes nothing."""
    active = [y if y >= 2 else 0 for y in sizes.tolist()]
    return active, [y % 2 for y in active]


def oracle_run_coupling_trial(n, p, omega, seed):
    """``run_coupling_trial`` on sets of edge tuples, on the same five streams."""
    st = summary_stats(n, p, t_max=2)
    s1, s3 = st.S1, st.S3
    sqrt_s1 = math.sqrt(s1)
    rng_sizes = seed.child("sizes").rng()
    rng_pairs = seed.child("pair-stream").rng()
    rng_triples = seed.child("triple-stream").rng()
    rng_pad = seed.child("padding").rng()
    rng_po = seed.child("poisson").rng()

    active, odd = split_sizes(rng_sizes.binomial(n, p.values))
    pair_draws = sum((y - 3 * z) // 2 for y, z in zip(active, odd))
    triple_draws = sum(odd)
    mean_pairs = (s1 - 3.0 * s3 - 5.0 * omega * sqrt_s1) / 2.0
    mean_triples = s3 - 2.0 * omega * sqrt_s1
    poisson_pairs = int(rng_po.poisson(max(0.0, mean_pairs)))
    poisson_triples = int(rng_po.poisson(max(0.0, mean_triples)))
    pair_stream = _draw_subsets(n, 2, max(pair_draws, poisson_pairs), rng_pairs)
    triple_stream = _draw_subsets(n, 3, max(triple_draws, poisson_triples), rng_triples)

    rig_edges = set()
    coupled_edges = set()
    per_feature_ok = True
    pair_off = 0
    triple_off = 0
    for size, z in zip(active, odd):
        if size == 0:
            continue
        k2 = (size - 3 * z) // 2
        pairs = pair_stream[pair_off:pair_off + k2]
        triples = triple_stream[triple_off:triple_off + z]
        pair_off += k2
        triple_off += z
        edges, members = _assemble_feature(size, n, pairs, triples, rng_pad)
        feature_clique = clique_edges(members)
        per_feature_ok = per_feature_ok and edges <= feature_clique
        coupled_edges.update(edges)
        rig_edges.update(feature_clique)

    prefix_edges = set(pair_stream[:poisson_pairs])
    for sub in triple_stream[:poisson_triples]:
        prefix_edges.update(clique_edges(sub))

    sum_active = sum(active)
    guards = {
        "poisson_pairs_ok": (poisson_pairs <= pair_draws) and not mean_pairs < 0,
        "poisson_triples_ok": (poisson_triples <= triple_draws) and not mean_triples < 0,
        "size_concentration_ok": abs(sum_active - s1) <= omega * sqrt_s1,
    }
    return CouplingReport(
        contained=prefix_edges <= rig_edges,
        per_feature_contained=per_feature_ok,
        guard_events=guards,
        pair_draws=pair_draws,
        triple_draws=triple_draws,
        active_size_sum=sum_active,
        poisson_pairs=poisson_pairs,
        poisson_triples=poisson_triples,
        rig_edge_count=len(rig_edges),
        coupled_edge_count=len(coupled_edges),
        prefix_edge_count=len(prefix_edges),
        regime_infeasible=not (s3 > omega * omega * sqrt_s1),
        omega=omega,
    )


def oracle_coupon_collector_trial(n, p, omega, seed):
    """``coupon_collector_trial`` one draw at a time on the same two streams: a
    seen-flag per vertex, and a running count of the vertices seen."""
    st = summary_stats(n, p, t_max=2)
    s1 = st.S1
    slack = omega * math.sqrt(s1)
    t_minus = s1 - slack
    t_plus = s1 + slack + s1 / (omega * math.log(n))
    active, _ = split_sizes(seed.child("sizes").rng().binomial(n, p.values))
    rng_draws = seed.child("coupons").rng()

    seen = bytearray(n)
    seen_count = 0
    covered_at = -1
    total = 0
    buf, buf_pos = [], 0

    def next_draw():
        nonlocal buf, buf_pos, total, seen_count, covered_at
        if buf_pos >= len(buf):
            buf, buf_pos = rng_draws.integers(0, n, size=4096).tolist(), 0
        v = buf[buf_pos]
        buf_pos += 1
        total += 1
        if not seen[v]:
            seen[v] = 1
            seen_count += 1
            if seen_count == n and covered_at < 0:
                covered_at = total
        return v

    for size in active:
        phase = set()
        while len(phase) < size:
            phase.add(next_draw())
    construction_draws = total
    delta_ge_1 = 0 < covered_at <= construction_draws
    cap = construction_draws + 64 * n * max(1, math.ceil(math.log(max(n, 2)))) + 4096
    while covered_at < 0 and total < cap:
        next_draw()
    if covered_at < 0:
        raise CoverageNotReached(f"coupon coverage not reached within {cap} draws at n={n}")

    sum_active = sum(active)
    overhead_bound = s1 / (omega * math.log(n))
    return CollectorReport(
        total_draws=construction_draws,
        active_size_sum=sum_active,
        overhead=construction_draws - sum_active,
        covered_at=covered_at,
        events={
            "covered_within_lower": covered_at <= t_minus,
            "covered_within_upper": covered_at <= t_plus,
            "finished_in_window": t_minus <= construction_draws <= t_plus,
            "finished_within_overhead": construction_draws <= sum_active + overhead_bound,
            "sizes_concentrated": abs(sum_active - s1) <= slack,
        },
        delta_ge_1=delta_ge_1,
        t_minus=t_minus,
        t_plus=t_plus,
        omega=omega,
    )


def hypergraph_from_text(text):
    """The hypergraph of ``hypergraph_to_text``'s format, for well-formed text."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, arity, _ = map(int, rows[0])
    return UniformHypergraph(n, arity, [tuple(map(int, row)) for row in rows[1:]])


# --- the explicit-profile scaling the planner used before its array search --


def oracle_scale_explicit(n, base, s1_target):
    """Scale a base profile by a scalar (entries clipped into (0,1)) to hit S1,
    building a FeatureProbabilities at every search step and summing S1 over
    all m features."""
    top = 1.0 - 1e-12

    def stats_for(scale):
        return FeatureProbabilities(tuple(min(top, max(1e-300, scale * b)) for b in base))

    def s1_of(scale):
        return oracle_feature_sums(n, stats_for(scale).values, 2)[0]

    hi = 1.0
    while s1_of(hi) < s1_target:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfRangeError(f"explicit profile cannot reach S1 target {s1_target}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s1_of(mid) <= s1_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1e-300):
            break
    scale = 0.5 * (lo + hi)
    achieved = s1_of(scale)
    if abs(achieved - s1_target) / s1_target > 1e-8:
        raise OutOfRangeError(
            f"profile scaling residual {abs(achieved - s1_target) / s1_target:.2e} "
            f"exceeds 1e-8 for S1 target {s1_target}")
    return stats_for(scale)
