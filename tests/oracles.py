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

from rig_lab import DimensionMismatch, SimpleGraph, ValidationError, summary_stats
from rig_lab.coupling import CouplingReport, decompose_sizes


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
    v0 = min(range(n), key=lambda v: len(adj[v]))
    pairs = [(v0, u) for u in range(n) if u != v0 and u not in adj[v0]]
    nbrs = sorted(adj[v0])
    pairs += [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b not in adj[a]]
    return all(_local_vertex_connectivity(adj, n, s, t, k) >= k for s, t in pairs)


def oracle_vertex_connectivity(n, edges):
    if n < 2:
        return 0
    adj = _adj_sets(n, edges)
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            rest = set(range(n)) - set(cut)
            if len(rest) >= 2 and not connected_on(rest, adj):
                return size
    return n - 1


def oracle_edge_connectivity(n, edges):
    """Minimum crossing-edge count over all proper bipartitions."""
    if n < 2:
        return 0
    edges = list(edges)
    best = len(edges)
    for bits in range(2 ** (n - 1)):
        side = {0} | {v for v in range(1, n) if (bits >> (v - 1)) & 1}
        if len(side) == n:
            continue
        crossing = sum(1 for u, v in edges if (u in side) != (v in side))
        best = min(best, crossing)
    return best


def oracle_edge_k_connected(n, edges, k):
    if n < 2:
        return False
    return oracle_edge_connectivity(n, edges) >= k


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
    return SimpleGraph(a.n, a.edges | b.edges)


def is_subgraph(a, b):
    """Containment under the identity vertex map (no isomorphism search)."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compare graphs on {a.n} and {b.n} vertices")
    return a.edges <= b.edges


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

    dec = decompose_sizes(rng_sizes.binomial(n, p.as_array()))
    mean_pairs = (s1 - 3.0 * s3 - 5.0 * omega * sqrt_s1) / 2.0
    mean_triples = s3 - 2.0 * omega * sqrt_s1
    poisson_pairs = int(rng_po.poisson(max(0.0, mean_pairs)))
    poisson_triples = int(rng_po.poisson(max(0.0, mean_triples)))
    pair_stream = _draw_subsets(n, 2, max(dec.pair_draws, poisson_pairs), rng_pairs)
    triple_stream = _draw_subsets(n, 3, max(dec.triple_draws, poisson_triples), rng_triples)

    rig_edges = set()
    coupled_edges = set()
    per_feature_ok = True
    pair_off = 0
    triple_off = 0
    for size, odd in zip(dec.active_sizes, dec.odd_flags):
        if size == 0:
            continue
        k2 = (size - 3 * odd) // 2
        pairs = pair_stream[pair_off:pair_off + k2]
        triples = triple_stream[triple_off:triple_off + odd]
        pair_off += k2
        triple_off += odd
        edges, members = _assemble_feature(size, n, pairs, triples, rng_pad)
        feature_clique = clique_edges(members)
        per_feature_ok = per_feature_ok and edges <= feature_clique
        coupled_edges.update(edges)
        rig_edges.update(feature_clique)

    prefix_edges = set(pair_stream[:poisson_pairs])
    for sub in triple_stream[:poisson_triples]:
        prefix_edges.update(clique_edges(sub))

    sum_active = sum(dec.active_sizes)
    guards = {
        "poisson_pairs_ok": (poisson_pairs <= dec.pair_draws) and not mean_pairs < 0,
        "poisson_triples_ok": (poisson_triples <= dec.triple_draws) and not mean_triples < 0,
        "size_concentration_ok": abs(sum_active - s1) <= omega * sqrt_s1,
    }
    return CouplingReport(
        contained=prefix_edges <= rig_edges,
        per_feature_contained=per_feature_ok,
        guard_events=guards,
        pair_draws=dec.pair_draws,
        triple_draws=dec.triple_draws,
        active_size_sum=sum_active,
        poisson_pairs=poisson_pairs,
        poisson_triples=poisson_triples,
        rig_edge_count=len(rig_edges),
        coupled_edge_count=len(coupled_edges),
        prefix_edge_count=len(prefix_edges),
        regime_infeasible=not (s3 > omega * omega * sqrt_s1),
        omega=omega,
    )
