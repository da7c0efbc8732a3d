"""Independent brute-force oracles.

Everything here is deliberately naive (enumeration, exhaustive recursion,
extended-precision summation) and shares no code with the library paths it
cross-checks.
"""

import itertools
from collections import deque

import mpmath
import numpy as np


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
        u = rng.random(k)
        chosen = set()
        for j in range(k):
            t = int(u[j] * (n - k + 1 + j))
            if t in chosen:
                t = n - k + j
            chosen.add(t)
        sets.append(frozenset(chosen))
    return tuple(sets)


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
