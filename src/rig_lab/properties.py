"""Exact and budgeted decision procedures for graph properties.

* minimum degree
* k-connectivity (vertex or edge).  Vertex mode: graph search for k = 1,
  the linear Hopcroft-Tarjan cut-vertex test for k = 2, and for k >= 3 a
  scan-first sparse certificate of at most k(n-1) edges, then Dinic
  max-flow (scipy) on its vertex-split network over the Esfahanian-Hakimi
  pair family, stopping at the first pair below k.  Edge mode and the
  exact connectivity values use the same max-flow on the whole graph.
* perfect matching, by maximum cardinality matching with blossom contraction
* Hamiltonicity, by a three-stage pipeline: exact necessary conditions,
  a rotation-extension heuristic (Yes answers only), and an exact phase
  (bitmask dynamic program for small n, pruned backtracking under a budget
  otherwise).  "No" is only ever produced by an exact argument.
* a sampled audit of neighborhood-expansion and low-degree-spacing
  properties used by the sandwich constructions
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from .errors import ValidationError
from .graphs import SimpleGraph
from .sampling import Seed, sample_subset

DEFAULT_HC_BUDGET = 200_000


def min_degree(g: SimpleGraph) -> int:
    if g.n < 1:
        raise ValidationError("min_degree needs at least one vertex")
    return min(g.degrees())


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    adj = g.adjacency()
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


# --- connectivity by max-flow ------------------------------------------------


def _unit_network(size: int, tails, heads) -> csr_array:
    """Flow network on `size` nodes with a unit-capacity arc tails[i] -> heads[i]."""
    caps = np.ones(len(tails), dtype=np.int32)
    return csr_array((caps, (tails, heads)), shape=(size, size))


def _split_network(adj: list[set[int]], n: int) -> csr_array:
    """Vertex-split digraph: v becomes 2v -> 2v+1 (its unit budget), and each
    edge {u, v} becomes the arcs 2u+1 -> 2v and 2v+1 -> 2u."""
    tails = [2 * v for v in range(n)]
    heads = [2 * v + 1 for v in range(n)]
    for u in range(n):
        for v in adj[u]:
            tails.append(2 * u + 1)
            heads.append(2 * v)
    return _unit_network(2 * n, tails, heads)


def _max_flow(net: csr_array, s: int, t: int) -> int:
    return int(maximum_flow(net, s, t).flow_value)


def _vertex_cut_family(adj: list[set[int]], n: int):
    """Pairs covering some minimum cut: a min-degree vertex against its
    non-neighbors, plus non-adjacent pairs among its neighbors."""
    deg = [len(a) for a in adj]
    v0 = min(range(n), key=deg.__getitem__)
    for u in range(n):
        if u != v0 and u not in adj[v0]:
            yield v0, u
    nbrs = sorted(adj[v0])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in adj[a]:
                yield a, b


def _scan_first_certificate(adj: list[set[int]], n: int, k: int) -> list[set[int]]:
    """Union of k scan-first (BFS) forests, forest i spanning the edges that
    forests 1..i-1 left unused.  It has at most k(n-1) edges and is
    k-vertex-connected iff the input is (Cheriyan-Kao-Thurimella, SIAM J.
    Comput. 22, 1993)."""
    rest = [set(a) for a in adj]
    cert: list[set[int]] = [set() for _ in range(n)]
    for _ in range(k):
        seen = [False] * n
        forest = []
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for w in rest[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
                        forest.append((v, w))
        for v, w in forest:
            rest[v].discard(w)
            rest[w].discard(v)
            cert[v].add(w)
            cert[w].add(v)
    return cert


def is_k_connected(g: SimpleGraph, k: int, mode: str = "vertex") -> bool:
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if mode == "vertex":
        if g.n <= k:
            return False
        if k == 1:
            return is_connected(g)
        if k == 2:
            return is_biconnected(g)
        adj = g.adjacency()
        if min(len(a) for a in adj) < k:
            return False
        cert = _scan_first_certificate(adj, g.n, k)
        net = _split_network(cert, g.n)
        return all(_max_flow(net, 2 * s + 1, 2 * t) >= k
                   for s, t in _vertex_cut_family(cert, g.n))
    if mode == "edge":
        return g.n >= 2 and edge_connectivity(g) >= k
    raise ValidationError(f"unknown mode {mode!r}")


def vertex_connectivity(g: SimpleGraph) -> int:
    """Exact vertex connectivity (n-1 for complete graphs)."""
    if g.n < 2:
        return 0
    adj = g.adjacency()
    net = _split_network(adj, g.n)
    best = g.n - 1
    for s, t in _vertex_cut_family(adj, g.n):
        best = min(best, _max_flow(net, 2 * s + 1, 2 * t))
        if best == 0:
            break
    return best


def edge_connectivity(g: SimpleGraph) -> int:
    if g.n < 2:
        return 0
    adj = g.adjacency()
    v0 = min(range(g.n), key=lambda v: len(adj[v]))
    # the undirected graph as a network with a unit arc each way per edge
    net = _unit_network(g.n, [u for u in range(g.n) for _ in adj[u]], [v for a in adj for v in a])
    best = len(adj[v0])
    for u in range(g.n):
        if u != v0:
            best = min(best, _max_flow(net, v0, u))
            if best == 0:
                break
    return best


# --- maximum matching ---------------------------------------------------------


def _find_augmenting_path(adj: list[set[int]], n: int, match: list[int], root: int) -> bool:
    """One phase of blossom search; augments the matching if a path is found."""
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
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

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]):
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
                # odd cycle: contract the blossom down to its base
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


def maximum_matching(g: SimpleGraph) -> list[int]:
    """Maximum cardinality matching; entry v holds v's partner or -1."""
    n = g.n
    adj = g.adjacency()
    match = [-1] * n
    for u, v in sorted(g.edges):  # greedy warm start
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for v in range(n):
        if match[v] == -1 and adj[v]:
            _find_augmenting_path(adj, n, match, v)
    return match


def has_perfect_matching(g: SimpleGraph) -> bool:
    if g.n % 2 == 1:
        return False
    if g.n == 0:
        return True
    deg = g.degrees()
    if min(deg) == 0:
        return False
    match = maximum_matching(g)
    return all(p != -1 for p in match)


# --- Hamiltonicity ------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonicityVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: tuple[int, ...] | None
    effort: int


def _is_hamilton_cycle(g: SimpleGraph, cycle) -> bool:
    if cycle is None or len(cycle) != g.n or len(set(cycle)) != g.n:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % g.n]) for i in range(g.n))


def _articulation_or_disconnected(adj: list[set[int]], n: int) -> bool:
    """True if the graph is disconnected or has a cut vertex (iterative Tarjan)."""
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    timer = 1
    stack: list[tuple[int, int, object]] = [(0, -1, None)]
    root_children = 0
    seen_count = 0
    while stack:
        v, parent, it = stack.pop()
        if it is None:
            visited[v] = True
            seen_count += 1
            disc[v] = low[v] = timer
            timer += 1
            it = iter(adj[v])
        else:
            # returning from a child: last pushed child w
            pass
        advanced = False
        for w in it:
            if w == parent:
                continue
            if visited[w]:
                low[v] = min(low[v], disc[w])
            else:
                stack.append((v, parent, it))
                stack.append((w, v, None))
                advanced = True
                break
        if advanced:
            continue
        # post-order for v
        if parent != -1:
            if low[v] >= disc[parent] and parent != 0:
                return True
            if parent == 0:
                root_children += 1
            low[parent] = min(low[parent], low[v])
    if seen_count != n:
        return True
    return root_children > 1


def is_biconnected(g: SimpleGraph) -> bool:
    """Exact 2-connectivity in linear time: connected, n >= 3, no cut vertex."""
    if g.n < 3:
        return False
    adj = g.adjacency()
    if min(len(a) for a in adj) < 2:
        return False
    return not _articulation_or_disconnected(adj, g.n)


def _bipartite_parts(adj: list[set[int]], n: int) -> tuple[int, int] | None:
    """Part sizes if bipartite, else None (graph assumed connected)."""
    color = [-1] * n
    color[0] = 0
    q = deque([0])
    sizes = [1, 0]
    while q:
        v = q.popleft()
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                sizes[color[w]] += 1
                q.append(w)
            elif color[w] == color[v]:
                return None
    return sizes[0], sizes[1]


def _posa_search(adj: list[list[int]], adj_sets: list[set[int]], n: int,
                 rng: np.random.Generator, budget: int) -> tuple[list[int] | None, int]:
    """Rotation-extension heuristic; returns a cycle or None.  Yes-only oracle.

    Rotations look one step ahead: pivots whose successor can still extend
    the path (or close the full cycle) are preferred, which keeps the number
    of blind rotations small on expander-like inputs.
    """
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


def _held_karp(adj_masks: list[int], n: int) -> list[int] | None:
    """Exact Hamilton cycle search via subset DP over endpoints; n <= 20."""
    full = (1 << n) - 1
    dp = [0] * (1 << n)
    first = adj_masks[0]
    while first:
        bit = first & -first
        first ^= bit
        dp[1 | bit] = bit
    for mask in range(1 << n):
        if not (mask & 1):
            continue
        ends = dp[mask]
        if not ends:
            continue
        while ends:
            vbit = ends & -ends
            ends ^= vbit
            v = vbit.bit_length() - 1
            ext = adj_masks[v] & ~mask
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                dp[mask | wbit] |= wbit
    closers = dp[full] & adj_masks[0]
    if not closers:
        return None
    cur = (closers & -closers).bit_length() - 1
    mask = full
    seq = []
    while True:
        seq.append(cur)
        pmask = mask ^ (1 << cur)
        if pmask == 1:
            break
        cands = dp[pmask] & adj_masks[cur]
        cur = (cands & -cands).bit_length() - 1
        mask = pmask
    seq.append(0)
    seq.reverse()
    return seq


def _backtrack_hc(adj: list[set[int]], n: int, start: int,
                  budget: int) -> tuple[list[int] | None, bool, int]:
    """Exhaustive pruned DFS.  Returns (cycle, completed, effort).

    completed=True with no cycle is a proof of non-Hamiltonicity; the
    prunes only discard provably dead branches.  Degree prunes run
    incrementally (only vertices whose usable cycle slots changed get
    rechecked); the connectivity prune runs periodically.
    """
    deg_order = sorted(range(n), key=lambda v: len(adj[v]))
    rank = [0] * n
    for i, v in enumerate(deg_order):
        rank[v] = i
    avail = [len(adj[v]) for v in range(n)]  # neighbors among unvisited
    visited = [False] * n
    visited[start] = True
    for w in adj[start]:
        avail[w] -= 1
    path = [start]
    iters = [iter(sorted(adj[start], key=rank.__getitem__))]
    effort = 0
    start_adj = adj[start]

    def slots(u: int, endpoint: int) -> int:
        # usable cycle slots of an unvisited u: unvisited neighbors plus the
        # current endpoint and the start vertex when adjacent
        return avail[u] + (1 if u in adj[endpoint] else 0) + (1 if u in start_adj else 0)

    def feasible(endpoint: int, prev: int) -> bool:
        remaining = n - len(path)
        if remaining == 0:
            return True
        if avail[endpoint] == 0 or avail[start] == 0:
            return False
        # only neighbors of the new and old endpoints changed their slots
        for u in adj[endpoint]:
            if not visited[u] and avail[u] + 1 + (1 if u in start_adj else 0) < 2:
                return False
        for u in adj[prev]:
            if not visited[u] and u not in adj[endpoint] and slots(u, endpoint) < 2:
                return False
        if effort % 16 == 0 or remaining <= 24:
            seen = bytearray(n)
            seen[endpoint] = 1
            stack = [endpoint]
            found = 0
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if not visited[w] and not seen[w]:
                        seen[w] = 1
                        found += 1
                        stack.append(w)
            return found == remaining
        return True

    # establish the slot invariant once at the root
    for u in range(n):
        if not visited[u] and slots(u, start) < 2:
            return None, True, effort

    while iters:
        if effort >= budget:
            return None, False, effort
        it = iters[-1]
        prev = path[-1]
        moved = False
        for w in it:
            if visited[w]:
                continue
            effort += 1
            visited[w] = True
            for x in adj[w]:
                avail[x] -= 1
            path.append(w)
            if len(path) == n:
                if start in adj[w]:
                    return path, True, effort
                # full path that does not close: undo and keep scanning
                path.pop()
                visited[w] = False
                for x in adj[w]:
                    avail[x] += 1
                continue
            if feasible(w, prev):
                iters.append(iter(sorted(adj[w], key=rank.__getitem__)))
                moved = True
                break
            path.pop()
            visited[w] = False
            for x in adj[w]:
                avail[x] += 1
        if moved:
            continue
        iters.pop()
        if len(path) > len(iters):
            v = path.pop()
            visited[v] = False
            for x in adj[v]:
                avail[x] += 1
    return None, True, effort


def hamiltonicity(g: SimpleGraph, budget: int = DEFAULT_HC_BUDGET,
                  seed: Seed | np.random.Generator | None = None) -> HamiltonicityVerdict:
    """Decide Hamiltonicity with one-sided heuristic error.

    "no" comes only from exact reasoning (degree/connectivity obstructions,
    bipartite parity, or a completed exhaustive search); the heuristic can
    only contribute "yes" with a verified certificate.  "unknown" means the
    exact search exhausted its budget.
    """
    if g.n < 3:
        raise ValidationError(f"Hamiltonicity needs at least 3 vertices, got n={g.n}")
    if budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    adj_sets = g.adjacency()
    effort = 0
    if min(len(a) for a in adj_sets) < 2:
        return HamiltonicityVerdict("no", None, effort)
    if _articulation_or_disconnected(adj_sets, g.n):
        return HamiltonicityVerdict("no", None, effort)
    parts = _bipartite_parts(adj_sets, g.n)
    if parts is not None and parts[0] != parts[1]:
        return HamiltonicityVerdict("no", None, effort)

    if isinstance(seed, Seed):
        rng = seed.rng()
    elif isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = Seed(0, ("hamiltonicity-default",)).rng()
    adj_lists = [sorted(s) for s in adj_sets]
    cycle, used = _posa_search(adj_lists, adj_sets, g.n, rng, budget // 2)
    effort += used
    if cycle is not None and _is_hamilton_cycle(g, cycle):
        return HamiltonicityVerdict("yes", tuple(cycle), effort)

    if g.n <= 20:
        adj_masks = [sum(1 << w for w in adj_sets[v]) for v in range(g.n)]
        cyc = _held_karp(adj_masks, g.n)
        if cyc is not None and _is_hamilton_cycle(g, cyc):
            return HamiltonicityVerdict("yes", tuple(cyc), effort)
        return HamiltonicityVerdict("no", None, effort)

    start = min(range(g.n), key=lambda v: len(adj_sets[v]))
    cyc, completed, used = _backtrack_hc(adj_sets, g.n, start, max(0, budget - effort))
    effort += used
    if cyc is not None and _is_hamilton_cycle(g, cyc):
        return HamiltonicityVerdict("yes", tuple(cyc), effort)
    if completed:
        return HamiltonicityVerdict("no", None, effort)
    return HamiltonicityVerdict("unknown", None, effort)


# --- structural audit ---------------------------------------------------------


@dataclass(frozen=True)
class AuditParams:
    """Knobs for the expansion/spacing audit.

    gamma bounds the sampled set sizes (n^gamma splits "small" from "large"
    sets), k scales the required expansion of high-degree sets, and
    degree_cutoff is the "low degree" threshold for the spacing check.
    """

    gamma: float
    k: int
    degree_cutoff: int
    sample_count: int

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.k < 1 or self.degree_cutoff < 1 or self.sample_count < 1:
            raise ValidationError("k, degree_cutoff and sample_count must be positive")


@dataclass(frozen=True)
class AuditCheck:
    sampled: int
    violations: int


@dataclass(frozen=True)
class AuditReport:
    expansion_double: AuditCheck
    expansion_vs_cap: AuditCheck
    high_degree_expansion: AuditCheck
    low_degree_pairs: int
    low_degree_close_pairs: int
    params: AuditParams


def _close_low_degree_pairs(adj: list[set[int]], n: int, low: list[int]) -> int:
    """Exact count of low-degree pairs at graph distance <= 5.

    Dense inputs go through boolean reachability matrices (three matrix
    products); sparse ones through truncated BFS per source.
    """
    if len(low) < 2:
        return 0
    if len(low) > 48 and n <= 4096:
        reach1 = np.zeros((n, n), dtype=np.float32)
        for v in range(n):
            reach1[v, v] = 1.0
            for w in adj[v]:
                reach1[v, w] = 1.0
        reach2 = (reach1 @ reach1 > 0).astype(np.float32)   # distance <= 2
        reach3 = (reach2 @ reach1 > 0).astype(np.float32)   # distance <= 3
        lows = np.asarray(low)
        within5 = reach2[lows] @ reach3[lows].T > 0          # 2 + 3 split
        return int(np.triu(within5, 1).sum())
    low_set = set(low)
    close = 0
    for src in low:
        dist = {src: 0}
        frontier = [src]
        for d in range(1, 6):
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
            if not frontier:
                break
        close += sum(1 for w in dist if w > src and w in low_set)
    return close


def _neighborhood_size(adj: list[set[int]], members: set[int]) -> int:
    out: set[int] = set()
    for v in members:
        out.update(adj[v])
    return len(out - members)


def _geometric_sizes(lo: int, hi: int) -> list[int]:
    if lo > hi:
        return []
    sizes = []
    s = lo
    while s < hi:
        sizes.append(s)
        s = max(s + 1, int(round(s * 2)))
    sizes.append(hi)
    return sorted(set(sizes))


def structure_audit(g: SimpleGraph, params: AuditParams, seed=None) -> AuditReport:
    """Sampled check of expansion properties plus an exact low-degree spacing check.

    Expansion checks sample `sample_count` uniform sets per geometric size
    class, so zero violations is evidence, not proof.  The spacing check
    (all pairs of degree <= degree_cutoff vertices at graph distance >= 6)
    is exact.  Note the cap 4n*ln(ln n)/ln n in the second check exceeds n
    at small n, where that check can report violations for every large set.
    """
    n = g.n
    if n < 3:
        raise ValidationError(f"audit needs at least 3 vertices, got n={n}")
    if isinstance(seed, Seed):
        rng = seed.rng()
    elif isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = Seed(0, ("audit-default",)).rng()
    adj = g.adjacency()
    deg = [len(a) for a in adj]
    n_gamma = max(1, int(math.floor(n ** params.gamma)))

    def run_check(lo: int, hi: int, ok) -> AuditCheck:
        sampled = 0
        violations = 0
        for size in _geometric_sizes(lo, hi):
            for _ in range(params.sample_count):
                members = set(sample_subset(n, size, rng))
                sampled += 1
                if not ok(members, _neighborhood_size(adj, members)):
                    violations += 1
        return AuditCheck(sampled, violations)

    double = run_check(n_gamma, n // 4, lambda s, nb: nb > 2 * len(s))
    cap = 4.0 * n * math.log(math.log(n)) / math.log(n) if n >= 3 else float(n)
    vs_cap = run_check(n_gamma, (2 * n) // 3, lambda s, nb: nb > min(len(s), cap))

    heavy = [v for v in range(n) if deg[v] >= 4 * params.k + 15]
    sampled = 0
    violations = 0
    for size in _geometric_sizes(1, n_gamma):
        if size > len(heavy):
            break
        for _ in range(params.sample_count):
            idx = sample_subset(len(heavy), size, rng)
            members = {heavy[i] for i in idx}
            sampled += 1
            if _neighborhood_size(adj, members) < 2 * params.k * len(members):
                violations += 1
    high = AuditCheck(sampled, violations)

    low = [v for v in range(n) if deg[v] <= params.degree_cutoff]
    pairs = len(low) * (len(low) - 1) // 2
    close = _close_low_degree_pairs(adj, n, low)
    return AuditReport(
        expansion_double=double,
        expansion_vs_cap=vs_cap,
        high_degree_expansion=high,
        low_degree_pairs=pairs,
        low_degree_close_pairs=close,
        params=params,
    )
