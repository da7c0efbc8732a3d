"""Exact and budgeted decision procedures for graph properties.

* minimum degree, from the CSR row lengths of the graph
* k-connectivity, as the yes/no question kappa >= k: one breadth-first
  search from vertex 0 (``scipy.sparse.csgraph``) for k = 1, low points over
  scipy's depth-first tree for k = 2, and for k >= 3 a scan-first sparse
  certificate of at most k(n-1) edges, whose Esfahanian-Hakimi pairs share
  one Dinic max-flow (scipy) per block-diagonal network of vertex-split
  copies
* perfect matching: a cycle cover from Hopcroft-Karp on the bipartite
  double cover (scipy), then Edmonds' blossom search over CSR rows from the
  exposed vertex of each odd cycle (the greedy-plus-blossom matcher it
  replaced is ``oracle_maximum_matching`` in the tests)
* Hamiltonicity, by a three-stage pipeline: exact necessary conditions,
  a rotation-extension heuristic (Yes answers only), and an exact phase
  (bitmask dynamic program for small n, pruned backtracking under a budget
  otherwise).  "No" is only ever produced by an exact argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import (breadth_first_order, depth_first_order, dijkstra,
                                  maximum_bipartite_matching, maximum_flow)

from .errors import ValidationError
from .graphs import Edge, SimpleGraph
from .sampling import Seed, _as_rng

DEFAULT_HC_BUDGET = 200_000


def min_degree(g: SimpleGraph) -> int:
    if g.n < 1:
        raise ValidationError("min_degree needs at least one vertex")
    return int(g.degrees().min())


def is_connected(g: SimpleGraph) -> bool:
    # directed=True: the store is symmetric, and directed=False builds a transpose
    return g.n == 0 or len(breadth_first_order(g.matrix(), 0, directed=True,
                                               return_predecessors=False)) == g.n


# --- connectivity by max-flow ------------------------------------------------


_FLOW_ARC_CAP = 1 << 14  # arcs past which the pair copies go to a new flow network


def _cut_pairs(g: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Esfahanian-Hakimi pairs (s, t), which cover some minimum vertex cut
    of a non-complete graph: a min-degree vertex v0 against its non-neighbors,
    plus the non-adjacent pairs among its neighbors."""
    v0 = int(g.degrees().argmin())
    nbrs = g.indices[g.indptr[v0]:g.indptr[v0 + 1]]
    apart = np.ones(g.n, dtype=bool)
    apart[nbrs] = False
    apart[v0] = False
    far = np.flatnonzero(apart)
    a, b = np.triu_indices(len(nbrs), 1)
    a, b = nbrs[a], nbrs[b]
    tails, heads = g.arcs()
    arc_keys = tails * g.n + heads  # sorted: rows in order, each row sorted
    keys = a * g.n + b
    at = np.minimum(np.searchsorted(arc_keys, keys), len(arc_keys) - 1)
    gap = arc_keys[at] != keys
    return (np.concatenate((np.full(len(far), v0), a[gap])),
            np.concatenate((far, b[gap])))


def _scan_first_certificate(g: SimpleGraph, k: int) -> SimpleGraph:
    """Union of k scan-first (BFS) forests, forest i spanning the edges that
    forests 1..i-1 left unused.  It has at most k(n-1) edges and is
    k-vertex-connected iff the input is (Cheriyan-Kao-Thurimella, SIAM J.
    Comput. 22, 1993)."""
    rest = [set(row) for row in g.neighbor_lists()]
    cert: list[Edge] = []
    for _ in range(k):
        seen = [False] * g.n
        forest = []
        for root in range(g.n):
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
        cert += forest
    return SimpleGraph(g.n, cert)


def is_k_connected(g: SimpleGraph, k: int) -> bool:
    """Decide whether g is k-vertex-connected (kappa(g) >= k, so n > k).

    k = 1 and k = 2 are `is_connected` and `is_biconnected`.  For k >= 3 with
    min degree >= k, each pair (s, t) of the scan-first certificate's cut-pair
    family gets a copy of the certificate's vertex-split network, with an arc
    of capacity k from a super-source to 2s+1 and from 2t to a super-sink.
    The copies share one max-flow call per block-diagonal network of about
    `_FLOW_ARC_CAP` arcs, and g is k-connected iff each flow is k per copy.
    """
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if g.n <= k:
        return False
    if k == 1:
        return is_connected(g)
    if k == 2:
        return is_biconnected(g)
    if min_degree(g) < k:
        return False
    cert = _scan_first_certificate(g, k)
    sources, sinks = _cut_pairs(cert)
    # vertex split: v becomes 2v -> 2v+1 (its unit budget), edge {u, v} 2u+1 -> 2v and 2v+1 -> 2u
    arc_tails, arc_heads = cert.arcs()
    budget = 2 * np.arange(g.n)
    tails = np.concatenate((budget, 2 * arc_tails + 1))
    heads = np.concatenate((budget + 1, 2 * arc_heads))
    per_net = max(1, _FLOW_ARC_CAP // (len(tails) + 2))
    for first in range(0, len(sources), per_net):
        s, t = sources[first:first + per_net], sinks[first:first + per_net]
        offset = 2 * g.n * np.arange(len(s))
        source, sink = 2 * g.n * len(s), 2 * g.n * len(s) + 1
        net_tails = np.concatenate(((tails + offset[:, None]).ravel(),
                                    np.full(len(s), source), offset + 2 * t))
        net_heads = np.concatenate(((heads + offset[:, None]).ravel(),
                                    offset + 2 * s + 1, np.full(len(s), sink)))
        caps = np.ones(len(net_tails), dtype=np.int32)
        caps[-2 * len(s):] = k
        net = csr_array((caps, (net_tails, net_heads)), shape=(sink + 1, sink + 1))
        if maximum_flow(net, source, sink).flow_value < k * len(s):
            return False
    return True


# --- perfect matching ---------------------------------------------------------


def _augment_from(ptr: list[int], nbr: np.ndarray, mate: list[int], root: int) -> bool:
    """Edmonds' search from the exposed vertex `root`: augment `mate` in place
    along an augmenting path, or return False if there is none.  A vertex's
    CSR row is read when it is popped, and blossom bases are union-find roots,
    so a contraction touches only its own paths (Gabow, J. ACM 23, 1976)."""
    n = len(mate)
    parent = [-1] * n  # tree edge of an odd vertex; blossom edge of an even one
    even = [False] * n
    base = list(range(n))
    even[root] = True
    queue = deque([root])

    def find(v: int) -> int:
        while base[v] != v:
            base[v] = base[base[v]]
            v = base[v]
        return v

    def lca(a: int, b: int) -> int:
        a = find(a)
        path = {a}
        while mate[a] != -1:  # up to the root, the one exposed base
            a = find(parent[mate[a]])
            path.add(a)
        b = find(b)
        while b not in path:
            b = find(parent[mate[b]])
        return b

    def contract(v: int, b: int, child: int) -> None:
        # v's path down to base b joins the blossom and its odd vertices turn
        # even; the walk may cross a blossom twice, so merge after it
        merged = []
        while (bv := find(v)) != b:
            u = mate[v]
            merged += (bv, find(u))
            if not even[u]:
                even[u] = True
                queue.append(u)
            parent[v] = child
            child, v = u, parent[u]
        for x in merged:
            base[x] = b

    while queue:
        v = queue.popleft()
        for to in nbr[ptr[v]:ptr[v + 1]].tolist():
            if even[to]:
                if find(v) != find(to):
                    b = lca(v, to)
                    contract(v, b, to)
                    contract(to, b, v)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    while to != -1:  # flip the path back to the root
                        v = parent[to]
                        mate[v], mate[to], to = to, v, mate[v]
                    return True
                even[mate[to]] = True
                queue.append(mate[to])
    return False


def _perfect_matching(g: SimpleGraph) -> list[int] | None:
    """A perfect matching of g (entry v is v's partner), or None if g has none.

    Hopcroft-Karp (scipy) on the bipartite double cover either leaves a row
    unmatched, and then g has no perfect matching, or gives a permutation
    whose cycles run along edges of g.  Pairing consecutive vertices of each
    cycle exposes one vertex per odd cycle, and a search from each exposed
    vertex augments or shows that a maximum matching leaves it exposed.
    """
    cover = maximum_bipartite_matching(g.matrix(), perm_type="column")
    if (cover < 0).any():
        return None
    succ = cover.tolist()
    mate = [-1] * g.n
    seen = bytearray(g.n)
    exposed = []
    for v in range(g.n):
        while not seen[v]:
            w = succ[v]
            seen[v] = 1
            if seen[w]:  # w starts this cycle, so the cycle is odd
                exposed.append(v)
                break
            seen[w] = 1
            mate[v], mate[w] = w, v
            v = succ[w]
    ptr = g.indptr.tolist()
    for root in exposed:
        if mate[root] == -1 and not _augment_from(ptr, g.indices, mate, root):
            return None
    return mate


def has_perfect_matching(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    if g.n % 2 == 1 or min_degree(g) == 0:
        return False
    return _perfect_matching(g) is not None


# --- Hamiltonicity ------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonicityVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: tuple[int, ...] | None
    effort: int


def _is_hamilton_cycle(adj: list[set[int]], cycle) -> bool:
    n = len(adj)
    if cycle is None or len(cycle) != n or len(set(cycle)) != n:
        return False
    return all(cycle[(i + 1) % n] in adj[cycle[i]] for i in range(n))


def is_biconnected(g: SimpleGraph) -> bool:
    """Exact 2-connectivity (n >= 3, connected, no cut vertex) from low points
    over scipy's depth-first tree (Hopcroft-Tarjan, CACM 16, 1973).

    scipy's search rescans a row after each child, so every non-tree edge joins
    an ancestor to a descendant; low[v] may count the tree edge to v's parent.
    """
    n = g.n
    if n < 3 or min_degree(g) < 2:
        return False
    # directed=True: the store is symmetric, and directed=False builds a transpose
    order, parent = depth_first_order(g.matrix(), 0, directed=True, return_predecessors=True)
    if len(order) < n or np.count_nonzero(parent == 0) > 1:
        return False  # disconnected, or the root has two subtrees
    disc = np.empty(n, dtype=np.int64)
    disc[order] = np.arange(n)
    # reduceat needs every row nonempty, which min degree >= 2 guarantees
    low = np.minimum.reduceat(disc[g.indices], g.indptr[:-1]).tolist()
    disc = disc.tolist()
    parent = parent.tolist()
    for v in order[:0:-1].tolist():  # non-root vertices, children before parents
        p = parent[v]
        if p != 0:
            if low[v] >= disc[p]:
                return False  # p is a cut vertex
            low[p] = min(low[p], low[v])
    return True


def _bipartite_parts(g: SimpleGraph) -> tuple[int, int] | None:
    """Part sizes if bipartite, else None (graph assumed connected)."""
    # directed=True: the store is symmetric, and directed=False builds a transpose
    side = dijkstra(g.matrix(), directed=True, indices=0, unweighted=True).astype(np.int64) % 2
    tails, heads = g.arcs()
    if (side[tails] == side[heads]).any():
        return None
    return g.n - int(side.sum()), int(side.sum())


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
    effort = 0
    if not is_biconnected(g):
        return HamiltonicityVerdict("no", None, effort)
    parts = _bipartite_parts(g)
    if parts is not None and parts[0] != parts[1]:
        return HamiltonicityVerdict("no", None, effort)

    adj_lists = g.neighbor_lists()
    adj_sets = [set(row) for row in adj_lists]
    rng = _as_rng(Seed(0, ("hamiltonicity-default",)) if seed is None else seed)
    cycle, used = _posa_search(adj_lists, adj_sets, g.n, rng, budget // 2)
    effort += used
    if cycle is not None and _is_hamilton_cycle(adj_sets, cycle):
        return HamiltonicityVerdict("yes", tuple(cycle), effort)

    if g.n <= 20:
        adj_masks = [sum(1 << w for w in adj_sets[v]) for v in range(g.n)]
        cyc = _held_karp(adj_masks, g.n)
        if cyc is not None and _is_hamilton_cycle(adj_sets, cyc):
            return HamiltonicityVerdict("yes", tuple(cyc), effort)
        return HamiltonicityVerdict("no", None, effort)

    start = int(g.degrees().argmin())
    cyc, completed, used = _backtrack_hc(adj_sets, g.n, start, max(0, budget - effort))
    effort += used
    if cyc is not None and _is_hamilton_cycle(adj_sets, cyc):
        return HamiltonicityVerdict("yes", tuple(cyc), effort)
    if completed:
        return HamiltonicityVerdict("no", None, effort)
    return HamiltonicityVerdict("unknown", None, effort)

