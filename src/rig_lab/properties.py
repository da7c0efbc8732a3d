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
* Hamiltonicity, by a three-stage pipeline: exact necessary conditions
  (2-connectivity and bipartite parity from one depth-first search), Pósa's
  rotation-extension search over the CSR rows (Yes answers only; the
  set-based search it replaced is ``oracle_posa_search`` in the tests), and
  an exact phase (bitmask dynamic program for small n, pruned backtracking
  under a budget otherwise).  "No" is only ever produced by an exact
  argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import (breadth_first_order, depth_first_order,
                                  maximum_bipartite_matching, maximum_flow)

from .errors import ValidationError
from .graphs import Edge, SimpleGraph, _has_arcs, _in_sorted
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
    gap = ~_has_arcs(g, a, b)
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


def _is_hamilton_cycle(g: SimpleGraph, cycle: list[int]) -> bool:
    """Whether `cycle` lists each vertex once and joins each vertex to the next,
    the last to the first, by edges of g, all tested in one `_has_arcs` call."""
    c = np.asarray(cycle, dtype=np.int64)
    if len(c) != g.n or not np.array_equal(np.sort(c), np.arange(g.n)):
        return False
    return bool(_has_arcs(g, c, np.roll(c, -1)).all())


def _biconnected_sides(g: SimpleGraph) -> tuple[bool, np.ndarray | None]:
    """One depth-first search from vertex 0 (scipy, n >= 1).  Returns whether g
    is 2-connected (n >= 3, connected, no cut vertex) and, if g is connected,
    each vertex's depth parity in the tree, which 2-colours g iff g is
    bipartite; None if g is disconnected.

    A cut vertex shows in low points over the tree (Hopcroft-Tarjan, CACM 16,
    1973).  scipy's search rescans a row after each child, so every non-tree
    edge joins an ancestor to a descendant; low[v] may count the tree edge to
    v's parent.
    """
    n = g.n
    # directed=True: the store is symmetric, and directed=False builds a transpose
    order, parent = depth_first_order(g.matrix(), 0, directed=True, return_predecessors=True)
    if len(order) < n:
        return False, None
    root_children = np.count_nonzero(parent == 0)
    order = order.tolist()
    parent = parent.tolist()
    side = [0] * n
    for v in order[1:]:  # parents before children
        side[v] = side[parent[v]] ^ 1
    side = np.array(side, dtype=np.int8)
    if n < 3 or root_children > 1:
        return False, side  # the root of a tree with two subtrees is a cut vertex
    disc = np.empty(n, dtype=np.int64)
    disc[order] = np.arange(n)
    # reduceat needs every row nonempty, which a connected graph on n >= 2 vertices has
    low = np.minimum.reduceat(disc[g.indices], g.indptr[:-1]).tolist()
    disc = disc.tolist()
    for v in order[:0:-1]:  # non-root vertices, children before parents
        p = parent[v]
        if p != 0:
            if low[v] >= disc[p]:
                return False, side  # p is a cut vertex
            low[p] = min(low[p], low[v])
    return True, side


def is_biconnected(g: SimpleGraph) -> bool:
    """Exact 2-connectivity: n >= 3, min degree >= 2, and one depth-first
    search from vertex 0 that reaches every vertex and finds no cut vertex."""
    return g.n >= 3 and min_degree(g) >= 2 and _biconnected_sides(g)[0]


def _bipartite_parts(g: SimpleGraph, side: np.ndarray) -> tuple[int, int] | None:
    """Part sizes if the 2-colouring `side` is proper, so g is bipartite; else
    None.  On a connected graph a spanning tree's depth parity is proper iff
    g is bipartite, since a bipartition of a connected graph is unique."""
    if (side[g.indices] == np.repeat(side, g.degrees())).any():
        return None
    ones = int(np.count_nonzero(side))
    return g.n - ones, ones


def _posa_search(g: SimpleGraph, rng: np.random.Generator,
                 budget: int) -> tuple[list[int] | None, int]:
    """Pósa's rotation-extension search; returns a cycle or None, and the
    effort spent.  Yes-only: None proves nothing.

    Each restart grows a path from a random start.  An extension appends a
    random neighbor of the end that is off the path.  With none, a rotation
    reverses the path beyond a neighbor of the end.  Rotations look one step
    ahead: pivots whose new end can still extend the path (or, on a full path,
    close the cycle) are preferred, which keeps the number of blind rotations
    small on expander-like inputs.  Rows are the sorted CSR slices, so
    candidates come in row order and each choice is one `rng.integers` over
    them; a closing edge is found by `searchsorted` on the start's row.  g has
    no isolated vertex (`hamiltonicity` runs the search on 2-connected graphs).
    """
    n = g.n
    ptr, indices = g.indptr.tolist(), g.indices
    degrees = g.degrees()
    effort = 0
    max_restarts = 20 * n
    rot_cap = n * n
    stall_cap = 8 * n + 64
    for _ in range(max_restarts):
        if effort >= budget:
            break
        start = e = int(rng.integers(n))
        pos = np.full(n, -1, dtype=np.int64)
        off_path = np.ones(n, dtype=bool)  # pos < 0, kept so that a row masks by one gather
        path = np.empty(n, dtype=np.int64)
        pos[start] = 0
        off_path[start] = False
        path[0] = start
        length = 1
        out_deg = degrees.copy()  # neighbors off the path
        out_deg[indices[ptr[start]:ptr[start + 1]]] -= 1
        rotations = 0
        stalled = 0
        while rotations < rot_cap and stalled < stall_cap and effort < budget:
            effort += 1
            row = indices[ptr[e]:ptr[e + 1]]
            fresh = row[off_path[row]]
            if len(fresh):
                e = int(fresh[rng.integers(len(fresh))])
                pos[e] = length
                off_path[e] = False
                path[length] = e
                length += 1
                out_deg[indices[ptr[e]:ptr[e + 1]]] -= 1
                stalled = 0
                continue
            full = length == n
            start = int(path[0])
            start_row = indices[ptr[start]:ptr[start + 1]]
            if _in_sorted(start_row, e):
                if full:
                    return path.tolist(), effort
                # short cycle: re-open it at a vertex with an outside neighbor
                outside = np.flatnonzero(out_deg[path[:length]] > 0)
                if not len(outside):
                    break  # the path's component is exhausted
                cut = int(outside[0]) + 1
                path[:length] = np.concatenate((path[cut:length], path[:cut]))
                pos[path[:length]] = np.arange(length)
                e = int(path[length - 1])
                rotations += 1
                effort += 1
                stalled = 0
                continue
            if full and rng.integers(2):
                # work the other endpoint while hunting for the closing edge
                path = path[::-1].copy()
                pos[path] = np.arange(n)
                e = int(path[-1])
                row = indices[ptr[e]:ptr[e + 1]]
                start = int(path[0])
                start_row = indices[ptr[start]:ptr[start + 1]]
            # pivots: path positions of e's neighbors (all on the path here) but its predecessor's
            pivots = pos[row]
            pivots = pivots[pivots < length - 2]
            nexts = path[pivots + 1]
            good = out_deg[nexts] > 0
            if full and len(closing := pivots[~good & _in_sorted(start_row, nexts)]):
                best = closing[-1]
            elif good.any():
                goods = pivots[good]
                best = goods[rng.integers(len(goods))]
            elif len(pivots):
                best = pivots[rng.integers(len(pivots))]
            else:
                break
            best = int(best) + 1
            path[best:length] = path[best:length][::-1].copy()
            pos[path[best:length]] = np.arange(best, length)
            e = int(path[length - 1])
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
    prunes only discard provably dead branches.  At min degree >= 2 every
    vertex starts with two usable cycle slots, and degree prunes run
    incrementally (only vertices whose slots changed get rechecked); the
    connectivity prune runs periodically.
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

    One depth-first search decides 2-connectivity and 2-colours the graph for
    the parity test.  Pósa's search (half the budget) runs on the CSR rows,
    and every cycle is checked by bisecting the sorted rows.  Only the exact
    phase builds per-vertex neighbor sets or bitmasks.
    """
    if g.n < 3:
        raise ValidationError(f"Hamiltonicity needs at least 3 vertices, got n={g.n}")
    if budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    no = HamiltonicityVerdict("no", None, 0)
    if min_degree(g) < 2:
        return no
    biconnected, side = _biconnected_sides(g)
    if not biconnected:
        return no
    parts = _bipartite_parts(g, side)
    if parts is not None and parts[0] != parts[1]:
        return no

    rng = _as_rng(Seed(0, ("hamiltonicity-default",)) if seed is None else seed)
    cycle, effort = _posa_search(g, rng, budget // 2)
    if cycle is not None and _is_hamilton_cycle(g, cycle):
        return HamiltonicityVerdict("yes", tuple(cycle), effort)

    if g.n <= 20:
        adj_masks = [sum(1 << w for w in row) for row in g.neighbor_lists()]
        cyc = _held_karp(adj_masks, g.n)
        if cyc is not None and _is_hamilton_cycle(g, cyc):
            return HamiltonicityVerdict("yes", tuple(cyc), effort)
        return HamiltonicityVerdict("no", None, effort)

    adj_sets = [set(row) for row in g.neighbor_lists()]
    start = int(g.degrees().argmin())
    cyc, completed, used = _backtrack_hc(adj_sets, g.n, start, max(0, budget - effort))
    effort += used
    if cyc is not None and _is_hamilton_cycle(g, cyc):
        return HamiltonicityVerdict("yes", tuple(cyc), effort)
    if completed:
        return HamiltonicityVerdict("no", None, effort)
    return HamiltonicityVerdict("unknown", None, effort)
