"""Immutable graph, hypergraph, and intersection-instance value types.

Vertices and features are dense 0-based integers.  A SimpleGraph is stored
once, as a symmetric CSR adjacency (``indptr``, ``indices``) with sorted,
duplicate-free rows, so equality is array equality and the upper triangle,
read row by row, is the lexicographic edge order of the text format.  The
``edges`` frozenset of (u, v) pairs with u < v is a view derived from the
arrays.  All types are frozen; operations return new values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array, csr_array, triu

from .errors import DimensionMismatch, ValidationError

Edge = tuple[int, int]


class SimpleGraph:
    """Undirected simple graph on vertices {0, ..., n-1}.

    Built from any iterable of (u, v) pairs, in either orientation and with
    repeats.  Neighbors of v are ``indices[indptr[v]:indptr[v + 1]]`` in
    increasing order; both arrays are read-only int64.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValidationError(f"self-loop at vertex {pairs[loops.argmax(), 0]}")
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            u, v = pairs[outside.argmax()]
            raise ValidationError(f"edge ({u}, {v}) invalid for n={n}")
        upper = (pairs.min(axis=1), pairs.max(axis=1))
        self._assign(coo_array((np.ones(len(pairs)), upper), shape=(n, n)))

    @classmethod
    def from_edges(cls, n: int, pairs) -> "SimpleGraph":
        """Build from an iterable of (u, v) pairs in any order."""
        return cls(n, pairs)

    @classmethod
    def _from_matrix(cls, matrix) -> "SimpleGraph":
        """Graph of the nonzero pattern above the diagonal of a square sparse matrix."""
        g = cls.__new__(cls)
        g._assign(matrix)
        return g

    def _assign(self, matrix) -> None:
        upper = triu(matrix, k=1, format="csr")
        a = (upper + upper.T).tocsr()
        a.sum_duplicates()  # sorts every row
        indptr, indices = a.indptr.astype(np.int64), a.indices.astype(np.int64)
        indptr.flags.writeable = indices.flags.writeable = False
        for name, value in (("n", a.shape[0]), ("indptr", indptr), ("indices", indices)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SimpleGraph is immutable; cannot set {name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.indices[self.indptr[u]:self.indptr[u + 1]] == v).any())

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads): every edge once in each direction, in row-major order."""
        return np.repeat(np.arange(self.n), self.degrees()), self.indices

    def edge_list(self) -> list[Edge]:
        """Every edge once as (u, v) with u < v, in lexicographic order."""
        tails, heads = self.arcs()
        upper = tails < heads
        return list(zip(tails[upper].tolist(), heads[upper].tolist()))

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edge_list())

    def adjacency(self) -> list[set[int]]:
        """Neighbor sets for O(1) membership tests, built from the CSR rows on each call."""
        ptr, flat = self.indptr.tolist(), self.indices.tolist()
        return [set(flat[ptr[v]:ptr[v + 1]]) for v in range(self.n)]

    def matrix(self) -> csr_array:
        """The adjacency as a scipy sparse array with unit entries."""
        return csr_array((np.ones(len(self.indices)), self.indices, self.indptr),
                         shape=(self.n, self.n))


@dataclass(frozen=True)
class UniformHypergraph:
    """Hypergraph whose hyperedges all have exactly `arity` vertices.

    Hyperedges are stored as sorted tuples; duplicated draws collapse to
    a single hyperedge.
    """

    n: int
    arity: int
    hyperedges: frozenset[tuple[int, ...]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {self.n}")
        if self.arity < 2:
            raise ValidationError(f"arity must be at least 2, got {self.arity}")
        canon = frozenset(tuple(sorted(h)) for h in self.hyperedges)
        object.__setattr__(self, "hyperedges", canon)
        for h in canon:
            if len(set(h)) != self.arity:
                raise ValidationError(f"hyperedge {h} does not have {self.arity} distinct vertices")
            if h[0] < 0 or h[-1] >= self.n:
                raise ValidationError(f"hyperedge {h} out of range for n={self.n}")


@dataclass(frozen=True)
class RigInstance:
    """Vertex-feature incidence: feature i is held by the vertex set feature_sets[i].

    The projected graph joins two vertices iff they share a feature.
    """

    n: int
    m: int
    feature_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValidationError("vertex and feature counts must be nonnegative")
        sets = tuple(frozenset(s) for s in self.feature_sets)
        object.__setattr__(self, "feature_sets", sets)
        if len(sets) != self.m:
            raise ValidationError(f"expected {self.m} feature sets, got {len(sets)}")
        for i, s in enumerate(sets):
            for v in s:
                if not (0 <= v < self.n):
                    raise ValidationError(f"feature {i} contains out-of-range vertex {v}")

    def features_of(self, v: int) -> frozenset[int]:
        """Inverse view: the features held by vertex v."""
        return frozenset(i for i, s in enumerate(self.feature_sets) if v in s)


def clique_edges(vertices) -> set[Edge]:
    """All unordered pairs within a vertex set, canonically ordered."""
    return set(itertools.combinations(sorted(vertices), 2))


def _clique_union(n: int, vertex_sets) -> SimpleGraph:
    """Union of the cliques on the vertex sets: the off-diagonal pattern of
    B B^T, where B is the n x len(vertex_sets) incidence."""
    sizes = [len(s) for s in vertex_sets]
    members = np.fromiter(itertools.chain.from_iterable(vertex_sets), dtype=np.int64,
                          count=sum(sizes))
    owners = np.repeat(np.arange(len(sizes)), sizes)
    incidence = csr_array((np.ones(len(members)), (members, owners)), shape=(n, len(sizes)))
    return SimpleGraph._from_matrix(incidence @ incidence.T)


def project_hypergraph(h: UniformHypergraph) -> SimpleGraph:
    """Graph whose edges are the pairs covered by at least one hyperedge."""
    return _clique_union(h.n, h.hyperedges)


def project_rig(r: RigInstance) -> SimpleGraph:
    """Intersection graph of a feature assignment: vertices sharing a feature are adjacent."""
    return _clique_union(r.n, r.feature_sets)


def union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    if a.n != b.n:
        raise DimensionMismatch(f"cannot union graphs on {a.n} and {b.n} vertices")
    return SimpleGraph(a.n, a.edges | b.edges)


def is_subgraph(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Containment under the identity vertex map (no isomorphism search)."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compare graphs on {a.n} and {b.n} vertices")
    return a.edges <= b.edges


# --- text formats -----------------------------------------------------------
#
# Edge list: first line "n m_edges", then one "u v" pair per line with
# u < v, lines sorted lexicographically.  Hypergraph format is analogous
# with the arity added to the header.


def graph_to_text(g: SimpleGraph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


def _int_row(line: str, count: int, what: str) -> list[int]:
    """The `count` integer tokens of one text line, or a ValidationError."""
    tokens = line.split()
    if len(tokens) != count:
        raise ValidationError(f"{what} needs {count} integers: {line!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValidationError(f"{what} has a non-integer token: {line!r}") from None


def graph_from_text(text: str) -> SimpleGraph:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValidationError("empty edge-list document")
    n, m_edges = _int_row(rows[0], 2, "edge-list header")
    if len(rows) - 1 != m_edges:
        raise ValidationError(f"header promises {m_edges} edges, found {len(rows) - 1}")
    pairs = []
    for ln in rows[1:]:
        u, v = _int_row(ln, 2, "edge line")
        if not u < v:
            raise ValidationError(f"edge line must satisfy u < v: {ln!r}")
        pairs.append((u, v))
    return SimpleGraph.from_edges(n, pairs)


def hypergraph_to_text(h: UniformHypergraph) -> str:
    lines = [f"{h.n} {h.arity} {len(h.hyperedges)}"]
    lines.extend(" ".join(str(v) for v in he) for he in sorted(h.hyperedges))
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> UniformHypergraph:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValidationError("empty hypergraph document")
    n, arity, count = _int_row(rows[0], 3, "hypergraph header")
    if len(rows) - 1 != count:
        raise ValidationError(f"header promises {count} hyperedges, found {len(rows) - 1}")
    hes = [tuple(_int_row(ln, arity, "hyperedge line")) for ln in rows[1:]]
    return UniformHypergraph(n, arity, frozenset(hes))
