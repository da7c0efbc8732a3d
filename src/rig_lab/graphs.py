"""Immutable graph, hypergraph, and intersection-instance value types.

Vertices and features are dense 0-based integers.  Edges are stored
canonically (smaller endpoint first) so that equality is plain set
equality and serialization is deterministic.  All types are frozen;
operations return new values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DimensionMismatch, ValidationError

Edge = tuple[int, int]


def _canon_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValidationError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices {0, ..., n-1}."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge ({u}, {v}) invalid for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "SimpleGraph":
        """Build from an iterable of (u, v) pairs in any order."""
        return cls(n, frozenset(_canon_edge(u, v) for u, v in pairs))

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _canon_edge(u, v) in self.edges

    def adjacency(self) -> list[set[int]]:
        """Adjacency sets, rebuilt on each call (the graph itself stays frozen)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


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


def project_hypergraph(h: UniformHypergraph) -> SimpleGraph:
    """Graph whose edges are the pairs covered by at least one hyperedge."""
    edges: set[Edge] = set()
    for he in h.hyperedges:
        edges.update(itertools.combinations(he, 2))
    return SimpleGraph(h.n, frozenset(edges))


def project_rig(r: RigInstance) -> SimpleGraph:
    """Intersection graph of a feature assignment: the union of cliques on the feature sets."""
    edges: set[Edge] = set()
    for s in r.feature_sets:
        if len(s) >= 2:
            edges.update(clique_edges(s))
    return SimpleGraph(r.n, frozenset(edges))


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
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
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
