"""Immutable graph, hypergraph, and intersection-instance value types.

Vertices and features are dense 0-based integers.  A SimpleGraph is stored
once, as a symmetric CSR adjacency (``indptr``, ``indices``) with sorted,
duplicate-free rows, so equality is array equality and the upper triangle,
read row by row, is the lexicographic edge order of the text format.  A
RigInstance is stored the same way, as feature offsets (``indptr``) into
one array of sorted member rows, and projected by sorting the keys
``u * n + v`` of all clique pairs, one feature size at a time.  The
constructors and the projection build rows with ``_sorted_rows``: sort
integer keys ``row * width + column``, mask repeats, and cut the rows by
``searchsorted``.  All types are frozen; operations return new values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import ValidationError

Edge = tuple[int, int]


class _ArrayValue:
    """An immutable value whose ``__slots__`` fields are ints and read-only
    arrays; equality and hashing compare every field."""

    __slots__ = ()

    def _set_fields(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._fields(), other._fields()))

    def __hash__(self) -> int:
        return hash(tuple(np.asarray(value).tobytes() for value in self._fields()))


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, sorted (sort, then mask repeats)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _sorted_rows(keys: np.ndarray, width: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, columns)`` of ``rows`` sorted, duplicate-free rows, both
    int64, from int32 or int64 keys ``row * width + column`` in any order."""
    keys = _unique_keys(keys)
    return (np.searchsorted(keys, np.arange(rows + 1, dtype=keys.dtype) * width),
            (keys % max(width, 1)).astype(np.int64, copy=False))


class SimpleGraph(_ArrayValue):
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
        u, v = pairs.T
        indptr, indices = _sorted_rows(np.concatenate((u * n + v, v * n + u)), n, n)
        self._set_fields(n=n, indptr=indptr, indices=indices)

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "SimpleGraph":
        """Graph of arc keys ``u * n + v``: both orientations, no loops, any order."""
        g = cls.__new__(cls)
        indptr, indices = _sorted_rows(keys, n, n)
        g._set_fields(n=n, indptr=indptr, indices=indices)
        return g

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads): every edge once in each direction, in row-major order."""
        return np.repeat(np.arange(self.n), self.degrees()), self.indices

    def edge_list(self) -> list[Edge]:
        """Every edge once as (u, v) with u < v, in lexicographic order."""
        tails, heads = self.arcs()
        upper = tails < heads
        return list(zip(tails[upper].tolist(), heads[upper].tolist()))

    def neighbor_lists(self) -> list[list[int]]:
        """Sorted neighbor lists, sliced from the CSR rows on each call."""
        ptr, flat = self.indptr.tolist(), self.indices.tolist()
        return [flat[ptr[v]:ptr[v + 1]] for v in range(self.n)]

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


class RigInstance(_ArrayValue):
    """Vertex-feature incidence: feature i is held by the vertices
    ``members[indptr[i]:indptr[i + 1]]``, a sorted, duplicate-free row.

    Built from any iterable of m vertex collections; both arrays are
    read-only int64.  The projected graph joins two vertices iff they share
    a feature.
    """

    __slots__ = ("n", "m", "indptr", "members")

    def __init__(self, n: int, m: int, feature_sets):
        if n < 0 or m < 0:
            raise ValidationError("vertex and feature counts must be nonnegative")
        try:
            rows = [list(s) for s in feature_sets]
        except TypeError:
            raise ValidationError("feature sets must be collections of vertices") from None
        if len(rows) != m:
            raise ValidationError(f"expected {m} feature sets, got {len(rows)}")
        flat = np.array(list(itertools.chain.from_iterable(rows)))
        if flat.size and (flat.dtype.kind not in "iu" or flat.ndim != 1):
            raise ValidationError("feature members must be integers")
        owners = np.repeat(np.arange(m), [len(row) for row in rows])
        outside = (flat < 0) | (flat >= n)
        if outside.any():
            i = outside.argmax()
            raise ValidationError(f"feature {owners[i]} contains out-of-range vertex {flat[i]}")
        indptr, members = _sorted_rows(owners * n + flat.astype(np.int64), n, m)
        self._set_fields(n=n, m=m, indptr=indptr, members=members)

    @classmethod
    def _from_arrays(cls, n: int, m: int, indptr: np.ndarray, members: np.ndarray) -> "RigInstance":
        """Wrap int64 arrays that already hold sorted, duplicate-free, in-range rows."""
        r = cls.__new__(cls)
        r._set_fields(n=n, m=m, indptr=indptr, members=members)
        return r

    @property
    def feature_sets(self) -> tuple[frozenset[int], ...]:
        """The vertex set of each feature, derived from the arrays."""
        ptr, flat = self.indptr.tolist(), self.members.tolist()
        return tuple(frozenset(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


_KEY_CAP = 1 << 19  # pending clique-pair keys past which projection folds them


def _clique_union(n: int, indptr: np.ndarray, members: np.ndarray) -> SimpleGraph:
    """Union of the cliques on the rows ``members[indptr[i]:indptr[i + 1]]``:
    keys ``u * n + v`` off the diagonal of an s x s grid per row of size s, in
    blocks of rows with at most ``_KEY_CAP`` keys, or of one row whose clique
    passes it.  Pending keys fold into the distinct ones once they pass the cap
    and the distinct count, so memory stays within a few caps and edge sets."""
    sizes = np.diff(indptr)
    # int32 keys, where n * n fits, halve the memory that the sorts move
    members = members.astype(np.int32 if n * n < 2**31 else np.int64, copy=False)
    distinct, pending = np.empty(0, dtype=members.dtype), []
    for s in np.unique(sizes[sizes > 1]).tolist():
        rows = members[indptr[:-1][sizes == s, None] + np.arange(s)]  # (count, s)
        off, step = ~np.eye(s, dtype=bool), max(1, _KEY_CAP // (s * s))
        for f in range(0, len(rows), step):
            block = rows[f:f + step]
            pending.append((block[:, :, None] * n + block[:, None, :])[:, off].ravel())
            if sum(map(len, pending)) > max(_KEY_CAP, len(distinct)):
                distinct, pending = _unique_keys(np.concatenate([distinct, *pending])), []
    return SimpleGraph._from_keys(n, np.concatenate([distinct, *pending]))


def project_hypergraph(h: UniformHypergraph) -> SimpleGraph:
    """Graph whose edges are the pairs covered by at least one hyperedge."""
    members = np.array(list(h.hyperedges), dtype=np.int64).reshape(-1)
    return _clique_union(h.n, np.arange(0, len(members) + 1, h.arity), members)


def project_rig(r: RigInstance) -> SimpleGraph:
    """Intersection graph of a feature assignment: vertices sharing a feature are adjacent."""
    return _clique_union(r.n, r.indptr, r.members)


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
    g = SimpleGraph(n, pairs)
    if g.edge_count() != m_edges:
        raise ValidationError(f"header promises {m_edges} edges, found {g.edge_count()} distinct")
    return g


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
    h = UniformHypergraph(n, arity, frozenset(hes))
    if len(h.hyperedges) != count:
        raise ValidationError(f"header promises {count} hyperedges, "
                              f"found {len(h.hyperedges)} distinct")
    return h
