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
``searchsorted``.  A UniformHypergraph is the sorted colex ranks of its
hyperedges.  All types are frozen and pickle; operations return new values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import csr_array

from .errors import UnsupportedArity, ValidationError

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

    @classmethod
    def _wrap(cls, *values):
        """A value holding ``values``, one per slot in order, unchecked."""
        value = cls.__new__(cls)
        value._set_fields(**dict(zip(cls.__slots__, values)))
        return value

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return self._wrap, self._fields()

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


def _in_sorted(keys: np.ndarray, values):
    """Whether each of `values` (an int or an int array) is in the sorted
    array `keys`, by `searchsorted`; False throughout when `keys` is empty."""
    if not len(keys):
        return np.zeros(np.shape(values), dtype=bool)
    at = np.minimum(keys.searchsorted(values), len(keys) - 1)
    return keys[at] == values


def _sorted_rows(keys: np.ndarray, width: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, columns)`` of ``rows`` sorted, duplicate-free rows, both
    int64, from int32 or int64 keys ``row * width + column`` in any order."""
    return _cut_rows(_unique_keys(keys), width, rows)


def _cut_rows(keys: np.ndarray, width: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``_sorted_rows`` of keys that are already sorted and distinct."""
    return (np.searchsorted(keys, np.arange(rows + 1, dtype=keys.dtype) * width),
            (keys % max(width, 1)).astype(np.int64, copy=False))


def _vertex_rows(collections, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, vertices) of an iterable of vertex collections: the size of each,
    and all their members in order as one int64 array of integers in range(n)."""
    try:
        rows = [list(s) for s in collections]
        flat = np.array(list(itertools.chain.from_iterable(rows)))
    except (TypeError, ValueError):
        raise ValidationError(f"each {what} must be a collection of vertices") from None
    if flat.size and (flat.dtype.kind not in "iu" or flat.ndim != 1):
        raise ValidationError(f"{what} members must be integers")
    sizes = np.array([len(row) for row in rows], dtype=np.int64)
    outside = (flat < 0) | (flat >= n)
    if outside.any():
        i = outside.argmax()
        owner = np.searchsorted(np.cumsum(sizes), i, side="right")
        raise ValidationError(f"{what} {owner} contains out-of-range vertex {flat[i]}")
    return sizes, flat.astype(np.int64)


def _check_key_range(n: int, m: int = 0) -> None:
    """ValidationError unless the int64 keys ``u * n + v`` of n vertices and
    ``f * n + v`` of m features stay below 2**63."""
    if n * max(n, m) >= 2**63:
        raise ValidationError(f"{n} vertices and {m} features are too many: keys u * n + v "
                              f"and f * n + v need n * max(n, m) < 2**63")


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
        _check_key_range(n)
        try:
            pairs = np.array(list(edges))
        except ValueError:  # ragged rows
            raise ValidationError("each edge must be a pair of vertices") from None
        if pairs.shape != (0,) and (pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,)):
            raise ValidationError("each edge must be a pair of integer vertices")
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
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
        return cls._wrap(n, *_sorted_rows(keys, n, n))

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
        sizes, flat = _vertex_rows(feature_sets, n, "feature")
        if len(sizes) != m:
            raise ValidationError(f"expected {m} feature sets, got {len(sizes)}")
        indptr, members = _sorted_rows(np.repeat(np.arange(m), sizes) * n + flat, n, m)
        self._set_fields(n=n, m=m, indptr=indptr, members=members)

    @property
    def feature_sets(self) -> tuple[frozenset[int], ...]:
        """The vertex set of each feature, derived from the arrays."""
        ptr, flat = self.indptr.tolist(), self.members.tolist()
        return tuple(frozenset(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


# --- i-subsets by colex rank sum_j C(v_j, j) of v_1 < ... < v_i -------------
#
# Ranks are int64, so C(n, i) must stay below 2**63: n up to 2**32 at arity
# 2 and 3,810,779 at arity 3.


def _universe(n: int, arity: int) -> int:
    """C(n, arity), the number of subsets that int64 ranks can name."""
    if arity not in (2, 3):
        raise UnsupportedArity(f"arity {arity} not supported (choose from (2, 3))")
    total = math.comb(n, arity) if n >= 0 else 0
    if total >= 2**63:
        raise ValidationError(f"C({n}, {arity}) subsets exceed the int64 ranks")
    return total


def _comb(v: np.ndarray, j: int) -> np.ndarray:
    """C(v, j) for j in {2, 3}, elementwise, exact while C(v, j) < 2**63:
    v(v - 1) is formed in uint64 (v <= 2**32), and C(v, 3) as
    q(v - 2) + s(v - 2)/3 with C(v, 2) = 3q + s, so no product exceeds it."""
    u = v.view(np.uint64)
    c2 = ((u * (u - 1)) >> 1).view(np.int64)
    if j == 2:
        return c2
    q, s = np.divmod(c2, 3)
    return q * (v - 2) + s * (v - 2) // 3


def _max_comb_le(r: np.ndarray, j: int, hi) -> np.ndarray:
    """Largest v <= hi with C(v, j) <= r, elementwise, for r < C(hi + 1, j).

    The float guess is within one of v: floor(sqrt(2r + 1/4) + 1/2) is v in
    real arithmetic, and cbrt(6r) + 1 lies in (v - 1, v].  One exact step
    up and one down correct it.
    """
    guess = np.sqrt(2.0 * r + 0.25) + 0.5 if j == 2 else np.cbrt(6.0 * r) + 1.0
    v = np.minimum(guess.astype(np.int64), hi)
    v += _comb(v + 1, j) <= r
    return v - (_comb(v, j) > r)


def unrank_subsets(ranks: np.ndarray, n: int, arity: int) -> np.ndarray:
    """The ``(len(ranks), arity)`` ascending vertex rows with the given colex
    ranks, each below C(n, arity) < 2**63."""
    r = np.asarray(ranks, dtype=np.int64)
    rows = np.empty((len(r), arity), dtype=np.int64)
    hi = n - 1
    for j in range(arity, 1, -1):
        v = _max_comb_le(r, j, hi)
        rows[:, j - 1] = v
        r, hi = r - _comb(v, j), v - 1
    rows[:, 0] = r
    return rows


def rank_subsets(rows: np.ndarray) -> np.ndarray:
    """The colex ranks of ascending int64 vertex rows of width 2 or 3, the
    inverse of ``unrank_subsets``."""
    return rows[:, 0] + sum(_comb(rows[:, j - 1], j) for j in range(2, rows.shape[1] + 1))


class UniformHypergraph(_ArrayValue):
    """Hypergraph on vertices {0, ..., n-1} whose hyperedges all have exactly
    `arity` vertices, for arity 2 or 3.

    Built from any iterable of vertex collections; repeated hyperedges
    collapse to one.  Stored once, as ``ranks``: the sorted, distinct colex
    ranks of the hyperedges (read-only int64).  ``rows()`` unranks them.
    """

    __slots__ = ("n", "arity", "ranks")

    def __init__(self, n: int, arity: int, hyperedges=()):
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        _universe(n, arity)
        sizes, flat = _vertex_rows(hyperedges, n, "hyperedge")
        if (sizes != arity).any():
            bad = (sizes != arity).argmax()
            raise ValidationError(f"hyperedge {bad} does not have {arity} vertices")
        edges = np.sort(flat.reshape(-1, arity), axis=1)
        repeats = (edges[:, 1:] == edges[:, :-1]).any(axis=1)
        if repeats.any():
            raise ValidationError(f"hyperedge {repeats.argmax()} repeats a vertex")
        self._set_fields(n=n, arity=arity, ranks=_unique_keys(rank_subsets(edges)))

    @classmethod
    def _from_ranks(cls, n: int, arity: int, ranks: np.ndarray) -> "UniformHypergraph":
        """Hypergraph of int64 colex ranks below C(n, arity), in any order, repeats allowed."""
        return cls._wrap(n, arity, _unique_keys(ranks))

    def rows(self) -> np.ndarray:
        """The hyperedges as ascending vertex rows, in rank order."""
        return unrank_subsets(self.ranks, self.n, self.arity)


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
    members = h.rows().reshape(-1)
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
    rows = h.rows()
    lines = [f"{h.n} {h.arity} {len(rows)}"]
    lexicographic = rows[np.lexsort(rows.T[::-1])].tolist()
    lines.extend(" ".join(map(str, he)) for he in lexicographic)
    return "\n".join(lines) + "\n"
