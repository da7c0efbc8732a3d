"""Seeded samplers for every random model used by the lab.

Models:

* ``sample_rig``            -- each vertex holds feature i independently with
                               probability p_i; the projection is the
                               intersection graph.
* ``sample_h_independent``  -- arity-i hypergraph, every i-subset present
                               independently with probability ``phat``.
* ``sample_g_star``         -- M uniform draws of i-subsets with repetition,
                               duplicates collapsed.
* ``sample_g_star_poisson`` -- like ``sample_g_star`` with a Poisson number
                               of draws; distributed exactly as
                               ``sample_h_independent(n, i, 1 - exp(-lam/C(n,i)))``.

``draw_subsets`` unranks the colex ranks of one ``rng.integers`` call in
one vectorized pass, to a ``(count, i)`` int64 array of ascending rows.

The ``sample_rig`` stream, in order: one ``rng.binomial(n, p)`` call for
the m member counts k_i, then one block of uniforms in feature order, k_i
doubles for each feature with k_i < n and none for a feature with k_i = n
(it holds every vertex).  Feature i's block feeds Floyd's algorithm
(``_floyd_rows``, which the coupling padding shares): step j
takes t = floor(u_j * (n - k_i + 1 + j)), or n - k_i + j when t is taken.
PCG64 doubles come off the stream one at a time, so the block is the same
whether it is drawn in one call or in one call per feature.

Determinism contract: identical parameters and Seed give identical output on
every platform.  Streams derive from numpy's SeedSequence, whose mixing is a
fixed pure function of (entropy, spawn_key), and PCG64, whose output is part
of numpy's stability guarantee.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedArity, ValidationError
from .graphs import RigInstance, UniformHypergraph

SUPPORTED_ARITIES = (2, 3)


@dataclass(frozen=True)
class FeatureProbabilities:
    """The probability vector driving feature selection; every entry in (0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValidationError("need at least one feature probability")
        for i, v in enumerate(vals):
            if not (0.0 < v < 1.0) or math.isnan(v):
                raise ValidationError(f"p[{i}]={v} is not strictly inside (0, 1)")

    @classmethod
    def homogeneous(cls, m: int, p: float) -> "FeatureProbabilities":
        if m < 1:
            raise ValidationError(f"feature count must be positive, got {m}")
        return cls((p,) * m)

    @property
    def m(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def _encode_label(label) -> int:
    """Map a stream label to a nonnegative int for SeedSequence spawn keys.

    Strings hash through SHA-256 so the mapping is stable across runs and
    platforms (unlike builtin ``hash``).
    """
    if isinstance(label, bool):
        raise ValidationError("bool is not a valid stream label")
    if isinstance(label, int):
        if label < 0:
            raise ValidationError(f"integer labels must be nonnegative, got {label}")
        return label
    if isinstance(label, str):
        return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:16], "big")
    raise ValidationError(f"unsupported label type: {type(label).__name__}")


@dataclass(frozen=True)
class Seed:
    """Master seed plus a label path identifying a derived sub-stream.

    Distinct label paths give statistically independent streams; the
    derivation is a pure function of (master, labels).
    """

    master: int
    labels: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.master) < 2**64):
            raise ValidationError(f"master seed must be a 64-bit unsigned int, got {self.master}")
        object.__setattr__(self, "master", int(self.master))
        object.__setattr__(self, "labels", tuple(self.labels))
        for lab in self.labels:
            _encode_label(lab)

    def child(self, *labels) -> "Seed":
        return Seed(self.master, self.labels + tuple(labels))

    def spawn_key(self) -> tuple[int, ...]:
        return tuple(_encode_label(lab) for lab in self.labels)

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master, spawn_key=self.spawn_key())
        return np.random.Generator(np.random.PCG64(seq))

    def state_word(self) -> int:
        """A stable 64-bit fingerprint of this stream (for provenance columns)."""
        seq = np.random.SeedSequence(self.master, spawn_key=self.spawn_key())
        return int(seq.generate_state(1, np.uint64)[0])


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, Seed):
        return seed.rng()
    if isinstance(seed, np.random.Generator):
        return seed
    raise ValidationError(f"expected Seed or numpy Generator, got {type(seed).__name__}")


def _floyd(u: np.ndarray, n: int, k: int) -> list[int]:
    """Floyd's uniform k-subset of range(n), k < n, from k uniforms in [0, 1).

    Step j takes t = floor(u[j] * (n - k + 1 + j)), or n - k + j when t was
    already taken; the k results are distinct.
    """
    chosen: set[int] = set()
    for j in range(k):
        t = int(u[j] * (n - k + 1 + j))
        if t in chosen:
            t = n - k + j
        chosen.add(t)
    return sorted(chosen)


def _floyd_rows(counts: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """Row f is a uniform ``counts[f]``-subset of ``range(sizes[f])``, as CSR
    ``(indptr, values)`` with sorted rows; ``counts <= sizes``.

    One ``rng.random`` block feeds every row in order: ``counts[f]`` doubles
    for a row with ``counts[f] < sizes[f]`` and none for a full row.  Every
    row's Floyd candidates are computed at once, and only rows with a
    repeated candidate rerun the scalar rule ``_floyd``.
    """
    draws = np.where(counts < sizes, counts, 0)
    u = rng.random(int(draws.sum()))
    starts = np.cumsum(draws) - draws
    j = np.arange(len(u)) - np.repeat(starts, draws)
    candidates = (u * (np.repeat(sizes - draws, draws) + 1 + j)).astype(np.int64)
    width = max(int(sizes.max(initial=0)), 1)
    rows = np.arange(len(counts)) * width
    full = np.flatnonzero(draws != counts)
    fill = sizes[full]
    keys = np.concatenate((np.repeat(rows, draws) + candidates,
                           np.repeat(rows[full] - np.cumsum(fill) + fill, fill) + np.arange(fill.sum())))
    keys.sort()  # by row, then by value
    indptr = np.concatenate(([0], np.cumsum(counts)))
    values = keys % width
    # a repeated candidate is where Floyd's collision rule fires
    repeats = keys[1:] == keys[:-1]
    for f in np.unique(keys[1:][repeats] // width).tolist() if repeats.any() else ():
        values[indptr[f]:indptr[f + 1]] = _floyd(u[starts[f]:starts[f] + draws[f]],
                                                 int(sizes[f]), int(draws[f]))
    return indptr, values


def sample_rig(n: int, p: FeatureProbabilities, seed) -> RigInstance:
    """Sample a vertex-feature incidence with independent memberships.

    Each feature's member count is Binomial(n, p_i) with a uniform vertex
    subset of that size (``_floyd_rows``), which matches per-vertex
    independent membership exactly.  The stream is the one in the module
    docstring.
    """
    if n < 1:
        raise ValidationError(f"vertex count must be positive, got {n}")
    rng = _as_rng(seed)
    counts = rng.binomial(n, p.as_array())
    indptr, members = _floyd_rows(counts, np.full(p.m, n), rng)
    return RigInstance._from_arrays(n, p.m, indptr, members)


# --- i-subset draws, by colex rank sum_j C(v_j, j) of v_1 < ... < v_i -------
#
# Ranks are int64, so C(n, i) must stay below 2**63: n up to 2**32 at arity
# 2 and 3,810,779 at arity 3.  MAX_DRAWS caps one request's draws (or
# expected hyperedges): 10**7 triples are a 240 MB array.
MAX_DRAWS = 10_000_000


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


def _universe(n: int, arity: int) -> int:
    """C(n, arity), the number of subsets that int64 ranks can name."""
    if arity not in SUPPORTED_ARITIES:
        raise UnsupportedArity(f"arity {arity} not supported (choose from {SUPPORTED_ARITIES})")
    total = math.comb(n, arity) if n >= 0 else 0
    if total >= 2**63:
        raise ValidationError(f"C({n}, {arity}) subsets exceed the int64 ranks")
    return total


def draw_subsets(n: int, arity: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent uniform i-subsets (with repetition), in draw order,
    as a ``(count, arity)`` int64 array of ascending rows.

    This is the shared draw stream used by the coupling constructions: a
    prefix of the rows is distributed as a shorter run of draws.
    """
    total = _universe(n, arity)
    if not 0 <= count <= MAX_DRAWS:
        raise ValidationError(f"draw count must lie in [0, {MAX_DRAWS}] (the draw limit), got {count}")
    if count == 0:
        return np.empty((0, arity), dtype=np.int64)
    if n < arity:
        raise ValidationError(f"need at least {arity} vertices, got {n}")
    return unrank_subsets(rng.integers(0, total, size=count), n, arity)


def _hypergraph(n: int, arity: int, rows: np.ndarray) -> UniformHypergraph:
    return UniformHypergraph(n, arity, frozenset(map(tuple, rows.tolist())))


def sample_g_star(n: int, arity: int, draws: int, seed) -> UniformHypergraph:
    """Hypergraph from `draws` uniform i-subset draws with repetition, deduplicated."""
    rng = _as_rng(seed)
    return _hypergraph(n, arity, draw_subsets(n, arity, draws, rng))


def sample_g_star_poisson(n: int, arity: int, lam: float, seed) -> UniformHypergraph:
    """``sample_g_star`` with a Poisson(lam) number of draws."""
    if not 0 <= lam <= MAX_DRAWS:
        raise ValidationError(f"lambda must lie in [0, {MAX_DRAWS}] (the draw limit), got {lam}")
    rng = _as_rng(seed)
    draws = int(rng.poisson(lam))
    return _hypergraph(n, arity, draw_subsets(n, arity, draws, rng))


def _bernoulli_hit_ranks(total: int, phat: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of successes in `total` Bernoulli(phat) trials, by geometric skips.

    Runs in O(number of hits), not O(total); total can be astronomically
    large (C(n,3) at n in the thousands) as long as total*phat is moderate.
    """
    if phat <= 0.0:
        return np.empty(0, dtype=np.int64)
    if phat >= 1.0:
        return np.arange(total)
    hits = []
    pos = -1
    chunk = max(16, min(1 << 20, int(total * phat * 1.25) + 16))
    while True:
        # skips capped at total + 1 keep the uint64 sums exact up to the first
        # one past the end (a tiny phat saturates geometric at the int64 top)
        sums = np.cumsum(np.minimum(rng.geometric(phat, size=chunk).astype(np.uint64), total + 1))
        past = sums >= total - pos
        cut = int(past.argmax()) if past.any() else chunk
        hits.append(pos + sums[:cut].astype(np.int64))
        if cut < chunk:
            return np.concatenate(hits)
        pos += int(sums[-1])


def sample_h_independent(n: int, arity: int, phat: float, seed) -> UniformHypergraph:
    """Hypergraph with every i-subset present independently with probability phat."""
    total = _universe(n, arity)
    if not (0.0 <= phat <= 1.0) or math.isnan(phat):
        raise ValidationError(f"phat must lie in [0, 1], got {phat}")
    if total * phat > MAX_DRAWS:
        raise ValidationError(f"{total * phat:.3g} expected hyperedges exceed the draw limit")
    if n < arity:
        return UniformHypergraph(n, arity, frozenset())
    rng = _as_rng(seed)
    return _hypergraph(n, arity, unrank_subsets(_bernoulli_hit_ranks(total, phat, rng), n, arity))
