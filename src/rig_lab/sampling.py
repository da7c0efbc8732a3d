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

The ``sample_rig`` stream, in order: one ``rng.binomial(n, p)`` call for
the m member counts k_i, then one block of uniforms in feature order, k_i
doubles for each feature with k_i < n and none for a feature with k_i = n
(it holds every vertex).  Feature i's block feeds Floyd's algorithm: step j
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


def sample_subset(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """Uniform k-subset of range(n) in O(k) space and draws (Floyd's algorithm)."""
    if k >= n:
        return list(range(n))
    return _floyd(rng.random(k), n, k)


def sample_rig(n: int, p: FeatureProbabilities, seed) -> RigInstance:
    """Sample a vertex-feature incidence with independent memberships.

    Each feature's member count is Binomial(n, p_i) with a uniform vertex
    subset of that size, which matches per-vertex independent membership
    exactly.  The stream is the one in the module docstring; every
    feature's Floyd candidates are computed at once, and only features with
    a repeated candidate rerun the scalar rule.
    """
    if n < 1:
        raise ValidationError(f"vertex count must be positive, got {n}")
    rng = _as_rng(seed)
    counts = rng.binomial(n, p.as_array())
    draws = np.where(counts < n, counts, 0)  # a feature holding every vertex draws nothing
    u = rng.random(int(draws.sum()))
    starts = np.cumsum(draws) - draws
    j = np.arange(len(u)) - np.repeat(starts, draws)
    candidates = (u * (n - np.repeat(draws, draws) + 1 + j)).astype(np.int64)
    full = np.flatnonzero(counts == n)
    keys = np.concatenate((np.repeat(np.arange(p.m) * n, draws) + candidates,
                           np.repeat(full * n, n) + np.tile(np.arange(n), len(full))))
    keys.sort()  # by feature, then by vertex
    indptr = np.concatenate(([0], np.cumsum(counts)))
    members = keys % n
    # a repeated candidate is where Floyd's collision rule fires
    for f in np.unique(keys[1:][keys[1:] == keys[:-1]] // n).tolist():
        members[indptr[f]:indptr[f + 1]] = _floyd(u[starts[f]:starts[f] + draws[f]], n, int(draws[f]))
    return RigInstance._from_arrays(n, p.m, indptr, members)


# --- i-subset ranking in colexicographic order ------------------------------


def subset_rank(subset: tuple[int, ...]) -> int:
    """Colex rank of a sorted vertex tuple."""
    return sum(math.comb(v, j + 1) for j, v in enumerate(subset))


def subset_unrank(rank: int, arity: int) -> tuple[int, ...]:
    """Inverse of subset_rank; valid for any n (the rank encodes the subset)."""
    if arity not in SUPPORTED_ARITIES:
        raise UnsupportedArity(f"arity {arity} not supported (choose from {SUPPORTED_ARITIES})")
    if rank < 0:
        raise ValidationError(f"rank must be nonnegative, got {rank}")
    out = []
    r = rank
    for j in range(arity, 0, -1):
        v = _max_with_comb_le(r, j)
        out.append(v)
        r -= math.comb(v, j)
    out.reverse()
    return tuple(out)


def _max_with_comb_le(r: int, j: int) -> int:
    """Largest v with C(v, j) <= r."""
    if j == 1:
        return r
    # float guess, then exact integer correction
    if j == 2:
        v = int((1 + math.isqrt(1 + 8 * r)) // 2)
    else:
        v = max(j - 1, int(round((6.0 * r) ** (1.0 / 3.0))))
    while math.comb(v + 1, j) <= r:
        v += 1
    while v >= j and math.comb(v, j) > r:
        v -= 1
    return max(v, j - 1)


def draw_subsets(n: int, arity: int, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """`count` independent uniform i-subsets (with repetition), in draw order.

    This is the shared draw stream used by the coupling constructions: a
    prefix of the returned list is distributed as a shorter run of draws.
    """
    if arity not in SUPPORTED_ARITIES:
        raise UnsupportedArity(f"arity {arity} not supported (choose from {SUPPORTED_ARITIES})")
    if count < 0:
        raise ValidationError(f"draw count must be nonnegative, got {count}")
    if count == 0:
        return []
    if n < arity:
        raise ValidationError(f"need at least {arity} vertices, got {n}")
    total = math.comb(n, arity)
    ranks = rng.integers(0, total, size=count)
    return [subset_unrank(int(r), arity) for r in ranks]


def sample_g_star(n: int, arity: int, draws: int, seed) -> UniformHypergraph:
    """Hypergraph from `draws` uniform i-subset draws with repetition, deduplicated."""
    rng = _as_rng(seed)
    hes = draw_subsets(n, arity, draws, rng)
    return UniformHypergraph(n, arity, frozenset(hes))


def sample_g_star_poisson(n: int, arity: int, lam: float, seed) -> UniformHypergraph:
    """``sample_g_star`` with a Poisson(lam) number of draws."""
    if not 0 <= lam < math.inf:
        raise ValidationError(f"lambda must be finite and nonnegative, got {lam}")
    rng = _as_rng(seed)
    draws = int(rng.poisson(lam))
    hes = draw_subsets(n, arity, draws, rng)
    return UniformHypergraph(n, arity, frozenset(hes))


def _bernoulli_hit_ranks(total: int, phat: float, rng: np.random.Generator) -> list[int]:
    """Positions of successes in `total` Bernoulli(phat) trials, by geometric skips.

    Runs in O(number of hits), not O(total); total can be astronomically
    large (C(n,3) at n in the thousands) as long as total*phat is moderate.
    """
    if phat <= 0.0:
        return []
    if phat >= 1.0:
        return list(range(total))
    hits: list[int] = []
    pos = -1
    chunk = max(16, min(1 << 20, int(total * phat * 1.25) + 16))
    while True:
        skips = rng.geometric(phat, size=chunk)
        ranks = pos + np.cumsum(skips)
        cut = int(np.searchsorted(ranks, total))
        hits.extend(int(r) for r in ranks[:cut])
        if cut < len(ranks):
            return hits
        pos = int(ranks[-1])


def sample_h_independent(n: int, arity: int, phat: float, seed) -> UniformHypergraph:
    """Hypergraph with every i-subset present independently with probability phat."""
    if arity not in SUPPORTED_ARITIES:
        raise UnsupportedArity(f"arity {arity} not supported (choose from {SUPPORTED_ARITIES})")
    if not (0.0 <= phat <= 1.0) or math.isnan(phat):
        raise ValidationError(f"phat must lie in [0, 1], got {phat}")
    if n < arity:
        return UniformHypergraph(n, arity, frozenset())
    rng = _as_rng(seed)
    total = math.comb(n, arity)
    ranks = _bernoulli_hit_ranks(total, phat, rng)
    return UniformHypergraph(n, arity, frozenset(subset_unrank(r, arity) for r in ranks))
