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

``draw_ranks`` draws colex ranks with one ``rng.integers`` call; the
hypergraphs keep them, and ``draw_subsets`` unranks them to ascending rows.

The ``sample_rig`` stream, in order: one ``rng.binomial(n, p)`` call for
the m member counts k_i, then one block of uniforms in feature order, k_i
doubles for each feature with k_i < n and none for a feature with k_i = n
(it holds every vertex).  Feature i's block feeds Floyd's algorithm
(``_floyd_rows``, which the coupling padding shares): step j
takes t = floor(u_j * (n - k_i + 1 + j)), or n - k_i + j when t is taken.
The candidates t of every feature are computed at once, and the collision
rule runs at once on every feature with a repeated candidate (its scalar
form, one step at a time, is the tests' ``_oracle_floyd``).
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

from .errors import ValidationError
from .graphs import (RigInstance, UniformHypergraph, _ArrayValue, _check_key_range, _universe,
                     unrank_subsets)


class FeatureProbabilities(_ArrayValue):
    """The probability vector driving feature selection: ``values`` is one
    read-only float64 array of m >= 1 entries, each strictly inside (0, 1)."""

    __slots__ = ("values",)

    def __init__(self, values):
        try:
            vals = np.array(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("feature probabilities must be numbers") from None
        if vals.ndim != 1 or len(vals) < 1:
            raise ValidationError(f"need a nonempty vector of probabilities, got shape {vals.shape}")
        outside = ~((0.0 < vals) & (vals < 1.0))  # NaN fails both comparisons
        if outside.any():
            i = int(outside.argmax())
            raise ValidationError(f"p[{i}]={float(vals[i])} is not strictly inside (0, 1)")
        self._set_fields(values=vals)

    @classmethod
    def homogeneous(cls, m: int, p: float) -> "FeatureProbabilities":
        if m < 1:
            raise ValidationError(f"feature count must be positive, got {m}")
        try:
            values = np.full(m, p, dtype=np.float64)
        except (OverflowError, ValueError):  # a count or a number past numpy's range
            raise ValidationError(f"{m} feature probabilities of {p} do not fit a float64 array"
                                  ) from None
        return cls(values)

    @property
    def m(self) -> int:
        return len(self.values)


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


def _floyd_rows(counts: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray]:
    """Row f is a uniform ``counts[f]``-subset of ``range(sizes[f])``, as CSR
    ``(indptr, values)`` with sorted rows; ``counts <= sizes``.

    One ``rng.random`` block feeds every row in order: ``counts[f]`` doubles
    for a row with ``counts[f] < sizes[f]`` and none for a full row.  Every
    row's Floyd candidates are computed at once; only rows with a repeated
    candidate apply the collision rule, all of them at once.
    """
    draws = np.where(counts < sizes, counts, 0)
    u = rng.random(int(draws.sum()))
    starts = np.cumsum(draws) - draws
    # step j of a row with k draws takes floor(u_j * top), top = size - k + j + 1, or
    # its spare top - 1 when that is taken
    tops = np.repeat(sizes - draws + 1 - starts, draws) + np.arange(len(u))
    width = max(int(sizes.max(initial=0)), 1)
    rows = np.arange(len(counts)) * width
    candidates = np.repeat(rows, draws) + (u * tops).astype(np.int64)
    full = np.flatnonzero(draws != counts)
    fill = sizes[full]
    keys = np.concatenate((candidates,
                           np.repeat(rows[full] - np.cumsum(fill) + fill, fill) + np.arange(fill.sum())))
    keys.sort()  # by row, then by value
    indptr = np.concatenate(([0], np.cumsum(counts)))
    values = keys % width
    repeats = keys[1:] == keys[:-1]
    if repeats.any():
        bad = np.zeros(len(counts), dtype=bool)
        bad[keys[1:][repeats] // width] = True
        in_bad = np.repeat(bad, draws)
        _collide(values, indptr, np.flatnonzero(bad), candidates[in_bad], tops[in_bad], width)
    return indptr, values


def _collide(values: np.ndarray, indptr: np.ndarray, bad: np.ndarray, candidates: np.ndarray,
             tops: np.ndarray, width: int) -> None:
    """Floyd's collision rule on rows ``bad``, written into their CSR ``values``:
    their candidates' keys ``row * width + value`` and their steps' tops are in
    draw order.  A step takes its spare, top - 1, iff its candidate repeats an
    earlier one in its row or equals the spare an earlier step took.  That
    test reads only earlier steps (a spare exceeds every earlier step's value),
    so the steps that take their spares are its least fixed point, grown from
    the repeats."""
    spares = candidates - candidates % width + tops - 1
    order = np.argsort(candidates, kind="stable")
    repeated = candidates[order[1:]] == candidates[order[:-1]]
    spare = np.zeros(len(candidates), dtype=bool)
    spare[order[1:][repeated]] = True
    while True:
        grown = spare | np.isin(candidates, spares[spare])
        if grown.sum() == spare.sum():
            break
        spare = grown
    sizes = indptr[bad + 1] - indptr[bad]
    at = np.repeat(indptr[bad] - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    values[at] = np.sort(np.where(spare, spares, candidates)) % width


def sample_rig(n: int, p: FeatureProbabilities, seed) -> RigInstance:
    """Sample a vertex-feature incidence with independent memberships.

    Each feature's member count is Binomial(n, p_i) with a uniform vertex
    subset of that size (``_floyd_rows``), which matches per-vertex
    independent membership exactly.  The stream is the one in the module
    docstring.
    """
    if n < 1:
        raise ValidationError(f"vertex count must be positive, got {n}")
    _check_key_range(n, p.m)
    rng = _as_rng(seed)
    counts = rng.binomial(n, p.values)
    indptr, members = _floyd_rows(counts, np.full(p.m, n), rng)
    return RigInstance._wrap(n, p.m, indptr, members)


# MAX_DRAWS caps one request's draws (or expected hyperedges): 10**7 triples
# are a 240 MB array.
MAX_DRAWS = 10_000_000


def draw_ranks(n: int, arity: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The colex ranks of `count` independent uniform i-subsets (with
    repetition), in draw order, from one ``rng.integers`` call."""
    total = _universe(n, arity)
    if not 0 <= count <= MAX_DRAWS:
        raise ValidationError(f"draw count must lie in [0, {MAX_DRAWS}] (the draw limit), got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if n < arity:
        raise ValidationError(f"need at least {arity} vertices, got {n}")
    return rng.integers(0, total, size=count)


def draw_subsets(n: int, arity: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent uniform i-subsets (with repetition), in draw order,
    as a ``(count, arity)`` int64 array of ascending rows.

    This is the shared draw stream used by the coupling constructions: a
    prefix of the rows is distributed as a shorter run of draws.
    """
    return unrank_subsets(draw_ranks(n, arity, count, rng), n, arity)


def sample_g_star(n: int, arity: int, draws: int, seed) -> UniformHypergraph:
    """Hypergraph from `draws` uniform i-subset draws with repetition, deduplicated."""
    rng = _as_rng(seed)
    return UniformHypergraph._from_ranks(n, arity, draw_ranks(n, arity, draws, rng))


def sample_g_star_poisson(n: int, arity: int, lam: float, seed) -> UniformHypergraph:
    """``sample_g_star`` with a Poisson(lam) number of draws."""
    if not 0 <= lam <= MAX_DRAWS:
        raise ValidationError(f"lambda must lie in [0, {MAX_DRAWS}] (the draw limit), got {lam}")
    rng = _as_rng(seed)
    return sample_g_star(n, arity, int(rng.poisson(lam)), rng)


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
        return UniformHypergraph(n, arity)
    rng = _as_rng(seed)
    return UniformHypergraph._from_ranks(n, arity, _bernoulli_hit_ranks(total, phat, rng))
