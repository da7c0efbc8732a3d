"""Executable coupling constructions.

Three experiments, each reproducible from a Seed:

* ``run_coupling_trial`` rebuilds an intersection graph feature by feature
  from shared uniform draw streams.  Every feature's coupled graph sits
  inside the clique on its reconstructed feature set by construction, and
  Poisson-count prefixes of the same streams yield the sandwich graph whose
  containment is certified whenever the guard events hold.  Its five
  streams are children of its Seed: ``sizes`` (one binomial call),
  ``pair-stream`` and ``triple-stream`` (one ``draw_subsets`` call each),
  ``padding`` (one block of uniforms for Floyd's rule, in feature order)
  and ``poisson`` (the pair count, then the triple count).  The rebuilt
  features are a RigInstance projected by ``project_rig``; edges and
  memberships are sorted int64 keys, compared by ``searchsorted``.

* ``coupon_collector_trial`` couples the construction with a coupon
  collector process: feature sets are the distinct vertices seen in
  per-feature phases of uniform draws, so full coverage of the coupon set
  is literally the event that no vertex stays isolated.

* ``poissonization_test`` checks the distributional identity between the
  draws-with-repetition model with a Poisson draw count and the
  independent-hyperedge model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .errors import ValidationError
from .graphs import RigInstance, SimpleGraph, _sorted_rows, _unique_keys, project_rig
from .sampling import (
    FeatureProbabilities,
    Seed,
    _as_rng,
    _floyd_rows,
    draw_subsets,
    sample_g_star_poisson,
    sample_h_independent,
)
from .thresholds import summary_stats


@dataclass(frozen=True)
class FeatureDecomposition:
    """Per-feature size bookkeeping for the clique coupling.

    ``active_sizes[i]`` is the feature-class size when it is at least 2 and
    0 otherwise (singletons make no edges); ``odd_flags[i]`` marks the odd
    active sizes, which each consume one triangle draw.  ``pair_draws`` and
    ``triple_draws`` are the total uniform pair / triple draws needed:
    (active - 3*odd)/2 pairs and odd triples per feature.
    """

    sizes: tuple[int, ...]
    active_sizes: tuple[int, ...]
    odd_flags: tuple[int, ...]
    pair_draws: int
    triple_draws: int


def decompose_features(r: RigInstance) -> FeatureDecomposition:
    return decompose_sizes(np.diff(r.indptr))


def decompose_sizes(sizes) -> FeatureDecomposition:
    sizes = np.asarray(sizes, dtype=np.int64)
    active = np.where(sizes >= 2, sizes, 0)
    odd = active % 2
    return FeatureDecomposition(tuple(sizes.tolist()), tuple(active.tolist()), tuple(odd.tolist()),
                                int((active - 3 * odd).sum()) // 2, int(odd.sum()))


def _rebuild(n: int, active: np.ndarray, pairs: np.ndarray, triples: np.ndarray,
             rng_pad: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Feature sets rebuilt from their draws, as sorted keys ``f * n + v``,
    and the key of every endpoint of every draw.

    Feature f of active size y takes the next (y - 3z)/2 rows of ``pairs``
    and the next z = y mod 2 rows of ``triples``.  Its set is the touched
    vertices, padded by ``_floyd_rows`` with uniformly chosen fresh ones up
    to y, so every draw lies inside the clique on its feature's set.
    """
    m = len(active)
    odd = active % 2
    owners = np.repeat(np.tile(np.arange(m), 2), np.concatenate((active - 3 * odd, 3 * odd)))
    draw_keys = owners * n + np.concatenate((pairs.ravel(), triples.ravel()))
    touched = _unique_keys(draw_keys)
    hits = np.bincount(touched // n, minlength=m)
    missing = active - hits
    _, pad = _floyd_rows(missing, n - hits, rng_pad)
    # padded index i of feature f is the i-th vertex outside its touched set:
    # i plus the touched vertices v whose count of untouched ones below, v - rank, is at most i
    first = np.cumsum(hits) - hits
    gaps = touched - (np.arange(len(touched)) - np.repeat(first, hits))
    queries = np.repeat(np.arange(m) * n, missing) + pad
    pad_keys = queries + np.searchsorted(gaps, queries, side="right") - np.repeat(first, missing)
    return np.sort(np.concatenate((touched, pad_keys))), draw_keys


def _edge_keys(n: int, pairs: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Sorted distinct keys u * n + v (u < v) of the drawn pairs and of the
    triangles on the drawn triples."""
    a, b, c = triples.T
    return _unique_keys(np.concatenate((pairs[:, 0] * n + pairs[:, 1], a * n + b, a * n + c, b * n + c)))


def _within(keys: np.ndarray, sorted_keys: np.ndarray) -> bool:
    """Whether every key is one of ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, keys)
    return bool((at < len(sorted_keys)).all() and (sorted_keys[at] == keys).all())


def couple_feature(size: int, odd: int, n: int, seed) -> tuple[SimpleGraph, frozenset[int]]:
    """Coupled graph and feature set for a single feature class.

    ``size`` must be 0 or in {2, ..., n}; ``odd`` must match its parity.
    The returned graph is a subgraph of the clique on the returned set --
    guaranteed, not probabilistic.
    """
    if size != 0 and not (2 <= size <= n):
        raise ValidationError(f"size must be 0 or in [2, {n}], got {size}")
    if odd not in (0, 1):
        raise ValidationError(f"odd flag must be 0 or 1, got {odd}")
    expected_odd = (size % 2) if size >= 2 else 0
    if odd != expected_odd:
        raise ValidationError(f"odd flag {odd} does not match parity of size {size}")
    rng = _as_rng(seed)
    if size == 0:
        return SimpleGraph(n), frozenset()
    pairs = draw_subsets(n, 2, (size - 3 * odd) // 2, rng)
    triples = draw_subsets(n, 3, odd, rng)
    members, _ = _rebuild(n, np.array([size]), pairs, triples, rng)
    edges = _edge_keys(n, pairs, triples)
    return SimpleGraph(n, np.column_stack((edges // n, edges % n))), frozenset(members.tolist())


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of one full-chain coupling trial."""

    contained: bool
    per_feature_contained: bool
    guard_events: dict[str, bool]
    pair_draws: int
    triple_draws: int
    active_size_sum: int
    poisson_pairs: int
    poisson_triples: int
    rig_edge_count: int
    coupled_edge_count: int
    prefix_edge_count: int
    regime_infeasible: bool
    omega: float


def run_coupling_trial(n: int, p: FeatureProbabilities, omega: float, seed: Seed) -> CouplingReport:
    """Execute the coupled construction once, with shared randomness.

    Chain: sample per-feature sizes; rebuild each feature from consecutive
    slices of one pair-draw stream and one triple-draw stream (containment
    in the rebuilt intersection graph is exact); then draw Poisson counts
    with means (S1 - 3*S3 - 5*omega*sqrt(S1))/2 and S3 - 2*omega*sqrt(S1)
    and take prefixes of the same streams.  The guard events are exactly
    the hypotheses under which prefix containment is certified:

    * poisson_pairs_ok:        poisson pair count   <= pair draws used
    * poisson_triples_ok:      poisson triple count <= triple draws used
    * size_concentration_ok:   |sum active sizes - S1| <= omega*sqrt(S1)

    Negative Poisson means clamp to 0 and mark the matching guard False.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be positive, got {omega}")
    st = summary_stats(n, p, t_max=2)
    if st.S1 <= 0:
        raise ValidationError("degenerate model: S1 = 0")
    s1, s3 = st.S1, st.S3
    sqrt_s1 = math.sqrt(s1)
    regime_infeasible = not (s3 > omega * omega * sqrt_s1)

    rng_sizes = seed.child("sizes").rng()
    rng_pairs = seed.child("pair-stream").rng()
    rng_triples = seed.child("triple-stream").rng()
    rng_pad = seed.child("padding").rng()
    rng_po = seed.child("poisson").rng()

    sizes = rng_sizes.binomial(n, p.as_array())
    dec = decompose_sizes(sizes)

    mean_pairs = (s1 - 3.0 * s3 - 5.0 * omega * sqrt_s1) / 2.0
    mean_triples = s3 - 2.0 * omega * sqrt_s1
    clamped_pairs = mean_pairs < 0
    clamped_triples = mean_triples < 0
    poisson_pairs = int(rng_po.poisson(max(0.0, mean_pairs)))
    poisson_triples = int(rng_po.poisson(max(0.0, mean_triples)))

    pair_stream = draw_subsets(n, 2, max(dec.pair_draws, poisson_pairs), rng_pairs)
    triple_stream = draw_subsets(n, 3, max(dec.triple_draws, poisson_triples), rng_triples)

    pairs = pair_stream[:dec.pair_draws]
    triples = triple_stream[:dec.triple_draws]
    members, draw_keys = _rebuild(n, np.array(dec.active_sizes, dtype=np.int64), pairs, triples, rng_pad)
    rig = project_rig(RigInstance._from_arrays(n, p.m, *_sorted_rows(members, n, p.m)))
    tails, heads = rig.arcs()
    rig_edges = (tails * n + heads)[tails < heads]  # sorted: CSR rows in order
    prefix_edges = _edge_keys(n, pair_stream[:poisson_pairs], triple_stream[:poisson_triples])

    sum_active = sum(dec.active_sizes)
    guards = {
        "poisson_pairs_ok": (poisson_pairs <= dec.pair_draws) and not clamped_pairs,
        "poisson_triples_ok": (poisson_triples <= dec.triple_draws) and not clamped_triples,
        "size_concentration_ok": abs(sum_active - s1) <= omega * sqrt_s1,
    }
    return CouplingReport(
        contained=_within(prefix_edges, rig_edges),
        per_feature_contained=_within(draw_keys, members),
        guard_events=guards,
        pair_draws=dec.pair_draws,
        triple_draws=dec.triple_draws,
        active_size_sum=sum_active,
        poisson_pairs=poisson_pairs,
        poisson_triples=poisson_triples,
        rig_edge_count=len(rig_edges),
        coupled_edge_count=len(_edge_keys(n, pairs, triples)),
        prefix_edge_count=len(prefix_edges),
        regime_infeasible=regime_infeasible,
        omega=omega,
    )


@dataclass(frozen=True)
class CollectorReport:
    """Outcome of one coupon-collector coupling trial.

    Event names spell out what each indicator means:

    * covered_within_lower:   all n coupons seen within T_minus draws
    * covered_within_upper:   all n coupons seen within T_plus draws
    * finished_in_window:     total construction draws T in [T_minus, T_plus]
    * finished_within_overhead: T <= sum(active sizes) + S1/(omega*ln n)
    * sizes_concentrated:     |sum(active sizes) - S1| <= omega*sqrt(S1)

    with T_minus = S1 - omega*sqrt(S1) and
    T_plus = S1 + omega*sqrt(S1) + S1/(omega*ln n).  The exact per-trial
    sandwich is:  (covered_within_lower and finished_in_window) implies
    min degree >= 1 implies (covered_within_upper or not finished_in_window).
    """

    total_draws: int
    active_size_sum: int
    overhead: int
    covered_at: int
    events: dict[str, bool]
    delta_ge_1: bool
    t_minus: float
    t_plus: float
    omega: float


def coupon_collector_trial(n: int, p: FeatureProbabilities, omega: float,
                           seed: Seed) -> CollectorReport:
    """Run the phase-structured coupon collector coupled to the construction.

    Phase i draws uniform vertices until the feature's active size is
    reached; the distinct vertices of the phase become the feature set.
    The coupon stream continues past the construction so that coverage
    times beyond T are still observed.
    """
    if omega <= 0:
        raise ValidationError(f"omega must be positive, got {omega}")
    st = summary_stats(n, p, t_max=2)
    if st.S1 <= 0:
        raise ValidationError("degenerate model: S1 = 0")
    s1 = st.S1
    t_minus = s1 - omega * math.sqrt(s1)
    t_plus = s1 + omega * math.sqrt(s1) + s1 / (omega * math.log(n))

    rng_sizes = seed.child("sizes").rng()
    rng_draws = seed.child("coupons").rng()

    sizes = rng_sizes.binomial(n, p.as_array())
    dec = decompose_sizes(sizes)

    seen_global = bytearray(n)
    seen_count = 0
    covered_at = -1
    total = 0

    buf = np.empty(0, dtype=np.int64)
    buf_pos = 0

    def next_draw() -> int:
        nonlocal buf, buf_pos, total, seen_count, covered_at
        if buf_pos >= len(buf):
            buf = rng_draws.integers(0, n, size=4096)
            buf_pos = 0
        v = int(buf[buf_pos])
        buf_pos += 1
        total += 1
        if not seen_global[v]:
            seen_global[v] = 1
            seen_count += 1
            if seen_count == n and covered_at < 0:
                covered_at = total
        return v

    for size in dec.active_sizes:
        if size == 0:
            continue
        phase: set[int] = set()
        while len(phase) < size:
            phase.add(next_draw())

    construction_draws = total
    delta_ge_1 = 0 < covered_at <= construction_draws

    # keep collecting on the same stream to observe the coverage time
    cap = construction_draws + 64 * n * max(1, math.ceil(math.log(max(n, 2)))) + 4096
    while covered_at < 0 and total < cap:
        next_draw()
    if covered_at < 0:
        raise AssertionError(f"coupon coverage not reached within {cap} draws at n={n}")

    sum_active = sum(dec.active_sizes)
    events = {
        "covered_within_lower": covered_at <= t_minus,
        "covered_within_upper": covered_at <= t_plus,
        "finished_in_window": t_minus <= construction_draws <= t_plus,
        "finished_within_overhead": construction_draws
        <= sum_active + s1 / (omega * math.log(n)),
        "sizes_concentrated": abs(sum_active - s1) <= omega * math.sqrt(s1),
    }
    return CollectorReport(
        total_draws=construction_draws,
        active_size_sum=sum_active,
        overhead=construction_draws - sum_active,
        covered_at=covered_at,
        events=events,
        delta_ge_1=delta_ge_1,
        t_minus=t_minus,
        t_plus=t_plus,
        omega=omega,
    )


@dataclass(frozen=True)
class PoissonizationReport:
    """Two-sample comparison of the Poissonized-draws and independent models."""

    trials: int
    expected_probability: float
    chi2_statistic: float
    chi2_dof: int
    p_value: float
    reject: bool
    alpha: float
    max_abs_z_draws: float
    max_abs_z_independent: float
    mean_count_draws: float
    mean_count_independent: float
    histogram: dict[int, tuple[int, int]] = field(repr=False, default_factory=dict)


def poissonization_test(n: int, arity: int, lam: float, trials: int, seed: Seed,
                        alpha: float = 0.01) -> PoissonizationReport:
    """Paired sampling of both models with a chi-square homogeneity test.

    The Poissonized draws-with-repetition model should match the
    independent-hyperedge model with per-hyperedge probability
    1 - exp(-lam / C(n, arity)) exactly; the test compares hyperedge-count
    histograms and per-hyperedge frequencies (reported as the largest
    z-score against the closed-form probability).
    """
    if trials < 1000:
        raise ValidationError(f"need at least 1000 trials, got {trials}")
    total = math.comb(n, arity)
    q = -math.expm1(-lam / total) if total > 0 else 0.0
    counts_a: dict[int, int] = {}
    counts_b: dict[int, int] = {}
    freq_a: dict[tuple[int, ...], int] = {}
    freq_b: dict[tuple[int, ...], int] = {}
    rng_a = seed.child("poissonized").rng()
    rng_b = seed.child("independent").rng()
    sum_a = 0
    sum_b = 0
    for _ in range(trials):
        ha = sample_g_star_poisson(n, arity, lam, rng_a)
        hb = sample_h_independent(n, arity, q, rng_b)
        ka, kb = len(ha.hyperedges), len(hb.hyperedges)
        counts_a[ka] = counts_a.get(ka, 0) + 1
        counts_b[kb] = counts_b.get(kb, 0) + 1
        sum_a += ka
        sum_b += kb
        for he in ha.hyperedges:
            freq_a[he] = freq_a.get(he, 0) + 1
        for he in hb.hyperedges:
            freq_b[he] = freq_b.get(he, 0) + 1

    hist = {k: (counts_a.get(k, 0), counts_b.get(k, 0))
            for k in sorted(set(counts_a) | set(counts_b))}
    chi2, dof, p_value = _chi2_homogeneity(hist)
    sigma = math.sqrt(q * (1.0 - q) / trials) if 0.0 < q < 1.0 else float("inf")

    def max_z(freq: dict) -> float:
        # z-scores are reported for universes of at most 200k subsets; every
        # absent hyperedge has frequency 0, so together they add the one term q/sigma
        if sigma == float("inf") or total > 200_000:
            return 0.0
        worst = max((abs(count / trials - q) / sigma for count in freq.values()), default=0.0)
        return max(worst, q / sigma) if len(freq) < total else worst

    return PoissonizationReport(
        trials=trials,
        expected_probability=q,
        chi2_statistic=chi2,
        chi2_dof=dof,
        p_value=p_value,
        reject=p_value < alpha,
        alpha=alpha,
        max_abs_z_draws=max_z(freq_a),
        max_abs_z_independent=max_z(freq_b),
        mean_count_draws=sum_a / trials,
        mean_count_independent=sum_b / trials,
        histogram=hist,
    )


def _chi2_homogeneity(hist: dict[int, tuple[int, int]],
                      min_expected: float = 5.0) -> tuple[float, int, float]:
    """Two-sample chi-square on a shared histogram, pooling sparse bins."""
    keys = sorted(hist)
    pooled: list[tuple[int, int]] = []
    acc = [0, 0]
    n_a = sum(a for a, _ in hist.values())
    n_b = sum(b for _, b in hist.values())
    if n_a == 0 or n_b == 0:
        return 0.0, 0, 1.0
    for k in keys:
        acc[0] += hist[k][0]
        acc[1] += hist[k][1]
        expected_share = (acc[0] + acc[1]) / (n_a + n_b)
        if expected_share * min(n_a, n_b) >= min_expected:
            pooled.append((acc[0], acc[1]))
            acc = [0, 0]
    if acc[0] or acc[1]:
        if pooled:
            last = pooled.pop()
            pooled.append((last[0] + acc[0], last[1] + acc[1]))
        else:
            pooled.append(tuple(acc))
    if len(pooled) < 2:
        return 0.0, 0, 1.0
    chi2 = 0.0
    for a, b in pooled:
        tot = a + b
        ea = tot * n_a / (n_a + n_b)
        eb = tot * n_b / (n_a + n_b)
        chi2 += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    dof = len(pooled) - 1
    p_value = float(chdtrc(dof, chi2))  # the chi-square survival function
    return chi2, dof, p_value
