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
  features are a RigInstance projected by ``project_rig``; the prefix
  edges are looked up in its sorted CSR rows by ``graphs._has_arcs``, and
  the draws among the memberships by ``graphs._in_sorted``.  The Poisson
  means, the regime and the concentration slack are
  ``thresholds.sandwich_law``, which ``rig-lab stats`` prints.

* ``coupon_collector_trial`` couples the construction with a coupon
  collector process: feature sets are the distinct vertices seen in
  per-feature phases of uniform draws, so full coverage of the coupon set
  is literally the event that no vertex stays isolated.  It shares the
  chain's plan and ``sizes`` stream and reads the ``coupons`` stream in
  blocks of 4096 draws, one block at a time as a Python list: a phase
  that lacks k vertices takes the next k draws into its set at once, since
  it needs at least that many.  The coverage time is the last first
  occurrence of a vertex, one scatter-min (``np.minimum.at``) of the draw
  indices per drawn block, and past the construction it draws one more
  block at a time until every vertex has come up or a cap is passed.

* ``poissonization_test`` checks the distributional identity between the
  draws-with-repetition model with a Poisson draw count and the
  independent-hyperedge model.

Both trials run on a plan (``_plan_chain``, ``_plan_collector``) that makes
every model check and computes the statistics and the law once; ``rig-lab
couple`` and ``rig-lab collector`` plan once per run, before any output,
and the public trial functions plan on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .errors import CoverageNotReached, ValidationError
from .graphs import (RigInstance, SimpleGraph, _check_key_range, _cut_rows, _has_arcs,
                     _in_sorted, _unique_keys, _universe, project_rig)
from .sampling import (
    MAX_DRAWS,
    FeatureProbabilities,
    Seed,
    _as_rng,
    _floyd_rows,
    draw_subsets,
    sample_g_star_poisson,
    sample_h_independent,
)
from .thresholds import poisson_hit_probability, sandwich_law, summary_stats


@dataclass(frozen=True)
class _Plan:
    """One couple or collector run's model, checked once, and what each of its
    trials reads: S1, ``sandwich_law`` at omega, and the collector's window
    T_minus = S1 - slack, T_plus = S1 + slack + S1/(omega*ln n)."""

    n: int
    p: FeatureProbabilities
    omega: float
    s1: float
    law: tuple[str, float, float, float]
    t_minus: float
    t_plus: float


def _plan_chain(n: int, p: FeatureProbabilities, omega: float) -> _Plan:
    """Every model check of a couple run: the key range, S1 > 0 and the law at omega."""
    _check_key_range(n, p.m)
    st = summary_stats(n, p, t_max=2)
    if st.S1 <= 0:
        raise ValidationError("degenerate model: S1 = 0")
    law = sandwich_law(st, omega)
    s1, slack = st.S1, law[3]
    return _Plan(n, p, omega, s1, law, s1 - slack, s1 + slack + s1 / (omega * math.log(n)))


def _plan_collector(n: int, p: FeatureProbabilities, omega: float) -> _Plan:
    """``_plan_chain``, and a ValidationError when T_plus overflows (omega near 0)."""
    plan = _plan_chain(n, p, omega)
    if not math.isfinite(plan.t_plus):
        raise ValidationError(f"T_plus = {plan.t_plus} is not finite at omega = {omega!r}")
    return plan


def _active_sizes(plan: _Plan, seed: Seed) -> np.ndarray:
    """Each feature's active size: its Binomial(n, p_i) size on the ``sizes``
    stream, or 0 below 2 (singletons make no edges)."""
    sizes = seed.child("sizes").rng().binomial(plan.n, plan.p.values)
    return np.where(sizes >= 2, sizes, 0)


def _rebuild(n: int, active: np.ndarray, pairs: np.ndarray, triples: np.ndarray,
             rng_pad: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Feature sets rebuilt from their draws, as sorted keys ``f * n + v``,
    and the sorted, distinct keys of the draws' endpoints.

    Feature f of active size y takes the next (y - 3z)/2 rows of ``pairs``
    and the next z = y mod 2 rows of ``triples``.  Its set is the touched
    vertices, padded by ``_floyd_rows`` with uniformly chosen fresh ones up
    to y, so every draw lies inside the clique on its feature's set.
    """
    m = len(active)
    odd = active % 2
    owners = np.repeat(np.tile(np.arange(m), 2), np.concatenate((active - 3 * odd, 3 * odd)))
    touched = _unique_keys(owners * n + np.concatenate((pairs.ravel(), triples.ravel())))
    hits = np.bincount(touched // n, minlength=m)
    missing = active - hits
    _, pad = _floyd_rows(missing, n - hits, rng_pad)
    # padded index i of feature f is the i-th vertex outside its touched set:
    # i plus the touched vertices v whose count of untouched ones below, v - rank, is at most i
    first = np.cumsum(hits) - hits
    gaps = touched - (np.arange(len(touched)) - np.repeat(first, hits))
    queries = np.repeat(np.arange(m) * n, missing) + pad
    pad_keys = queries + np.searchsorted(gaps, queries, side="right") - np.repeat(first, missing)
    return np.sort(np.concatenate((touched, pad_keys))), touched


def _edge_keys(n: int, pairs: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Sorted distinct keys u * n + v (u < v) of the drawn pairs and of the
    triangles on the drawn triples."""
    a, b, c = triples.T
    return _unique_keys(np.concatenate((pairs[:, 0] * n + pairs[:, 1], a * n + b, a * n + c, b * n + c)))


def couple_feature(size: int, n: int, seed) -> tuple[SimpleGraph, frozenset[int]]:
    """Coupled graph and feature set for a single feature class.

    ``size`` must be 0 or in {2, ..., n}; an odd size takes one triple.
    The returned graph is a subgraph of the clique on the returned set --
    guaranteed, not probabilistic.
    """
    if size != 0 and not (2 <= size <= n):
        raise ValidationError(f"size must be 0 or in [2, {n}], got {size}")
    rng = _as_rng(seed)
    if size == 0:
        return SimpleGraph(n), frozenset()
    odd = size % 2
    pairs = draw_subsets(n, 2, (size - 3 * odd) // 2, rng)
    triples = draw_subsets(n, 3, odd, rng)
    members, _ = _rebuild(n, np.array([size]), pairs, triples, rng)
    edges = _edge_keys(n, pairs, triples)
    arcs = np.concatenate((edges, edges % n * n + edges // n))
    return SimpleGraph._from_keys(n, arcs), frozenset(members.tolist())


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
    at the means of ``sandwich_law`` and take prefixes of the same streams.
    The guard events are exactly the hypotheses under which prefix
    containment is certified:

    * poisson_pairs_ok:        poisson pair count   <= pair draws used
    * poisson_triples_ok:      poisson triple count <= triple draws used
    * size_concentration_ok:   |sum active sizes - S1| <= the law's slack

    Negative Poisson means clamp to 0 and mark the matching guard False;
    regime_infeasible marks the "small-S3" regime.
    """
    return _chain_trial(_plan_chain(n, p, omega), seed)


def _chain_trial(plan: _Plan, seed: Seed) -> CouplingReport:
    """``run_coupling_trial`` on a planned model."""
    n, m = plan.n, plan.p.m
    regime, mean_pairs, mean_triples, slack = plan.law
    active = _active_sizes(plan, seed)
    # each odd active size takes one triple, the rest of every size goes in pairs
    sum_active = int(active.sum())
    triple_draws = int((active % 2).sum())
    pair_draws = (sum_active - 3 * triple_draws) // 2

    rng_po = seed.child("poisson").rng()
    poisson_pairs = int(rng_po.poisson(max(0.0, mean_pairs)))
    poisson_triples = int(rng_po.poisson(max(0.0, mean_triples)))

    pair_stream = draw_subsets(n, 2, max(pair_draws, poisson_pairs),
                               seed.child("pair-stream").rng())
    triple_stream = draw_subsets(n, 3, max(triple_draws, poisson_triples),
                                 seed.child("triple-stream").rng())

    pairs = pair_stream[:pair_draws]
    triples = triple_stream[:triple_draws]
    members, touched = _rebuild(n, active, pairs, triples, seed.child("padding").rng())
    rig = project_rig(RigInstance._wrap(n, m, *_cut_rows(members, n, m)))
    prefix_edges = _edge_keys(n, pair_stream[:poisson_pairs], triple_stream[:poisson_triples])

    guards = {
        "poisson_pairs_ok": (poisson_pairs <= pair_draws) and not mean_pairs < 0,
        "poisson_triples_ok": (poisson_triples <= triple_draws) and not mean_triples < 0,
        "size_concentration_ok": abs(sum_active - plan.s1) <= slack,
    }
    return CouplingReport(
        contained=bool(_has_arcs(rig, prefix_edges // n, prefix_edges % n).all()),
        per_feature_contained=bool(_in_sorted(members, touched).all()),  # sorted queries
        guard_events=guards,
        pair_draws=pair_draws,
        triple_draws=triple_draws,
        active_size_sum=sum_active,
        poisson_pairs=poisson_pairs,
        poisson_triples=poisson_triples,
        rig_edge_count=rig.edge_count(),
        coupled_edge_count=len(_edge_keys(n, pairs, triples)),
        prefix_edge_count=len(prefix_edges),
        regime_infeasible=regime == "small-S3",
        omega=plan.omega,
    )


@dataclass(frozen=True)
class CollectorReport:
    """Outcome of one coupon-collector coupling trial.

    Event names spell out what each indicator means:

    * covered_within_lower:   all n coupons seen within T_minus draws
    * covered_within_upper:   all n coupons seen within T_plus draws
    * finished_in_window:     total construction draws T in [T_minus, T_plus]
    * finished_within_overhead: T <= sum(active sizes) + S1/(omega*ln n)
    * sizes_concentrated:     |sum(active sizes) - S1| <= slack

    with slack the concentration slack of ``sandwich_law``,
    T_minus = S1 - slack and T_plus = S1 + slack + S1/(omega*ln n).  The exact per-trial
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


_COUPON_BLOCK = 4096  # coupons per generator call


def coupon_collector_trial(n: int, p: FeatureProbabilities, omega: float,
                           seed: Seed) -> CollectorReport:
    """Run the phase-structured coupon collector coupled to the construction.

    Phase i draws uniform vertices until the feature's active size is
    reached; the distinct vertices of the phase become the feature set.
    The coupon stream continues past the construction so that coverage
    times beyond T are still observed.  A T_plus that overflows (omega near
    0) is a ValidationError.
    """
    return _collector_trial(_plan_collector(n, p, omega), seed)


def _collector_trial(plan: _Plan, seed: Seed) -> CollectorReport:
    """``coupon_collector_trial`` on a planned model."""
    n, omega, s1, slack = plan.n, plan.omega, plan.s1, plan.law[3]
    t_minus, t_plus = plan.t_minus, plan.t_plus
    active = _active_sizes(plan, seed)

    rng_draws = seed.child("coupons").rng()
    blocks: list[np.ndarray] = []  # the coupon stream, as drawn
    buf: list[int] = []  # the last block drawn, read up to pos; read out once pos >= its size
    pos = _COUPON_BLOCK
    for size in active[active > 0].tolist():
        # a phase needs at least as many more draws as it lacks vertices, so it
        # takes them all at once, and it ends on the draw that fills it
        phase = set(buf[pos:pos + size])
        pos += size
        while len(phase) < size:
            if pos >= _COUPON_BLOCK:
                blocks.append(rng_draws.integers(0, n, size=_COUPON_BLOCK))
                buf, pos = blocks[-1].tolist(), 0
            short = size - len(phase)
            phase.update(buf[pos:pos + short])
            pos += short
    construction_draws = len(blocks) * _COUPON_BLOCK - (_COUPON_BLOCK - pos)

    # keep collecting on the same stream to observe the coverage time; first
    # holds each vertex's first draw index, or cap if it has not come up yet
    cap = construction_draws + 64 * n * max(1, math.ceil(math.log(max(n, 2)))) + 4096
    first = np.full(n, cap)
    for b, block in enumerate(blocks):
        np.minimum.at(first, block, np.arange(b * _COUPON_BLOCK, (b + 1) * _COUPON_BLOCK))
    drawn = len(blocks) * _COUPON_BLOCK
    while first.max() == cap and drawn < cap:
        np.minimum.at(first, rng_draws.integers(0, n, size=_COUPON_BLOCK),
                      np.arange(drawn, drawn + _COUPON_BLOCK))
        drawn += _COUPON_BLOCK
    covered_at = int(first.max()) + 1
    if covered_at > cap:
        raise CoverageNotReached(f"coupon coverage not reached within {cap} draws at n={n}")
    delta_ge_1 = covered_at <= construction_draws

    sum_active = int(active.sum())
    events = {
        "covered_within_lower": covered_at <= t_minus,
        "covered_within_upper": covered_at <= t_plus,
        "finished_in_window": t_minus <= construction_draws <= t_plus,
        "finished_within_overhead": construction_draws
        <= sum_active + s1 / (omega * math.log(n)),
        "sizes_concentrated": abs(sum_active - s1) <= slack,
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


POISSON_ALPHA = 0.01  # the chi-square test's level
_MIN_EXPECTED = 5.0  # pooled histogram bins hold at least this expected count


def poissonization_test(n: int, arity: int, lam: float, trials: int,
                        seed: Seed) -> PoissonizationReport:
    """Paired sampling of both models with a chi-square homogeneity test.

    The Poissonized draws-with-repetition model should match the
    independent-hyperedge model with per-hyperedge probability
    1 - exp(-lam / C(n, arity)) exactly; the test compares hyperedge-count
    histograms and per-hyperedge frequencies (reported as the largest
    z-score against the closed-form probability, for universes of at most
    200k subsets).
    """
    if not 1000 <= trials <= MAX_DRAWS:
        raise ValidationError(f"trials must lie in [1000, {MAX_DRAWS}] (the draw limit), got {trials}")
    total = _universe(n, arity)
    if n < arity:
        raise ValidationError(f"need at least {arity} vertices, got {n}")
    q = poisson_hit_probability(n, arity, lam)
    sigma = math.sqrt(q * (1.0 - q) / trials) if 0.0 < q < 1.0 else float("inf")
    scored = sigma != float("inf") and total <= 200_000
    counts = np.zeros((2, trials), dtype=np.int64)
    # per-subset frequencies by colex rank; ranks within one sample are distinct
    freq = np.zeros((2, total if scored else 0), dtype=np.int64)
    rng_a = seed.child("poissonized").rng()
    rng_b = seed.child("independent").rng()
    for t in range(trials):
        ha = sample_g_star_poisson(n, arity, lam, rng_a)
        hb = sample_h_independent(n, arity, q, rng_b)
        counts[:, t] = len(ha.ranks), len(hb.ranks)
        if scored:
            freq[0, ha.ranks] += 1
            freq[1, hb.ranks] += 1

    width = int(counts.max()) + 1
    bins_a, bins_b = (np.bincount(c, minlength=width).tolist() for c in counts)
    hist = {k: (a, b) for k, (a, b) in enumerate(zip(bins_a, bins_b)) if a or b}
    chi2, dof, p_value = _chi2_homogeneity(hist)
    z = [float((np.abs(f / trials - q) / sigma).max()) if scored else 0.0 for f in freq]
    means = (counts.sum(axis=1) / trials).tolist()
    return PoissonizationReport(
        trials=trials,
        expected_probability=q,
        chi2_statistic=chi2,
        chi2_dof=dof,
        p_value=p_value,
        reject=p_value < POISSON_ALPHA,
        alpha=POISSON_ALPHA,
        max_abs_z_draws=z[0],
        max_abs_z_independent=z[1],
        mean_count_draws=means[0],
        mean_count_independent=means[1],
        histogram=hist,
    )


def _chi2_homogeneity(hist: dict[int, tuple[int, int]]) -> tuple[float, int, float]:
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
        if expected_share * min(n_a, n_b) >= _MIN_EXPECTED:
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
