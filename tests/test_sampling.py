import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    ExperimentConfig,
    FeatureProbabilities,
    RigInstance,
    Seed,
    UnsupportedArity,
    ValidationError,
    plan_point,
    project_rig,
    run_sweep,
    sample_g_star,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from rig_lab.experiments import render_results_csv
from rig_lab.sampling import draw_subsets, sample_subset, subset_rank, subset_unrank
from oracles import oracle_project_rig, oracle_sample_rig


def test_probability_vector_validation():
    with pytest.raises(ValidationError):
        FeatureProbabilities(())
    with pytest.raises(ValidationError):
        FeatureProbabilities((0.0,))
    with pytest.raises(ValidationError):
        FeatureProbabilities((1.0,))
    with pytest.raises(ValidationError):
        FeatureProbabilities((0.5, float("nan")))
    assert FeatureProbabilities.homogeneous(3, 0.25).values == (0.25, 0.25, 0.25)


def test_seed_determinism_and_separation():
    p = FeatureProbabilities.homogeneous(8, 0.2)
    a = sample_rig(30, p, Seed(99).child("exp", 0, "sample"))
    b = sample_rig(30, p, Seed(99).child("exp", 0, "sample"))
    c = sample_rig(30, p, Seed(99).child("exp", 1, "sample"))
    assert a == b
    assert a != c  # distinct labels give distinct streams


def test_seed_label_validation():
    with pytest.raises(ValidationError):
        Seed(-1)
    with pytest.raises(ValidationError):
        Seed(0).child(-3).rng()
    with pytest.raises(ValidationError):
        Seed(0).child(1.5).rng()
    assert Seed(7).child("a").state_word() != Seed(7).child("b").state_word()


def test_rig_degenerate_probabilities():
    p = FeatureProbabilities.homogeneous(10, 1e-12)
    inst = sample_rig(100, p, Seed(5).child("tiny"))
    assert all(len(s) == 0 for s in inst.feature_sets)
    one = sample_rig(1, FeatureProbabilities.homogeneous(4, 0.9), Seed(5).child("n1"))
    assert project_rig(one).edge_count() == 0


def test_rig_binomial_moments():
    # mean of |V_i| should sit within 3 sigma of n*p over many trials
    n, m, p = 50, 20, 0.3
    trials = 10_000
    probs = FeatureProbabilities.homogeneous(m, p)
    rng_seed = Seed(2024).child("binom")
    total = 0
    total_sq = 0
    for t in range(trials):
        inst = sample_rig(n, probs, rng_seed.child(t))
        for s in inst.feature_sets:
            total += len(s)
            total_sq += len(s) ** 2
    count = trials * m
    mean = total / count
    var = total_sq / count - mean**2
    se_mean = math.sqrt(n * p * (1 - p) / count)
    assert abs(mean - n * p) < 3 * se_mean
    assert abs(var - n * p * (1 - p)) / (n * p * (1 - p)) < 0.05


def _assert_matches_per_feature_sampler(n, values, seed):
    inst = sample_rig(n, FeatureProbabilities(values), seed)
    sets = oracle_sample_rig(n, values, seed)
    assert inst.feature_sets == sets
    assert inst == RigInstance(n, len(values), sets)  # sorted, duplicate-free rows
    assert project_rig(inst).edges == oracle_project_rig(sets)


_PROBABILITY = st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([1e-12, 0.5, 1 - 1e-12]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sample_rig_matches_per_feature_sampler(data):
    # n = 1, tiny n where most features hold every vertex (they draw no
    # uniforms) or collide in Floyd's rule, and larger n
    n = data.draw(st.one_of(st.just(1), st.integers(2, 6), st.integers(7, 300)))
    values = data.draw(st.lists(_PROBABILITY, min_size=1, max_size=40))
    _assert_matches_per_feature_sampler(n, values, Seed(data.draw(st.integers(0, 2**64 - 1))))


def test_sample_rig_matches_per_feature_sampler_on_explicit_profile():
    # the two-level profile of the conn-sweep benchmark workload
    config = ExperimentConfig(
        theorem="connectivity", n=2000, m=2000, c_grid=(-1.0, 1.0), trials_per_point=1,
        master_seed=0, profile={"kind": "explicit", "values": [1.0, 4.0] * 1000})
    for i, c in enumerate(config.c_grid):
        point = plan_point(config, c, i)
        for t in range(3):
            _assert_matches_per_feature_sampler(
                point.n_vertices, point.probabilities.values, Seed(17).child("explicit", i, t))


def test_sample_streams_are_pinned():
    # sha256 of one sampled incidence and of one sweep's results.csv; a change
    # to the sample_rig stream changes them, and must be versioned, not silent
    inst = sample_rig(300, FeatureProbabilities((0.01, 0.05, 0.3) * 100),
                      Seed(2024).child("stream-pin"))
    text = "".join(f"{i} {v}\n" for i, s in enumerate(inst.feature_sets) for v in sorted(s))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af1ae63375ffad14db729a9a4b78f4f78255318c68d34e1e692769abfa232b32")
    config = ExperimentConfig(theorem="connectivity", n=300, m=300, c_grid=(-1.0, 1.0),
                              trials_per_point=20, master_seed=2024, experiment_id="stream-pin")
    csv = render_results_csv(run_sweep(config))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "ec3c0994a9910d2983f8a4ed6f1a25c5b1a5f4dcfe4389b258fa7fc0f69a2e42")


def test_h_independent_trivial_cases():
    assert len(sample_h_independent(20, 3, 0.0, Seed(1).child("h0")).hyperedges) == 0
    full = sample_h_independent(4, 3, 1.0, Seed(1).child("h1"))
    assert full.hyperedges == frozenset(itertools.combinations(range(4), 3))
    with pytest.raises(UnsupportedArity):
        sample_h_independent(10, 4, 0.5, Seed(1))
    with pytest.raises(ValidationError):
        sample_h_independent(10, 2, 1.5, Seed(1))


def test_h_independent_mean_edge_count():
    n, phat = 30, 0.1
    expected = math.comb(n, 2) * phat
    trials = 10_000
    seed = Seed(77).child("hmean")
    total = sum(
        len(sample_h_independent(n, 2, phat, seed.child(t)).hyperedges) for t in range(trials)
    )
    mean = total / trials
    se = math.sqrt(math.comb(n, 2) * phat * (1 - phat) / trials)
    assert abs(mean - expected) < 3 * se


def test_g_star_trivial_cases():
    assert len(sample_g_star(10, 2, 0, Seed(1).child("g0")).hyperedges) == 0
    only = sample_g_star(3, 3, 5, Seed(1).child("g1"))
    assert only.hyperedges == frozenset({(0, 1, 2)})


def test_g_star_collision_probability():
    # two uniform draws from the 6 pairs of K4 collide with probability 1/6
    trials = 100_000
    seed = Seed(31).child("collide")
    hits = sum(
        1 for t in range(trials)
        if len(sample_g_star(4, 2, 2, seed.child(t)).hyperedges) == 1
    )
    freq = hits / trials
    se = math.sqrt((1 / 6) * (5 / 6) / trials)
    assert abs(freq - 1 / 6) < 3 * se


def test_g_star_poisson_trivial_and_saturated():
    assert len(sample_g_star_poisson(10, 3, 0.0, Seed(1).child("p0")).hyperedges) == 0
    sat = sample_g_star_poisson(4, 2, 1e6, Seed(1).child("p1"))
    assert sat.hyperedges == frozenset(itertools.combinations(range(4), 2))
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            sample_g_star_poisson(4, 2, lam, Seed(1).child("p2"))


def test_g_star_poisson_matches_independent_frequency():
    # both models put each of the 20 triples in with prob 1 - exp(-3/20)
    n, lam, trials = 6, 3.0, 4000
    q = -math.expm1(-lam / math.comb(n, 3))
    seed = Seed(13).child("pz")
    count_a = 0
    count_b = 0
    for t in range(trials):
        count_a += len(sample_g_star_poisson(n, 3, lam, seed.child("a", t)).hyperedges)
        count_b += len(sample_h_independent(n, 3, q, seed.child("b", t)).hyperedges)
    expect = 20 * q * trials
    sd = math.sqrt(20 * q * (1 - q) * trials)
    assert abs(count_a - expect) < 4 * sd
    assert abs(count_b - expect) < 4 * sd


def test_h_independent_scales_with_hits_not_universe():
    # C(10^6, 2) is half a trillion pair slots; only the ~500 expected hits
    # cost anything, which is the point of the skip sampler
    n, phat = 1_000_000, 1e-9
    expected = math.comb(n, 2) * phat
    h = sample_h_independent(n, 2, phat, Seed(55).child("huge"))
    count = len(h.hyperedges)
    assert abs(count - expected) < 5 * math.sqrt(expected)
    assert all(0 <= a < b < n for a, b in h.hyperedges)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subset_rank_unrank_round_trip(data):
    arity = data.draw(st.sampled_from([2, 3]))
    rank = data.draw(st.integers(0, 10_000))
    sub = subset_unrank(rank, arity)
    assert len(sub) == arity and all(a < b for a, b in zip(sub, sub[1:]))
    assert subset_rank(sub) == rank


def test_unrank_enumerates_all_subsets():
    for n, arity in ((5, 2), (7, 3)):
        subs = {subset_unrank(r, arity) for r in range(math.comb(n, arity))}
        assert subs == set(itertools.combinations(range(n), arity))


def test_sample_subset_uniformity():
    rng = Seed(3).child("floyd").rng()
    counts = np.zeros(6)
    for _ in range(6000):
        for v in sample_subset(6, 2, rng):
            counts[v] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 6) < 0.01)


def test_draw_subsets_validation():
    rng = Seed(0).child("d").rng()
    with pytest.raises(UnsupportedArity):
        draw_subsets(5, 4, 1, rng)
    with pytest.raises(ValidationError):
        draw_subsets(2, 3, 1, rng)
    with pytest.raises(ValidationError):
        draw_subsets(5, 2, -1, rng)
    assert draw_subsets(2, 3, 0, rng) == []  # zero draws need no vertices
