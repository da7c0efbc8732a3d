import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    FeatureProbabilities,
    RigInstance,
    Seed,
    ValidationError,
    coupon_collector_trial,
    couple_feature,
    decompose_features,
    decompose_sizes,
    homogeneous_p_for_target,
    poissonization_test,
    project_rig,
    run_coupling_trial,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from oracles import clique_edges, oracle_couple_feature, oracle_run_coupling_trial


def test_decompose_examples():
    empty = decompose_sizes([0, 0, 0])
    assert empty.pair_draws == 0 and empty.triple_draws == 0
    single5 = decompose_sizes([5])
    assert single5.active_sizes == (5,) and single5.odd_flags == (1,)
    assert single5.pair_draws == 1 and single5.triple_draws == 1
    singleton = decompose_sizes([1])
    assert singleton.active_sizes == (0,) and singleton.pair_draws == 0
    assert singleton.triple_draws == 0


def test_decompose_from_instance():
    inst = RigInstance(6, 3, (frozenset({0, 1, 2}), frozenset({4}), frozenset()))
    dec = decompose_features(inst)
    assert dec.sizes == (3, 1, 0)
    assert dec.active_sizes == (3, 0, 0)
    assert dec.pair_draws == 0 and dec.triple_draws == 1


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_decompose_split_is_consistent(sizes):
    dec = decompose_sizes(sizes)
    assert dec.pair_draws >= 0 and dec.triple_draws >= 0
    assert 2 * dec.pair_draws + 3 * dec.triple_draws == sum(dec.active_sizes)
    for y, z in zip(dec.active_sizes, dec.odd_flags):
        assert z == (y % 2 if y else 0)


def test_couple_feature_examples():
    g, members = couple_feature(0, 0, 8, Seed(1).child("a"))
    assert g.edge_count() == 0 and members == frozenset()
    g, members = couple_feature(2, 0, 8, Seed(1).child("b"))
    assert g.edge_count() == 1 and len(members) == 2
    assert set(next(iter(g.edges))) == set(members)
    g, members = couple_feature(3, 1, 8, Seed(1).child("c"))
    assert g.edge_count() == 3 and len(members) == 3
    assert g.edges == frozenset(clique_edges(members))


def test_couple_feature_validation():
    with pytest.raises(ValidationError):
        couple_feature(1, 0, 8, Seed(1))
    with pytest.raises(ValidationError):
        couple_feature(3, 0, 8, Seed(1))  # parity mismatch
    with pytest.raises(ValidationError):
        couple_feature(2, 1, 8, Seed(1))
    with pytest.raises(ValidationError):
        couple_feature(9, 1, 8, Seed(1))  # larger than the vertex set


def test_couple_feature_containment_randomized():
    rng = np.random.default_rng(12)
    master = Seed(2).child("cf")
    for trial in range(2000):
        n = int(rng.integers(3, 40))
        size = int(rng.integers(0, n + 1))
        if size == 1:
            size = 0
        odd = size % 2 if size >= 2 else 0
        g, members = couple_feature(size, odd, n, master.child(trial))
        assert len(members) == size
        assert g.edges <= frozenset(clique_edges(members))


def test_per_feature_union_distribution_matches_direct_sampling():
    # identical graph-shape histograms from the two constructions (chi-square)
    n, m, trials = 4, 2, 100_000
    p = FeatureProbabilities.homogeneous(m, 0.35)
    direct = Counter()
    coupled = Counter()
    seed = Seed(3)
    for t in range(trials):
        inst = sample_rig(n, p, seed.child("direct", t))
        direct[project_rig(inst).edges] += 1
        rng = seed.child("coupled", t).rng()
        sizes = rng.binomial(n, p.as_array())
        dec = decompose_sizes(sizes)
        edges = set()
        for y, z in zip(dec.active_sizes, dec.odd_flags):
            g, members = couple_feature(int(y), int(z), n, rng)
            edges |= set(clique_edges(members))
        coupled[frozenset(edges)] += 1
    keys = sorted(set(direct) | set(coupled), key=sorted)
    chi2 = 0.0
    dof = 0
    for key in keys:
        a, b = direct[key], coupled[key]
        tot = a + b
        if tot < 10:
            continue
        ea = eb = tot / 2
        chi2 += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
        dof += 1
    from scipy.stats import chi2 as chi2_dist
    p_value = float(chi2_dist.sf(chi2, max(dof - 1, 1)))
    assert p_value > 0.01, (chi2, dof, p_value)


def test_run_coupling_trial_trivial_feature():
    p = FeatureProbabilities((1e-9,))
    report = run_coupling_trial(50, p, 2.0, Seed(4).child("t0"))
    assert report.contained and report.per_feature_contained
    assert report.rig_edge_count == 0


def test_run_coupling_trial_exactness_small():
    p = FeatureProbabilities.homogeneous(60, 0.02)
    seed = Seed(4)
    for t in range(300):
        report = run_coupling_trial(60, p, 2.0, seed.child("exact", t))
        assert report.per_feature_contained
        if all(report.guard_events.values()):
            assert report.contained


def test_run_coupling_trial_prefix_respects_guards():
    n = m = 600
    p = FeatureProbabilities.homogeneous(m, homogeneous_p_for_target(n, m, math.log(n) / m))
    omega = math.log(math.log(n))
    seed = Seed(8)
    guard_hits = 0
    for t in range(40):
        report = run_coupling_trial(n, p, omega, seed.child("guard", t))
        assert report.per_feature_contained
        if all(report.guard_events.values()):
            guard_hits += 1
            assert report.contained
        assert not report.regime_infeasible
    assert guard_hits >= 30  # concentration should make guards typical


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_run_coupling_trial_matches_set_oracle(data):
    # tiny n, where features of size n take every vertex and padding meets
    # the touched set, and m = 1 at p near 0, where at most one feature is active
    n = data.draw(st.integers(3, 8))
    if data.draw(st.booleans()):
        p = FeatureProbabilities((1e-9,))
    else:
        p = FeatureProbabilities(data.draw(st.lists(
            st.sampled_from([0.2, 0.5, 0.9, 1 - 1e-12]), min_size=1, max_size=6)))
    omega = data.draw(st.sampled_from([0.1, 0.5, 2.0]))
    seed = Seed(data.draw(st.integers(0, 2**64 - 1)))
    assert run_coupling_trial(n, p, omega, seed) == oracle_run_coupling_trial(n, p, omega, seed)


def test_run_coupling_trial_matches_set_oracle_at_guard_config():
    # the configuration of test_run_coupling_trial_prefix_respects_guards
    n = m = 600
    p = FeatureProbabilities.homogeneous(m, homogeneous_p_for_target(n, m, math.log(n) / m))
    seed = Seed(8)
    for omega in (math.log(math.log(n)), 0.3):
        for t in range(4):
            report = run_coupling_trial(n, p, omega, seed.child("guard", t))
            assert report == oracle_run_coupling_trial(n, p, omega, seed.child("guard", t))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_couple_feature_matches_set_oracle(data):
    n = data.draw(st.integers(3, 8))
    size = data.draw(st.sampled_from([0, n, *range(2, n + 1)]))
    odd = size % 2 if size >= 2 else 0
    seed = Seed(data.draw(st.integers(0, 2**64 - 1)))
    assert couple_feature(size, odd, n, seed) == oracle_couple_feature(size, odd, n, seed)
    # through a shared generator, the stream continues where each call left it
    rng, oracle_rng = seed.rng(), seed.rng()
    for _ in range(3):
        assert couple_feature(size, odd, n, rng) == oracle_couple_feature(size, odd, n, oracle_rng)


def test_collector_all_empty_features():
    # tiny probabilities: no feature reaches size 2, the construction makes
    # zero draws, and the coupon stream still gets observed to coverage
    n = 12
    rep = coupon_collector_trial(n, FeatureProbabilities.homogeneous(3, 1e-9), 2.0,
                                 Seed(5).child("empty"))
    assert rep.total_draws == 0
    assert rep.active_size_sum == 0
    assert not rep.delta_ge_1
    assert rep.covered_at >= n


def test_collector_single_full_feature():
    # probability close enough to 1 that the single feature holds every
    # vertex: its phase is then a full coupon-collector run
    n = 40
    p = FeatureProbabilities((1 - 1e-12,))
    report = coupon_collector_trial(n, p, 2.0, Seed(5).child("full"))
    assert report.active_size_sum == n
    assert report.covered_at == report.total_draws
    assert report.delta_ge_1


def test_collector_events_and_sandwich():
    n = 300
    m = 300
    p = FeatureProbabilities.homogeneous(m, homogeneous_p_for_target(n, m, math.log(n) / m))
    seed = Seed(6)
    delta_hits = 0
    trials = 150
    for t in range(trials):
        rep = coupon_collector_trial(n, p, 2.0, seed.child("cc", t))
        ev = rep.events
        assert rep.total_draws >= rep.active_size_sum
        assert rep.covered_at >= n
        # strong coverage implies weak coverage
        assert not ev["covered_within_lower"] or ev["covered_within_upper"]
        # exact sandwich implications per trial
        if ev["covered_within_lower"] and ev["finished_in_window"]:
            assert rep.delta_ge_1
        if rep.delta_ge_1 and ev["finished_in_window"]:
            assert ev["covered_within_upper"]
        if ev["finished_within_overhead"] and ev["sizes_concentrated"]:
            assert ev["finished_in_window"]
        delta_hits += 1 if rep.delta_ge_1 else 0
    freq = delta_hits / trials
    assert abs(freq - math.exp(-1)) < 0.13  # crude bracket at n=300


def test_collector_min_degree_frequency_at_scale():
    # at the isolated-vertex threshold the coverage probability sits near 1/e
    n = m = 2000
    p = FeatureProbabilities.homogeneous(m, homogeneous_p_for_target(n, m, math.log(n) / m))
    omega = math.log(math.log(n))
    seed = Seed(16)
    trials = 300
    hits = 0
    chain_violations = 0
    for t in range(trials):
        rep = coupon_collector_trial(n, p, omega, seed.child("scale", t))
        ev = rep.events
        window = ev["finished_in_window"]
        if ev["covered_within_lower"] and window and not rep.delta_ge_1:
            chain_violations += 1
        if rep.delta_ge_1 and window and not ev["covered_within_upper"]:
            chain_violations += 1
        hits += 1 if rep.delta_ge_1 else 0
    assert chain_violations == 0
    assert abs(hits / trials - math.exp(-1)) < 0.1


def test_poissonization_trivial_lambda():
    report = poissonization_test(6, 3, 0.0, 1000, Seed(7).child("z"))
    assert not report.reject
    assert report.mean_count_draws == 0.0 and report.mean_count_independent == 0.0


def test_poissonization_small_lambda_agrees():
    report = poissonization_test(6, 3, 3.0, 5000, Seed(7).child("pz"))
    assert not report.reject
    assert report.max_abs_z_draws < 3.5
    assert report.max_abs_z_independent < 3.5
    assert report.mean_count_draws == pytest.approx(20 * report.expected_probability, rel=0.05)


def _brute_force_max_z(n, arity, lam, trials, seed):
    """Per model, the largest per-hyperedge |z| over all C(n, arity) subsets
    (absent ones at frequency 0) and the number of absent subsets."""
    total = math.comb(n, arity)
    q = -math.expm1(-lam / total)
    sigma = math.sqrt(q * (1.0 - q) / trials)
    samplers = (("poissonized", lambda rng: sample_g_star_poisson(n, arity, lam, rng)),
                ("independent", lambda rng: sample_h_independent(n, arity, q, rng)))
    out = []
    for label, sample in samplers:
        rng = seed.child(label).rng()
        freq = Counter()
        for _ in range(trials):
            freq.update(sample(rng).hyperedges)
        subsets = list(itertools.combinations(range(n), arity))
        out.append((max(abs(freq[s] / trials - q) / sigma for s in subsets),
                    sum(1 for s in subsets if s not in freq)))
    return out


@pytest.mark.parametrize("n, lam, trials", [(6, 3.0, 20_000), (8, 0.05, 1000)])
def test_poissonization_max_z_matches_brute_force(n, lam, trials):
    # the first row is criterion 2's config; in the second most hyperedges stay absent
    seed = Seed(20260811).child("accept", "poisson")
    report = poissonization_test(n, 3, lam, trials, seed)
    (z_draws, absent_draws), (z_indep, absent_indep) = _brute_force_max_z(n, 3, lam, trials, seed)
    assert report.max_abs_z_draws == z_draws
    assert report.max_abs_z_independent == z_indep
    if n == 8:
        assert absent_draws > 0 and absent_indep > 0


def test_poissonization_pair_model():
    report = poissonization_test(4, 2, 2.0, 5000, Seed(7).child("pz2"))
    expected = 6 * (1 - math.exp(-2.0 / 6))
    sd = math.sqrt(6 * report.expected_probability * (1 - report.expected_probability) / 5000)
    assert abs(report.mean_count_draws - expected) < 4 * sd
    assert abs(report.mean_count_independent - expected) < 4 * sd
    with pytest.raises(ValidationError):
        poissonization_test(4, 2, 2.0, 10, Seed(7))
