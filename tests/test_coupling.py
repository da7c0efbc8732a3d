import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    CoverageNotReached,
    FeatureProbabilities,
    Seed,
    ValidationError,
    coupon_collector_trial,
    couple_feature,
    homogeneous_p_for_target,
    poissonization_test,
    project_rig,
    run_coupling_trial,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from oracles import (clique_edges, oracle_coupon_collector_trial, oracle_couple_feature,
                     oracle_run_coupling_trial, split_sizes)


def test_couple_feature_examples():
    g, members = couple_feature(0, 8, Seed(1).child("a"))
    assert g.edge_count() == 0 and members == frozenset()
    g, members = couple_feature(2, 8, Seed(1).child("b"))
    assert g.edge_count() == 1 and len(members) == 2
    assert set(g.edge_list()[0]) == set(members)
    g, members = couple_feature(3, 8, Seed(1).child("c"))
    assert g.edge_count() == 3 and len(members) == 3
    assert set(g.edge_list()) == frozenset(clique_edges(members))


def test_couple_feature_validation():
    with pytest.raises(ValidationError):
        couple_feature(1, 8, Seed(1))
    with pytest.raises(ValidationError):
        couple_feature(9, 8, Seed(1))  # larger than the vertex set


def test_couple_feature_containment_randomized():
    rng = np.random.default_rng(12)
    master = Seed(2).child("cf")
    for trial in range(2000):
        n = int(rng.integers(3, 40))
        size = int(rng.integers(0, n + 1))
        if size == 1:
            size = 0
        g, members = couple_feature(size, n, master.child(trial))
        assert len(members) == size
        assert set(g.edge_list()) <= frozenset(clique_edges(members))


def test_per_feature_union_distribution_matches_direct_sampling():
    # identical graph-shape histograms from the two constructions (chi-square)
    n, m, trials = 4, 2, 100_000
    p = FeatureProbabilities.homogeneous(m, 0.35)
    direct = Counter()
    coupled = Counter()
    seed = Seed(3)
    for t in range(trials):
        inst = sample_rig(n, p, seed.child("direct", t))
        direct[frozenset(project_rig(inst).edge_list())] += 1
        rng = seed.child("coupled", t).rng()
        edges = set()
        for y in split_sizes(rng.binomial(n, p.values))[0]:
            g, members = couple_feature(y, n, rng)
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


def test_run_coupling_trial_edgeless_rig_and_empty_prefix():
    # every feature may stay below size 2; at omega = 0.01 the pair mean is
    # positive, so a drawn prefix edge is not contained in the edgeless rig,
    # and at omega = 2 both means are negative, so the prefix is empty
    n, p = 40, FeatureProbabilities.homogeneous(5, 0.04)
    kinds = set()
    for omega in (0.01, 2.0):
        for t in range(100):
            seed = Seed(5).child("edgeless", t)
            report = run_coupling_trial(n, p, omega, seed)
            assert report == oracle_run_coupling_trial(n, p, omega, seed)
            if report.rig_edge_count == 0:
                kinds.add(report.prefix_edge_count > 0)
                assert report.contained == (report.prefix_edge_count == 0)
    assert kinds == {False, True}


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
    report = run_coupling_trial(n, p, omega, seed)
    assert report == oracle_run_coupling_trial(n, p, omega, seed)
    assert 2 * report.pair_draws + 3 * report.triple_draws == report.active_size_sum


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
    assert couple_feature(size, n, seed) == oracle_couple_feature(size, odd, n, seed)
    # through a shared generator, the stream continues where each call left it
    rng, oracle_rng = seed.rng(), seed.rng()
    for _ in range(3):
        assert couple_feature(size, n, rng) == oracle_couple_feature(size, odd, n, oracle_rng)


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


class _NeverVertexZero:
    """A coupon stream on which vertex 0 never comes up: each 0 drawn becomes 1."""

    def __init__(self, rng):
        self.rng = rng

    def integers(self, low, high, size):
        draws = self.rng.integers(low, high, size=size)
        draws[draws == 0] = 1
        return draws


def test_collector_coverage_cap_is_a_typed_error(monkeypatch, capsys):
    from rig_lab import cli

    original = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: _NeverVertexZero(original(self))
                        if self.labels[-1] == "coupons" else original(self))
    p = FeatureProbabilities.homogeneous(3, 0.3)
    with pytest.raises(CoverageNotReached, match="coverage not reached") as exc:
        coupon_collector_trial(12, p, 2.0, Seed(5))
    with pytest.raises(CoverageNotReached) as oracle_exc:
        oracle_coupon_collector_trial(12, p, 2.0, Seed(5))
    assert str(exc.value) == str(oracle_exc.value)  # the same cap
    assert issubclass(CoverageNotReached, ValidationError)
    rc = cli.main(["collector", "--n", "20", "--m", "20", "--p", "0.1", "--trials", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: coupon coverage not reached") and "Traceback" not in err


@pytest.mark.parametrize("n, p, trials", [
    (2000, FeatureProbabilities.homogeneous(2000, 0.0044), 3),
    (2, FeatureProbabilities.homogeneous(5, 0.5), 20),
    (12, FeatureProbabilities.homogeneous(3, 1e-9), 5),  # every feature empty
    (40, FeatureProbabilities((1 - 1e-12,)), 5),  # one feature holding every vertex
    # a phase of about 24k draws, across several 4096-draw blocks
    (3000, FeatureProbabilities((1 - 1e-12,)), 3),
    (10, FeatureProbabilities.homogeneous(500, 0.05), 10),  # m >> n
], ids=["n=m=2000", "n=2", "all-empty", "one-full", "one-full-many-blocks", "m>>n"])
def test_collector_matches_per_draw_oracle(n, p, trials):
    for t in range(trials):
        seed = Seed(17).child("oracle", t)
        report = coupon_collector_trial(n, p, 2.0, seed)
        assert dataclasses.asdict(report) == dataclasses.asdict(
            oracle_coupon_collector_trial(n, p, 2.0, seed))


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
            freq.update(map(tuple, sample(rng).rows().tolist()))
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
