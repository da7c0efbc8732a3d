import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    FeatureProbabilities,
    OutOfRangeError,
    ThresholdStats,
    Seed,
    ValidationError,
    cli,
    homogeneous_p_for_target,
    limit_probability,
    per_feature_mass,
    refined_threshold_rhs,
    run_coupling_trial,
    summary_stats,
)
from rig_lab.thresholds import _distinct, _fsum, _scale_explicit, _weights, sandwich_law
from oracles import (balanced_feature_ratio, c_from_s1, oracle_feature_sums, oracle_fsum,
                     oracle_run_coupling_trial, oracle_stats)


def test_hand_example_n3():
    st_ = summary_stats(3, FeatureProbabilities.homogeneous(2, 0.5), t_max=3)
    assert st_.S1 == pytest.approx(2.25, rel=1e-12)
    assert st_.S2 == pytest.approx(2.0, rel=1e-12)
    assert st_.S3 == pytest.approx(0.25, rel=1e-12)
    assert st_.S1t[0] == pytest.approx(1.5, rel=1e-12)
    assert st_.S1t[1] == pytest.approx(0.75, rel=1e-12)
    assert st_.a_n == pytest.approx(1.5 / 2.25, rel=1e-12)


def test_two_vertex_case_against_oracle():
    # at n=2 only even sizes contribute, so the odd mass S3 vanishes
    q = 0.5
    st_ = summary_stats(2, FeatureProbabilities((q,)), t_max=2)
    o1, o2, o3, o1t = oracle_stats(2, [q])
    assert st_.S1 == pytest.approx(2 * q * q, rel=1e-12)
    assert st_.S1 == pytest.approx(o1, rel=1e-12)
    assert st_.S2 == pytest.approx(o2, rel=1e-12)
    assert st_.S3 == pytest.approx(o3, abs=1e-12)
    assert st_.S1t[0] == pytest.approx(o1t[0], rel=1e-12)


def test_stats_match_oracle_random_instances():
    rng = np.random.default_rng(607)
    for _ in range(12):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 25))
        pvec = tuple(float(x) for x in rng.uniform(1e-6, 0.95, size=m))
        st_ = summary_stats(n, FeatureProbabilities(pvec), t_max=n)
        o1, o2, o3, o1t = oracle_stats(n, pvec)
        assert st_.S1 == pytest.approx(o1, rel=1e-9)
        assert st_.S2 == pytest.approx(o2, rel=1e-9)
        assert st_.S3 == pytest.approx(o3, rel=1e-9, abs=1e-12)
        for got, want in zip(st_.S1t, o1t):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# finite terms of both signs, with subnormals, the smallest normal and near-cancelling pairs;
# at most 1e250, so no count up to 2**40 overflows a piece or a sum
_TERM = st.one_of(
    st.floats(-1e250, 1e250, allow_nan=False, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0,
                     1.0 + 2**-52, -(1.0 + 2**-52), 1e16, -1e16, 0.0]),
)


def _pool_entries(data, max_count):
    """Terms drawn from a small pool (so values repeat) and their counts."""
    pool = data.draw(st.lists(_TERM, min_size=1, max_size=6))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                         st.integers(1, max_count)), min_size=1, max_size=12))
    return (np.array([pool[i] for i, _ in picks], dtype=np.float64),
            np.array([c for _, c in picks], dtype=np.int64))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fsum_matches_m_term_oracle(data):
    terms, counts = _pool_entries(data, 60)
    want = oracle_fsum(terms, counts).hex()
    assert _fsum(terms, _weights(counts)).hex() == want
    distinct, weights = _distinct(np.repeat(terms, counts))  # as summary_stats sums
    assert _fsum(distinct, weights).hex() == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fsum_with_counts_to_2_40_is_the_rounded_exact_sum(data):
    # m-term lists this long cannot be built; math.fsum of one is the exact sum
    # rounded to nearest, ties to even, which float(Fraction) also gives
    terms, counts = _pool_entries(data, 2**40)
    exact = sum(Fraction(t) * int(c) for t, c in zip(terms.tolist(), counts.tolist()))
    assert _fsum(terms, _weights(counts)).hex() == float(exact).hex()


def _scaled(base):
    n = 2000
    return _scale_explicit(n, tuple(base), n * (math.log(n) + 1.0)).values


_PROFILES = {
    "three": lambda: np.repeat([0.01, 0.02, 0.3], [500, 500, 7]),
    "nine": lambda: np.repeat(np.random.default_rng(23).uniform(1e-6, 0.6, 9),
                              np.random.default_rng(24).integers(1, 300, 9)),
    "homogeneous": lambda: np.full(40_000, 3e-5),
    "distinct": lambda: np.random.default_rng(25).uniform(1e-4, 0.99, 300),  # counts all 1
    "extremes": lambda: np.repeat([1e-300, 0.5, 0.5 + 2**-53, 1 - 1e-12], [3, 1, 4, 2]),
    # the three bases of test_scale_explicit_matches_per_step_profiles, as planned
    "two-scaled": lambda: _scaled([1.0, 4.0] * 1000),
    "heavy-scaled": lambda: _scaled([i ** -0.5 for i in range(1, 2001)]),
    "clipped-scaled": lambda: _scaled([1.0] * 5 + [1e-4] * 1995),
}


@pytest.mark.parametrize("profile", list(_PROFILES))
def test_summary_stats_matches_m_term_sums(profile):
    values = _PROFILES[profile]()
    for n in (2, 50, 2000):
        t_max = min(n, 12)
        for order in (values, np.random.default_rng(n).permutation(values)):
            st_ = summary_stats(n, FeatureProbabilities(order), t_max=t_max)
            assert (st_.S1, st_.S2, st_.S3, st_.S1t) == oracle_feature_sums(n, order, t_max)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stat_identities(data):
    n = data.draw(st.integers(2, 300))
    m = data.draw(st.integers(1, 30))
    pvec = tuple(data.draw(st.floats(1e-9, 1 - 1e-9, allow_nan=False)) for _ in range(m))
    st_ = summary_stats(n, FeatureProbabilities(pvec), t_max=n)
    assert st_.S2 + st_.S3 == pytest.approx(st_.S1, rel=1e-9, abs=1e-12)
    assert math.fsum(st_.S1t) == pytest.approx(st_.S1, rel=1e-9, abs=1e-12)
    assert 0.0 <= st_.a_n <= 1.0 + 1e-12


def test_s1_monotone_in_each_entry():
    base = (0.1, 0.4, 0.02)
    st0 = summary_stats(50, FeatureProbabilities(base), t_max=2)
    for i in range(3):
        bumped = list(base)
        bumped[i] += 1e-4
        st1 = summary_stats(50, FeatureProbabilities(tuple(bumped)), t_max=2)
        assert st1.S1 >= st0.S1


def test_degenerate_small_p_limit():
    st_ = summary_stats(10, FeatureProbabilities.homogeneous(3, 1e-13), t_max=3)
    assert st_.S1 < 1e-9 and st_.S2 < 1e-9 and st_.S3 < 1e-9


def test_limit_probability():
    assert limit_probability(-math.inf) == 0.0
    assert limit_probability(math.inf) == 1.0
    assert limit_probability(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    # stay inside the float range where exp(-exp(-c)) has distinct values
    xs = np.linspace(-6, 8, 41)
    vals = [limit_probability(float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)
    with pytest.raises(ValidationError):
        limit_probability(float("nan"))


def test_c_from_s1_inverse():
    assert c_from_s1(100, 100 * math.log(100)) == pytest.approx(0.0, abs=1e-12)
    s1 = 100 * (math.log(100) + math.log(math.log(100)) + 2.0)
    assert c_from_s1(100, s1, kind="hamiltonicity") == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = float(rng.uniform(-5, 5))
        n = int(rng.integers(3, 5000))
        k = int(rng.integers(1, 5))
        s1 = n * (math.log(n) + (k - 1) * math.log(math.log(n)) + c)
        if s1 < 0:
            continue
        assert c_from_s1(n, s1, k=k) == pytest.approx(c, abs=1e-12)
    with pytest.raises(ValidationError):
        c_from_s1(2, 10.0, k=2)


def test_homogeneous_solve():
    # closed form at n=2: g(p) = p^2
    assert homogeneous_p_for_target(2, 1, 0.25) == pytest.approx(0.5, rel=1e-10)
    p = homogeneous_p_for_target(1000, 1000, math.log(1000) / 1000)
    resid = abs(per_feature_mass(1000, p) - math.log(1000) / 1000) / (math.log(1000) / 1000)
    assert resid < 1e-10
    for rhs in (1e-9, 1e-4, 0.2, 0.9):
        p = homogeneous_p_for_target(50, 10, rhs)
        assert abs(per_feature_mass(50, p) - rhs) / rhs < 1e-10
    with pytest.raises(OutOfRangeError):
        homogeneous_p_for_target(100, 10, 1.5)
    with pytest.raises(OutOfRangeError):
        homogeneous_p_for_target(100, 10, 0.0)


def test_refined_rhs_clamps_to_log_n():
    # once np is large the inner max argument drops below 1
    n = 1000
    assert refined_threshold_rhs(n, 0.5, "hamiltonicity") == pytest.approx(math.log(n))
    assert refined_threshold_rhs(n, 0.5, "k-connectivity", k=2) == pytest.approx(math.log(n))


def test_refined_rhs_k1_reduction():
    # with k=1 the connectivity display reduces to ln n + ln(1 + r)
    n = 1000
    x = 2.0
    p = x / n
    r = math.exp(-x) * math.log(n) / (1 - math.exp(-x))
    expected = math.log(n) + math.log(1.0 + r)
    assert refined_threshold_rhs(n, p, "k-connectivity", k=1) == pytest.approx(expected, rel=1e-12)
    assert 1.0 + r == pytest.approx(2.0813, abs=2e-4)


def test_refined_rhs_hamiltonicity_chain():
    n = 10**4
    p = 1.0 / n
    inner = math.log(1.0 * math.exp(-1.0) * math.log(n) / (1 - math.exp(-1.0)))
    assert inner == pytest.approx(1.6790, abs=2e-4)
    expected = math.log(n) + math.log(inner)
    assert refined_threshold_rhs(n, p, "hamiltonicity") == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError):
        refined_threshold_rhs(n, 0.0, "hamiltonicity")
    with pytest.raises(ValidationError):
        refined_threshold_rhs(n, 1.0, "hamiltonicity")


def test_balanced_feature_ratio():
    beta, slope = balanced_feature_ratio(math.log(2))
    assert beta == pytest.approx(1.0 / (math.log(2) * 0.5), rel=1e-12)
    assert beta == pytest.approx(2.8854, abs=1e-4)
    rng = np.random.default_rng(8)
    for _ in range(40):
        gamma = float(rng.uniform(0.01, 100.0))
        b, s = balanced_feature_ratio(gamma)
        assert b * gamma * (1 - math.exp(-gamma)) == pytest.approx(1.0, rel=1e-12)
        assert s == pytest.approx(1 + gamma * math.exp(-gamma) / (1 - math.exp(-gamma)), rel=1e-12)
    assert balanced_feature_ratio(50.0)[0] == pytest.approx(0.02, rel=1e-10)
    with pytest.raises(ValidationError):
        balanced_feature_ratio(0.0)


def _inject_stats(n, m, s1, s2, s3, s12):
    return ThresholdStats(n=n, m=m, S1=s1, S2=s2, S3=s3, S1t=(s12,), a_n=s12 / s1)


def _stats_doc(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["stats", *argv]) == 0
    return json.loads(out.getvalue())


def _oracle_means(n, p, omega, seed):
    """oracle_run_coupling_trial's report and the two Poisson means it computes
    inline, read from its frame as it returns."""
    means = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is oracle_run_coupling_trial.__code__:
            means.update(frame.f_locals)

    sys.setprofile(profile)
    try:
        report = oracle_run_coupling_trial(n, p, omega, seed)
    finally:
        sys.setprofile(None)
    return report, means["mean_pairs"], means["mean_triples"]


def test_coupling_parameters_resubstitution_identity():
    """stats prints the chain's means, and -C(n, i) log1p(-p_hat_i) gives them back."""
    crit4_p = homogeneous_p_for_target(3000, 3000, math.log(3000) / 3000)
    # criterion 4 (S1 = n ln n, omega = ln ln n), and the first couple output pin
    for n, p, omega, regime in ((3000, crit4_p, math.log(math.log(3000)), "dominant-S3"),
                                (300, 0.019, 2.0, "small-S3")):
        doc = _stats_doc(["--n", str(n), "--m", str(n), "--p", repr(p), "--omega", repr(omega)])
        assert doc["regime"] == regime
        probs = FeatureProbabilities.homogeneous(n, p)
        seed = Seed(7).child("couple", 0)
        oracle, mean_pairs, mean_triples = _oracle_means(n, probs, omega, seed)
        assert (doc["pair_mean"], doc["triple_mean"]) == (mean_pairs, mean_triples)
        for arity, mean in ((2, mean_pairs), (3, mean_triples)):
            mass = -math.comb(n, arity) * math.log1p(-doc[f"p_hat{arity}"])
            assert mass == pytest.approx(max(0.0, mean), rel=1e-12)
        report = run_coupling_trial(n, probs, omega, seed)
        assert report == oracle and report.regime_infeasible == (regime == "small-S3")
        rng = seed.child("poisson").rng()
        assert report.poisson_pairs == rng.poisson(max(0.0, mean_pairs))
        assert report.poisson_triples == rng.poisson(max(0.0, mean_triples))
    assert mean_triples == pytest.approx(-20.7, abs=0.05)  # clamped to 0: no triple is drawn


def test_coupling_parameters_branches_and_clamps(monkeypatch):
    """On injected stats: S3 = 0 gives the small-S3 regime and p_hat3 = 0, a
    negative pair mean p_hat2 = 0, and omega must be > 0."""
    n = 100
    for stats, omega in ((_inject_stats(n, 10, 100.0, 100.0, 0.0, 50.0), 2.0),
                         (_inject_stats(n, 10, 10.0, 1.0, 9.0, 5.0), 10.0)):
        monkeypatch.setattr(cli, "summary_stats", lambda *args, **kwargs: stats)
        doc = _stats_doc(["--n", str(n), "--m", "10", "--p", "0.5", "--omega", str(omega)])
        assert doc["regime"] == "small-S3" and doc["triple_mean"] < 0 and doc["p_hat3"] == 0.0
    assert doc["pair_mean"] < 0 and doc["p_hat2"] == 0.0
    with pytest.raises(ValidationError):
        sandwich_law(stats, 0.0)


def test_coupling_parameters_exponential_variant():
    """The one law maps each mean through the exponential form
    p_hat_i = 1 - exp(-mean_i / C(n, i)), which stays inside (0, 1) and
    sits just below the linear form mean_i / C(n, i)."""
    n = 10**4
    p = homogeneous_p_for_target(n, n, math.log(n) / n)
    doc = _stats_doc(["--n", str(n), "--m", str(n), "--p", repr(p), "--omega", "2.0"])
    assert doc["regime"] == "dominant-S3"
    for arity, key in ((2, "pair_mean"), (3, "triple_mean")):
        linear = doc[key] / math.comb(n, arity)
        assert 0.0 < doc[f"p_hat{arity}"] < 1.0
        assert doc[f"p_hat{arity}"] == -math.expm1(-linear)
        assert linear * (1.0 - linear / 2.0) <= doc[f"p_hat{arity}"] <= linear
