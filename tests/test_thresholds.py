import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    FeatureProbabilities,
    OutOfRangeError,
    Seed,
    ThresholdStats,
    ValidationError,
    coupling_parameters,
    homogeneous_p_for_target,
    limit_probability,
    per_feature_mass,
    refined_threshold_rhs,
    summary_stats,
)
from oracles import balanced_feature_ratio, c_from_s1, oracle_stats


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


def test_coupling_parameters_branches_and_clamps():
    n = 100
    # tiny S2 forces the shifted mass negative -> clamp with flag
    stats = _inject_stats(n, 10, 10.0, 1.0, 9.0, 5.0)
    params = coupling_parameters(stats, n, omega=10.0)
    assert params.p_hat == 0.0 and params.clamped_p_hat
    # S3 = 0 selects the small-S3 branch and zeroes the triangle layer
    stats = _inject_stats(n, 10, 100.0, 100.0, 0.0, 50.0)
    params = coupling_parameters(stats, n, omega=2.0)
    assert params.regime == "small-S3"
    assert params.p_hat3 == 0.0 and not params.clamped_p_hat3
    with pytest.raises(ValidationError):
        coupling_parameters(stats, n, omega=0.0)
    with pytest.raises(ValidationError):
        coupling_parameters(stats, n, omega=2.0, variant="other")


def test_coupling_parameters_resubstitution_identity():
    n = 10**4
    m = n
    p = homogeneous_p_for_target(n, m, math.log(n) / m)
    stats = summary_stats(n, FeatureProbabilities.homogeneous(m, p), t_max=2)
    omega = math.log(math.log(n))
    params = coupling_parameters(stats, n, omega)
    assert params.regime == "dominant-S3"
    lhs = params.p_hat2 * 2 * math.comb(n, 2)
    rhs = stats.S1 - 3 * stats.S3 - omega * math.sqrt(stats.S1) - 2 * stats.S1**2 / n**2
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_coupling_parameters_exponential_variant():
    n = 10**4
    p = homogeneous_p_for_target(n, n, math.log(n) / n)
    stats = summary_stats(n, FeatureProbabilities.homogeneous(n, p), t_max=2)
    omega = 2.0
    lin = coupling_parameters(stats, n, omega, variant="linear")
    exp_ = coupling_parameters(stats, n, omega, variant="exponential")
    assert exp_.variant == "exponential"
    # 1-exp(-x) <= x: the exponential forms sit just below the linear ones
    assert exp_.p_hat <= lin.p_hat + 2 * stats.S2**2 / n**2
    assert 0.0 < exp_.p_hat2 < 1.0 and 0.0 < exp_.p_hat3 < 1.0
