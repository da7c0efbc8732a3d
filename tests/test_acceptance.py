"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here; the master seed makes each
criterion a deterministic check.
"""

import math
import time

import numpy as np
import pytest

from rig_lab import (
    FeatureProbabilities,
    Seed,
    SimpleGraph,
    couple_feature,
    hamiltonicity,
    has_perfect_matching,
    homogeneous_p_for_target,
    is_k_connected,
    limit_probability,
    poissonization_test,
    run_coupling_trial,
    summary_stats,
)
from rig_lab.experiments import (
    ExperimentConfig,
    emit_outputs,
    render_results_csv,
    render_summary_json,
    run_sweep,
)
from conftest import random_graph
from oracles import (
    clique_edges,
    oracle_hamiltonian,
    oracle_has_perfect_matching,
    oracle_stats,
    oracle_vertex_k_connected,
)

MASTER = 20260811


def report(num: int, ok: bool, elapsed: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s) - {detail}")


@pytest.fixture(scope="module")
def connectivity_sweep():
    """Shared by criteria 5 and 6 (same samples)."""
    config = ExperimentConfig(
        theorem="connectivity", n=2000, m=2000, c_grid=(-2.0, 0.0, 2.0),
        trials_per_point=400, master_seed=MASTER, experiment_id="accept-conn")
    start = time.monotonic()
    result = run_sweep(config)
    return result, time.monotonic() - start


def test_criterion_1_formula_identities():
    start = time.monotonic()
    rng = np.random.default_rng(MASTER)
    worst_identity = 0.0
    worst_oracle = 0.0
    oracle_checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 301))
        m = int(rng.integers(1, 61)) if n <= 40 else int(rng.integers(1, 501))
        log_p = rng.uniform(math.log(1e-3), math.log(0.9), size=m)
        pvec = tuple(float(x) for x in np.exp(log_p))
        st = summary_stats(n, FeatureProbabilities(pvec), t_max=n)
        worst_identity = max(worst_identity, abs(st.S2 + st.S3 - st.S1) / st.S1)
        worst_identity = max(worst_identity, abs(math.fsum(st.S1t) - st.S1) / st.S1)
        if n <= 40:
            oracle_checked += 1
            o1, o2, o3, o1t = oracle_stats(n, pvec)
            scale = max(o1, 1e-30)
            worst_oracle = max(worst_oracle, abs(st.S1 - o1) / scale)
            worst_oracle = max(worst_oracle, abs(st.S2 - o2) / scale)
            worst_oracle = max(worst_oracle, abs(st.S3 - o3) / scale)
            for got, want in zip(st.S1t, o1t):
                worst_oracle = max(worst_oracle, abs(got - want) / scale)
    elapsed = time.monotonic() - start
    ok = worst_identity < 1e-9 and worst_oracle < 1e-9 and elapsed < 30.0
    report(1, ok, elapsed,
           f"identities rel err {worst_identity:.2e}, oracle rel err {worst_oracle:.2e} "
           f"on {oracle_checked} instances with n<=40")
    assert worst_identity < 1e-9
    assert worst_oracle < 1e-9
    assert oracle_checked >= 20
    assert elapsed < 30.0


def test_criterion_2_poissonization_identity():
    start = time.monotonic()
    rep = poissonization_test(6, 3, 3.0, 20_000, Seed(MASTER).child("accept", "poisson"))
    elapsed = time.monotonic() - start
    q_expected = -math.expm1(-3.0 / 20)
    ok = (not rep.reject and rep.max_abs_z_draws < 3.0 and rep.max_abs_z_independent < 3.0
          and abs(rep.expected_probability - q_expected) < 1e-12 and elapsed < 60.0)
    report(2, ok, elapsed,
           f"per-hyperedge z <= ({rep.max_abs_z_draws:.2f}, {rep.max_abs_z_independent:.2f}), "
           f"chi2 p={rep.p_value:.3f} at alpha={rep.alpha}")
    assert abs(rep.expected_probability - 0.139292) < 1e-6
    assert rep.max_abs_z_draws < 3.0
    assert rep.max_abs_z_independent < 3.0
    assert not rep.reject
    assert elapsed < 60.0


def test_criterion_3_per_feature_coupling_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(MASTER + 3)
    seed = Seed(MASTER).child("accept", "couple-feature")
    trials = 10_000
    failures = 0
    for t in range(trials):
        n = int(rng.integers(3, 60))
        size = int(rng.integers(0, n + 1))
        if size == 1:
            size = 0
        odd = size % 2 if size >= 2 else 0
        g, members = couple_feature(size, odd, n, seed.child(t))
        if len(members) != size or not g.edges <= frozenset(clique_edges(members)):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0
    report(3, ok, elapsed, f"containment failures {failures}/{trials} (zero tolerance)")
    assert failures == 0


def test_criterion_4_coupling_chain_guards():
    start = time.monotonic()
    n = m = 3000
    p = FeatureProbabilities.homogeneous(m, homogeneous_p_for_target(n, m, math.log(n) / m))
    omega = math.log(math.log(n))
    seed = Seed(MASTER).child("accept", "chain")
    trials = 500
    guards_ok = 0
    containment_breaks = 0
    per_feature_breaks = 0
    for t in range(trials):
        rep = run_coupling_trial(n, p, omega, seed.child(t))
        if not rep.per_feature_contained:
            per_feature_breaks += 1
        if all(rep.guard_events.values()):
            guards_ok += 1
            if not rep.contained:
                containment_breaks += 1
    elapsed = time.monotonic() - start
    guard_rate = guards_ok / trials
    ok = (guard_rate >= 0.95 and containment_breaks == 0 and per_feature_breaks == 0
          and elapsed < 600.0)
    report(4, ok, elapsed,
           f"guards held {guards_ok}/{trials} ({guard_rate:.1%}), "
           f"containment breaks {containment_breaks} (zero tolerance)")
    assert guard_rate >= 0.95
    assert containment_breaks == 0
    assert per_feature_breaks == 0
    assert elapsed < 600.0


def test_criterion_5_connectivity_limit(connectivity_sweep):
    result, elapsed = connectivity_sweep
    predictions = {-2.0: 0.00062, 0.0: 0.36788, 2.0: 0.87342}
    gaps = {}
    for s in result.summaries:
        assert s.predicted == pytest.approx(predictions[s.c], abs=5e-6)
        gaps[s.c] = abs(s.frequency - limit_probability(s.c))
    freqs = [s.frequency for s in result.summaries]
    monotone = all(a <= b for a, b in zip(freqs, freqs[1:]))
    ok = all(g <= 0.10 for g in gaps.values()) and monotone and elapsed < 900.0
    report(5, ok, elapsed,
           "empirical vs f(c): " + ", ".join(
               f"c={c:+.0f}: gap {g:.3f}" for c, g in sorted(gaps.items()))
           + f"; monotone={monotone}")
    assert all(g <= 0.10 for g in gaps.values())
    assert monotone
    assert elapsed < 900.0


def test_criterion_6_min_degree_sandwich(connectivity_sweep):
    result, _ = connectivity_sweep
    start = time.monotonic()
    violations = sum(
        1 for r in result.records if r.outcome == "yes" and r.min_degree < 1)
    mid = [s for s in result.summaries if s.c == 0.0][0]
    gap = mid.min_degree_ok_frequency - mid.frequency
    elapsed = time.monotonic() - start
    ok = violations == 0 and 0.0 <= gap <= 0.05
    report(6, ok, elapsed,
           f"connected=>min-degree>=1 violations {violations}; "
           f"gap at c=0: {gap:.4f} (<= 0.05)")
    assert violations == 0
    assert gap >= 0.0  # per-trial implication makes the frequencies ordered
    assert gap <= 0.05


def test_criterion_7_perfect_matching():
    start = time.monotonic()
    config = ExperimentConfig(
        theorem="perfect-matching", n=1000, m=2000, c_grid=(0.0, 2.0),
        trials_per_point=300, master_seed=MASTER, experiment_id="accept-pm")
    result = run_sweep(config)
    elapsed = time.monotonic() - start
    assert all(pt.n_vertices == 2000 for pt in result.points)
    gaps = {s.c: abs(s.frequency - limit_probability(s.c)) for s in result.summaries}
    violations = sum(1 for r in result.records if r.outcome == "yes" and r.min_degree < 1)
    ok = all(g <= 0.10 for g in gaps.values()) and violations == 0
    report(7, ok, elapsed,
           "PM vs f(c): " + ", ".join(f"c={c:+.0f}: gap {g:.3f}" for c, g in sorted(gaps.items()))
           + f"; PM=>min-degree>=1 violations {violations}")
    assert all(g <= 0.10 for g in gaps.values())
    assert violations == 0


def test_criterion_8_hamiltonicity():
    start = time.monotonic()
    config = ExperimentConfig(
        theorem="hamiltonicity", n=1000, m=1000, c_grid=(-4.0, 4.0),
        trials_per_point=200, master_seed=MASTER, experiment_id="accept-hc")
    result = run_sweep(config)
    elapsed = time.monotonic() - start
    low = [s for s in result.summaries if s.c == -4.0][0]
    high = [s for s in result.summaries if s.c == 4.0][0]
    ok = (high.frequency >= 0.85 and low.frequency <= 0.15
          and low.unknown_rate < 0.05 and high.unknown_rate < 0.05
          and elapsed < 1200.0)
    report(8, ok, elapsed,
           f"freq(c=+4)={high.frequency:.3f} (>=0.85), freq(c=-4)={low.frequency:.3f} "
           f"(<=0.15), unknown rates ({low.unknown_rate:.1%}, {high.unknown_rate:.1%}), "
           f"a_n=({low.a_n:.3g}, {high.a_n:.3g})")
    assert high.frequency >= 0.85
    assert low.frequency <= 0.15
    assert low.unknown_rate < 0.05
    assert high.unknown_rate < 0.05
    assert elapsed < 1200.0


def test_criterion_9_oracle_equivalence(petersen):
    start = time.monotonic()
    rng = np.random.default_rng(MASTER + 9)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        for k in (1, 2, 3):
            if is_k_connected(g, k) != oracle_vertex_k_connected(n, g.edges, k):
                mismatches += 1
        if has_perfect_matching(g) != oracle_has_perfect_matching(n, g.edges):
            mismatches += 1
        if n >= 3:
            verdict = hamiltonicity(g, seed=Seed(MASTER).child("accept9", n))
            if verdict.verdict == "unknown" or \
               (verdict.verdict == "yes") != oracle_hamiltonian(n, g.edges):
                mismatches += 1
    fixtures_ok = (
        is_k_connected(petersen, 3) and not is_k_connected(petersen, 4)
        and has_perfect_matching(petersen)
        and hamiltonicity(petersen).verdict == "no")
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and fixtures_ok
    report(9, ok, elapsed,
           f"oracle mismatches {mismatches}/500 graphs; Petersen fixtures ok={fixtures_ok}")
    assert mismatches == 0
    assert fixtures_ok


def test_criterion_10_reproducibility(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(
        theorem="connectivity", n=300, m=300, c_grid=(-1.0, 0.0, 1.0),
        trials_per_point=30, master_seed=MASTER, experiment_id="accept-repro")
    runs = {
        "t1a": run_sweep(config, threads=1),
        "t1b": run_sweep(config, threads=1),
        "t2": run_sweep(config, threads=2),
        "t3": run_sweep(config, threads=3),
    }
    byte_sets = set()
    for name, res in runs.items():
        out = tmp_path / name
        emit_outputs(res, out)
        byte_sets.add((
            (out / "results.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        ))
    identical = len(byte_sets) == 1
    same_render = (render_results_csv(runs["t1a"]) == render_results_csv(runs["t2"])
                   and render_summary_json(runs["t1a"]) == render_summary_json(runs["t3"]))
    elapsed = time.monotonic() - start
    ok = identical and same_render
    report(10, ok, elapsed,
           f"byte-identical results.csv and summary.json across reruns and "
           f"thread counts 1/2/3: {identical}")
    assert identical
    assert same_render


def test_criterion_11_k_connectivity_zero_one():
    start = time.monotonic()
    freqs = {}
    for k in (2, 3):
        config = ExperimentConfig(
            theorem=f"k-connectivity({k})", n=300, m=300, c_grid=(-4.0, 4.0),
            trials_per_point=100, master_seed=MASTER, experiment_id=f"accept-kconn{k}")
        result = run_sweep(config)
        freqs[k] = {s.c: s.frequency for s in result.summaries}
    elapsed = time.monotonic() - start
    ok = all(f[4.0] >= 0.85 and f[-4.0] <= 0.15 for f in freqs.values())
    report(11, ok, elapsed, "; ".join(
        f"k={k}: freq(c=+4)={f[4.0]:.3f} (>=0.85), freq(c=-4)={f[-4.0]:.3f} (<=0.15)"
        for k, f in freqs.items()))
    for f in freqs.values():
        assert f[4.0] >= 0.85
        assert f[-4.0] <= 0.15
