import hashlib
import json
import math
import os
import re
import shlex
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    __version__,
    ExperimentConfig,
    HamiltonicityVerdict,
    PlanningError,
    RigInstance,
    Seed,
    SimpleGraph,
    ValidationError,
    compare_to_limit,
    emit_outputs,
    hamiltonicity,
    limit_probability,
    per_feature_mass,
    plan_point,
    project_rig,
    refined_threshold_rhs,
    run_sweep,
    sample_rig,
    summary_stats,
    wilson_interval,
)
from rig_lab.experiments import (SweepAborted, _judge, parse_law_tag, render_results_csv,
                                 render_summary_json)
from rig_lab.graphs import graph_to_text
from rig_lab.properties import DEFAULT_HC_BUDGET
from rig_lab.thresholds import _scale_explicit
from rig_lab import cli
from conftest import random_graph
from oracles import oracle_judge, oracle_scale_explicit


def make_config(**overrides):
    base = dict(
        theorem="connectivity",
        n=120,
        m=120,
        c_grid=(0.0,),
        trials_per_point=5,
        master_seed=99,
        experiment_id="t",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_law_tag_parsing():
    spec, k = parse_law_tag("k-connectivity(3)")
    assert spec.name == "k-connectivity" and k == 3
    spec, k = parse_law_tag("connectivity")
    assert spec.name == "connectivity" and k == 1
    with pytest.raises(ValidationError):
        parse_law_tag("connectivity(2)")
    with pytest.raises(ValidationError):
        parse_law_tag("k-connectivity")
    with pytest.raises(ValidationError):
        parse_law_tag("percolation")


def test_config_validation():
    with pytest.raises(ValidationError):
        make_config(c_grid=())
    with pytest.raises(ValidationError):
        make_config(c_grid=(1.0, 0.0))
    with pytest.raises(ValidationError):
        make_config(trials_per_point=0)
    with pytest.raises(ValidationError):
        make_config(profile={"kind": "magic"})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"theorem": "connectivity"})
    doc = dict(theorem="connectivity", n=50, m=50, c_grid=[0.0], trials_per_point=1, master_seed=1)
    # no sweep trial reads omega, so it is no config key
    with pytest.raises(ValidationError, match="unknown config fields"):
        ExperimentConfig.from_dict({**doc, "omega": 2.0})
    manifest = ExperimentConfig.from_dict(doc).manifest()
    assert "omega" not in manifest and manifest["version"] == __version__
    assert len(fields(ExperimentConfig)) == 9


def test_version_agrees_with_pyproject():
    # the manifest's version is what tells one summary.json shape from another
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_plan_point_connectivity_residual():
    cfg = make_config(n=1000, m=1000)
    pt = plan_point(cfg, 0.0)
    rhs = math.log(1000) / 1000
    p = pt.probabilities.values[0]
    assert abs(per_feature_mass(1000, p) - rhs) / rhs < 1e-10
    assert pt.predicted == pytest.approx(limit_probability(0.0))
    assert pt.s1_achieved == pytest.approx(pt.s1_target, rel=1e-8)


def test_plan_point_pm_doubles_vertices():
    cfg = make_config(theorem="perfect-matching", n=100, m=100)
    pt = plan_point(cfg, 0.0)
    assert pt.n_vertices == 200
    assert pt.s1_target == pytest.approx(200 * math.log(200))


def test_plan_point_explicit_profile_scaling():
    base = tuple(0.001 + 0.004 * (i % 7) for i in range(80))
    cfg = make_config(n=200, m=80, profile={"kind": "explicit", "values": list(base)})
    pt = plan_point(cfg, 0.0)
    st = summary_stats(200, pt.probabilities, t_max=2)
    assert abs(st.S1 - pt.s1_target) / pt.s1_target < 1e-8
    # scaled profile keeps the base shape
    ratios = [v / b for v, b in zip(pt.probabilities.values, base)]
    assert max(ratios) - min(ratios) < 1e-9 * max(ratios)


def test_plan_point_unattainable_reports_c():
    cfg = make_config(n=50, m=1)
    with pytest.raises(PlanningError) as err:
        plan_point(cfg, 10.0)
    assert "c=10.0" in str(err.value)


def test_plan_point_refined_laws():
    cfg = make_config(theorem="hamiltonicity-refined", n=2000, m=40000)
    pt = plan_point(cfg, 1.0)
    assert 0 < pt.probabilities.values[0] < 1
    cfg2 = make_config(theorem="k-connectivity-refined(2)", n=2000, m=40000)
    pt2 = plan_point(cfg2, -1.0)
    assert 0 < pt2.probabilities.values[0] < 1
    with pytest.raises(PlanningError):
        plan_point(make_config(theorem="hamiltonicity-refined", n=100, m=100,
                               profile={"kind": "explicit", "values": [0.01] * 100}), 0.0)
    # a NaN residual fails the solver's bracket and residual checks
    for law in ("hamiltonicity-refined", "k-connectivity-refined(2)", "k-connectivity-refined(3)"):
        with pytest.raises(PlanningError):
            plan_point(make_config(theorem=law, n=100, m=40), math.nan)


def test_plan_point_refined_k_past_the_float_range():
    # r^(k-1) overflows at p = 1e-15 for k >= 26 at n = m = 1000; the display
    # is then taken in logarithms, and the point passes the solver's residual check
    cfg = make_config(theorem="k-connectivity-refined(30)", n=1000, m=1000)
    pt = plan_point(cfg, 0.0)
    p = pt.probabilities.values[0]
    target = refined_threshold_rhs(1000, p, "k-connectivity", 30) / 1000
    assert abs(per_feature_mass(1000, p) - target) / target <= 1e-8
    assert pt.s1_achieved == pytest.approx(pt.s1_target, rel=1e-8)
    # a k past the float range is a planning error
    with pytest.raises(PlanningError):
        plan_point(make_config(theorem=f"k-connectivity-refined({10**400})"), 0.0)


def test_run_sweep_single_trial():
    cfg = make_config(trials_per_point=1, n=30, m=30)
    res = run_sweep(cfg)
    assert len(res.records) == 1
    assert res.summaries[0].frequency in (0.0, 1.0)


def _assert_no_children():
    """No child process of this one is left running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_determinism_and_thread_independence(tmp_path):
    cfg = make_config(c_grid=(-1.0, 1.0), trials_per_point=12, n=80, m=80)
    res1 = run_sweep(cfg, threads=1)
    emit_outputs(res1, tmp_path / "a")
    for threads in (2, 5):  # 5: more processes than cores, trial i in process i mod 5
        res2 = run_sweep(cfg, threads=threads)
        _assert_no_children()
        assert render_results_csv(res1) == render_results_csv(res2)
        assert render_summary_json(res1) == render_summary_json(res2)
        emit_outputs(res2, tmp_path / "b")
        for name in ("results.csv", "summary.json", "limit_table.dat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # timings.csv: wall time, per-stage totals over all trials, Hamiltonicity
    # effort, cut pairs sent to max-flow
    for side in ("a", "b"):
        header, row = (tmp_path / side / "timings.csv").read_text().splitlines()
        assert header == ("wall_seconds,sample_seconds,project_seconds,judge_seconds,hc_effort,"
                          "flow_pairs")
        *seconds, effort, flow_pairs = row.split(",")
        wall, sample, project, judge = map(float, seconds)
        # connectivity is decided on the incidence, so no trial projects
        assert sample > 0 and judge > 0 and project == 0.0 and effort == flow_pairs == "0"
        if side == "a":  # one process: the stages run inside the sweep's wall time
            assert sample + project + judge <= wall
    # perfect matching projects every trial that the degree bound does not rule out
    pm = run_sweep(make_config(theorem="perfect-matching", n=40, m=80, c_grid=(1.0,),
                               trials_per_point=6))
    emit_outputs(pm, tmp_path / "pm")
    row = (tmp_path / "pm" / "timings.csv").read_text().splitlines()[1]
    *seconds, effort, flow_pairs = row.split(",")
    wall, *stages = map(float, seconds)
    assert all(t > 0 for t in stages) and sum(stages) <= wall and effort == flow_pairs == "0"
    # the effort column sums the Hamiltonicity checker's effort over all trials
    hc = make_config(theorem="hamiltonicity", n=40, m=40, c_grid=(-1.0, 2.0),
                     trials_per_point=6)
    emit_outputs(run_sweep(hc), tmp_path / "hc")
    expected = 0
    for i, c in enumerate(hc.c_grid):
        pt = plan_point(hc, c, i)
        for t in range(hc.trials_per_point):
            trial_seed = Seed(hc.master_seed).child(hc.experiment_id, i, t)
            g = project_rig(sample_rig(pt.n_vertices, pt.probabilities, trial_seed.child("sample")))
            expected += hamiltonicity(g, hc.hc_budget, trial_seed.child("hc")).effort
    row = (tmp_path / "hc" / "timings.csv").read_text().splitlines()[1]
    effort, flow_pairs = row.split(",")[-2:]
    assert expected > 0 and int(effort) == expected and flow_pairs == "0"
    # k = 3 at m >> n runs the closure's float32 matmul in every process; one
    # here first starts the BLAS thread pool, which the helpers then fork with
    square = np.ones((512, 512), dtype=np.float32)
    assert (square @ square)[0, 0] == 512
    kc = make_config(theorem="k-connectivity(3)", n=60, m=600, c_grid=(-1.0, 1.0),
                     trials_per_point=8)
    emit_outputs(run_sweep(kc, threads=1), tmp_path / "kc1")
    for threads in (2, 5):
        emit_outputs(run_sweep(kc, threads=threads), tmp_path / f"kc{threads}")
        _assert_no_children()
        for name in ("results.csv", "summary.json"):
            assert ((tmp_path / "kc1" / name).read_bytes()
                    == (tmp_path / f"kc{threads}" / name).read_bytes())


def test_sweep_consistency_assertions_hold():
    cfg = make_config(theorem="hamiltonicity", n=40, m=40, c_grid=(2.0,), trials_per_point=6)
    res = run_sweep(cfg)
    assert all(r.outcome in ("yes", "no", "unknown") for r in res.records)


# The per-trial verdicts, "y" or "n" in (point, trial) order, of the min-degree
# laws that these sibling laws replaced, recorded from those laws at the same
# configs before their removal: ("min-degree", 80, 80) and
# ("min-degree-refined(2)", 100, 40), both at c = -1 and +1 with 10 trials
_MIN_DEGREE_VERDICTS = [
    ("connectivity", 80, 80, "nnnnnnynnnyyynnynnyy"),
    ("k-connectivity-refined(2)", 100, 40, "nnnnnnnnnnyyynnyynyn"),
]


@pytest.mark.parametrize("law, n, m, verdicts", _MIN_DEGREE_VERDICTS,
                         ids=[law for law, *_ in _MIN_DEGREE_VERDICTS])
def test_degree_ok_reproduces_the_min_degree_laws(law, n, m, verdicts):
    # a sibling law plans the same points and draws the same samples, so its
    # degree_ok is the min-degree verdict, trial by trial
    config = ExperimentConfig(theorem=law, n=n, m=m, c_grid=(-1.0, 1.0), trials_per_point=10,
                              master_seed=2024, experiment_id="law-pin")
    assert "".join("y" if r.degree_ok else "n" for r in run_sweep(config).records) == verdicts


def test_compare_to_limit_values():
    # c = -6 needs ln n > 6 for a positive S1 target
    cfg = make_config(c_grid=(-6.0, 0.0), trials_per_point=4, n=500, m=500)
    rows = compare_to_limit(run_sweep(cfg))
    assert rows[0]["predicted"] == pytest.approx(math.exp(-math.exp(6.0)), abs=1e-30)
    assert rows[1]["predicted"] == pytest.approx(math.exp(-1.0))
    for row in rows:
        assert row["covered"] in (True, False)
    cfg01 = make_config(theorem="hamiltonicity", n=40, m=40, c_grid=(-3.0, 3.0),
                        trials_per_point=3)
    rows01 = compare_to_limit(run_sweep(cfg01))
    assert rows01[0]["predicted"] == 0.0 and "a_n" in rows01[0]["note"]
    assert rows01[1]["predicted"] == 1.0


def test_emit_outputs_shapes(tmp_path):
    cfg = make_config(c_grid=(-1.0, 0.0, 1.0), trials_per_point=4, n=50, m=50)
    res = run_sweep(cfg)
    emit_outputs(res, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "theorem,c,n,m,trial,seed,verdict,unknown_flag"
    assert len(lines) - 1 == 3 * 4
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert len(doc["points"]) == 3
    assert doc["manifest"]["theorem"] == "connectivity"
    table = (tmp_path / "limit_table.dat").read_text().splitlines()
    assert table[0].startswith("#") and len(table) == 4
    # re-emit is byte-identical
    before = (tmp_path / "summary.json").read_bytes()
    emit_outputs(res, tmp_path)
    assert (tmp_path / "summary.json").read_bytes() == before


def test_emit_outputs_empty_grid_not_allowed_but_zero_records_ok(tmp_path):
    # an aborted-looking result with no records still writes valid files
    cfg = make_config()
    res = run_sweep(cfg)
    res.records = []
    emit_outputs(res, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines == ["theorem,c,n,m,trial,seed,verdict,unknown_flag"]
    json.loads((tmp_path / "summary.json").read_text())


def test_monotonicity_smoke_with_wilson_slack():
    # empirical frequency should be nondecreasing in c up to interval noise
    cfg = make_config(c_grid=(-2.0, -1.0, 0.0, 1.0, 2.0), trials_per_point=60,
                      n=200, m=200)
    res = run_sweep(cfg)
    for a, b in zip(res.summaries, res.summaries[1:]):
        slack = 2 * ((a.wilson_high - a.wilson_low) + (b.wilson_high - b.wilson_low)) / 2
        assert b.frequency >= a.frequency - slack, (a.c, b.c)


def _write_sweep_config(path, **overrides):
    path.write_text(json.dumps({"theorem": "connectivity", "n": 40, "m": 40, "c_grid": [0.0],
                                "trials_per_point": 6, "master_seed": 99, "experiment_id": "t",
                                **overrides}))
    return str(path)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_aborts_with_partial_records(monkeypatch, tmp_path, threads):
    import rig_lab.experiments as exp

    original = exp._judge

    def flaky(spec, k, inst, hc_budget, trial_seed):
        if trial_seed.labels[-1] == 3:  # fail exactly one trial
            raise RuntimeError("synthetic trial failure")
        return original(spec, k, inst, hc_budget, trial_seed)

    cfg = make_config(trials_per_point=6, n=40, m=40)
    full = run_sweep(cfg).records
    monkeypatch.setattr(exp, "_judge", flaky)
    with pytest.raises(exp.SweepAborted) as err:
        exp.run_sweep(cfg, threads=threads)
    _assert_no_children()
    assert str(err.value) == "sweep aborted: point 0 trial 3: RuntimeError: synthetic trial failure"
    partial = err.value.partial
    assert [r.trial for r in partial.records] == [0, 1, 2, 4, 5]
    assert partial.records == [r for r in full if r.trial != 3]
    emit_outputs(partial, tmp_path)  # partials can be flushed
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) - 1 == 5
    cfg_path = _write_sweep_config(tmp_path / "cfg.json")
    out = tmp_path / "cli"
    assert cli.main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--threads", str(threads)]) == cli.EXIT_ABORTED
    assert (out / "results.csv").read_text() == (tmp_path / "results.csv").read_text()


def test_sweep_threads_bound_starts_nothing(monkeypatch, tmp_path, capsys):
    import rig_lab.experiments as exp

    def refuse(*args):
        raise AssertionError("must not be reached")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(exp, "plan_point", refuse)
    with pytest.raises(ValidationError, match="threads"):
        run_sweep(make_config(), threads=exp.MAX_THREADS + 1)
    for threads in ("100000", "0"):
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", _write_sweep_config(tmp_path / "cfg.json"),
                         "--out", str(out), "--threads", threads]) == cli.EXIT_PLANNING
        err = capsys.readouterr().err
        assert err.startswith("error: threads") and err.count("\n") == 1
        assert not out.exists()


def test_sweep_forks_no_more_helpers_than_trials(monkeypatch):
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cfg = make_config(trials_per_point=2, n=30, m=30)
    assert len(run_sweep(cfg, threads=8).records) == 2
    _assert_no_children()
    assert len(forks) <= 1


def test_sweep_without_fork_runs_every_trial_in_the_caller(monkeypatch):
    cfg = make_config(c_grid=(-1.0, 1.0), trials_per_point=4, n=40, m=40)
    expected = render_results_csv(run_sweep(cfg))
    monkeypatch.delattr(os, "fork")
    assert render_results_csv(run_sweep(cfg, threads=4)) == expected


def test_cli_sweep_with_more_threads_than_trials(tmp_path, capsys):
    cfg_path = _write_sweep_config(tmp_path / "cfg.json", trials_per_point=3)
    for threads in ("1", "5"):
        assert cli.main(["sweep", "--config", cfg_path, "--out", str(tmp_path / threads),
                         "--threads", threads]) == cli.EXIT_OK
    _assert_no_children()
    for name in ("results.csv", "summary.json", "limit_table.dat"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "5" / name).read_bytes()


def test_dead_helper_aborts_the_sweep(monkeypatch, tmp_path, capsys):
    import rig_lab.experiments as exp

    parent, original = os.getpid(), exp.run_trial

    def dying(config, point, trial):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.2)  # the helper claims a trial meanwhile
        return original(config, point, trial)

    cfg = make_config(trials_per_point=4, n=40, m=40)
    full = {r.trial: r for r in run_sweep(cfg).records}
    monkeypatch.setattr(exp, "run_trial", dying)
    with pytest.raises(SweepAborted, match="exited with code 3") as err:
        run_sweep(cfg, threads=2)
    _assert_no_children()
    records = err.value.partial.records
    assert 0 < len(records) < 4
    assert records == [full[r.trial] for r in records]
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", _write_sweep_config(tmp_path / "cfg.json",
                                                              trials_per_point=4),
                     "--out", str(out), "--threads", "2"]) == cli.EXIT_ABORTED
    _assert_no_children()
    assert "exited with code 3" in capsys.readouterr().err
    assert 1 < len((out / "results.csv").read_text().splitlines()) < 5


def test_trial_i_runs_in_process_i_mod_p(monkeypatch):
    import rig_lab.experiments as exp

    monkeypatch.setattr(exp, "_attempt", lambda config, point, trial: os.getpid())
    cfg = make_config(c_grid=(-1.0, 1.0), trials_per_point=4, n=40, m=40)
    pids, lost = exp._run_trials(cfg, [None, None], threads=3)
    _assert_no_children()
    assert lost is None and pids[0] == os.getpid()
    assert len(set(pids[:3])) == 3 and pids == pids[:3] * 2 + pids[:2]


def test_interrupted_sweep_kills_its_helpers(monkeypatch):
    import rig_lab.experiments as exp

    parent = os.getpid()

    def interrupted(config, point, trial):
        if os.getpid() != parent:
            time.sleep(60)  # until killed
        time.sleep(0.2)  # the helper claims a trial meanwhile
        raise KeyboardInterrupt

    monkeypatch.setattr(exp, "run_trial", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(make_config(trials_per_point=4, n=40, m=40), threads=3)
    _assert_no_children()
    assert time.monotonic() - start < 30


_ORACLE_LAWS = ("connectivity", "perfect-matching", "hamiltonicity", "hamiltonicity-refined",
                "k-connectivity(1)", "k-connectivity(2)", "k-connectivity(3)",
                "k-connectivity-refined(1)", "k-connectivity-refined(2)",
                "k-connectivity-refined(3)")


def _assert_judge_matches_oracle(tags, inst, trial_seed):
    """The incidence judge against the projection judge it replaced: the same
    verdict, min degree >= the law's level exactly when degree_ok; wherever
    the oracle raises a ValidationError, no sweep config reaches `_judge`."""
    g = project_rig(inst)
    for tag in tags:
        spec, k = parse_law_tag(tag)
        level = k if spec.delta_level == 0 else spec.delta_level
        try:
            expected, deg = oracle_judge(spec, k, g, DEFAULT_HC_BUDGET, trial_seed)
        except ValidationError:
            with pytest.raises(ValidationError):
                make_config(theorem=tag, n=inst.n)
            continue
        verdict, degree_ok, *_ = _judge(spec, k, inst, DEFAULT_HC_BUDGET, trial_seed)
        assert (verdict, degree_ok) == (expected, deg >= level), (tag, inst.feature_sets)


@st.composite
def _incidences(draw):
    n = draw(st.integers(2, 12))
    feature = st.one_of(st.sets(st.integers(0, n - 1)), st.sets(st.integers(0, n - 1), max_size=1),
                        st.just(frozenset(range(n))))
    features = draw(st.lists(feature, min_size=1, max_size=8))
    if draw(st.booleans()):  # vertex 0 isolated
        features = [set(f) - {0} for f in features]
    return RigInstance(n, len(features), features)


@settings(max_examples=300, deadline=None)
@given(_incidences())
def test_judge_matches_projection_oracle_on_small_incidences(inst):
    _assert_judge_matches_oracle(_ORACLE_LAWS, inst, Seed(5).child("judge"))


# the six benchmark sweep configs, at reduced n
_BENCH_CONFIGS = [
    ("connectivity", 300, 300, (-2.0, 0.0, 2.0), {"kind": "homogeneous"}),
    ("connectivity", 300, 300, (-1.0, 1.0), {"kind": "explicit", "values": [1.0, 4.0] * 150}),
    ("perfect-matching", 150, 300, (0.0, 2.0), {"kind": "homogeneous"}),
    ("hamiltonicity", 150, 150, (-4.0, 4.0), {"kind": "homogeneous"}),
    ("k-connectivity(2)", 120, 120, (-1.0, 1.0), {"kind": "homogeneous"}),
    ("k-connectivity(3)", 60, 60, (-1.0, 1.0), {"kind": "homogeneous"}),
]


@pytest.mark.parametrize("law, n, m, c_grid, profile", _BENCH_CONFIGS,
                         ids=[f"{c[0]}-{c[4]['kind']}" for c in _BENCH_CONFIGS])
def test_judge_matches_projection_oracle_on_sweep_trials(law, n, m, c_grid, profile):
    cfg = make_config(theorem=law, n=n, m=m, c_grid=c_grid, profile=profile, master_seed=31)
    for i, c in enumerate(c_grid):
        pt = plan_point(cfg, c, i)
        for t in range(25):
            trial_seed = Seed(cfg.master_seed).child(cfg.experiment_id, i, t)
            inst = sample_rig(pt.n_vertices, pt.probabilities, trial_seed.child("sample"))
            _assert_judge_matches_oracle((law,), inst, trial_seed)


def test_judge_consistency_assertions_still_raise(monkeypatch, petersen):
    import rig_lab.experiments as exp

    spec, k = parse_law_tag("connectivity")
    monkeypatch.setattr(exp, "_incidence_connected", lambda inst: True)
    with pytest.raises(AssertionError, match="isolated vertex"):
        exp._judge(spec, k, RigInstance(3, 1, [{1, 2}]), 0, Seed(1))
    # vertex 0 has degree bound 2 from two copies of one edge, but degree 1
    spec, k = parse_law_tag("k-connectivity(2)")
    monkeypatch.setattr(exp, "_k_connected", lambda g, k: (True, 0))
    with pytest.raises(AssertionError, match="min degree below 2"):
        exp._judge(spec, k, RigInstance(3, 4, [{0, 1}, {0, 1}, {1, 2}, {1, 2}]), 0, Seed(1))
    # two triangles sharing vertex 2: min degree 2, and 2 is a cut vertex
    spec, k = parse_law_tag("hamiltonicity")
    monkeypatch.setattr(exp, "hamiltonicity",
                        lambda g, budget, seed: HamiltonicityVerdict("yes", None, 0))
    with pytest.raises(AssertionError, match="not 2-connected"):
        exp._judge(spec, k, RigInstance(5, 2, [{0, 1, 2}, {2, 3, 4}]), 0, Seed(1))
    # the Petersen graph is 3-connected, but 0, 1, ..., 9 is no Hamilton cycle of it
    monkeypatch.setattr(exp, "hamiltonicity",
                        lambda g, budget, seed: HamiltonicityVerdict("yes", tuple(range(10)), 0))
    with pytest.raises(AssertionError, match="not 2-connected"):
        exp._judge(spec, k, RigInstance(10, 15, petersen.edge_list()), 0, Seed(1))


def test_wilson_interval_contains_point_estimate():
    for yes, trials in ((0, 10), (3, 10), (10, 10), (200, 400)):
        lo, hi = wilson_interval(yes, trials)
        assert 0.0 <= lo <= yes / trials <= hi <= 1.0


def test_cli_stats_and_gen(tmp_path, capsys):
    rc = cli.main(["stats", "--n", "50", "--m", "20", "--p", "0.05"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"n", "m", "S1", "S2", "S3", "S1t", "a_n", "pair_mean", "triple_mean",
                        "p_hat2", "p_hat3", "regime", "omega"}
    with pytest.raises(SystemExit) as exc:  # the second sandwich formula is gone
        cli.main(["stats", "--n", "50", "--m", "20", "--p", "0.05", "--variant", "linear"])
    assert exc.value.code == 2 and "--variant" in capsys.readouterr().err
    for bad in ("inf", "nan", "1e308"):  # 1e308 is finite, but the law's means overflow
        assert cli.main(["stats", "--n", "10", "--m", "5", "--p", "0.5", "--omega", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    out = tmp_path / "g.txt"
    rc = cli.main(["gen", "--model", "rig", "--n", "15", "--m", "8", "--p", "0.2",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    rc = cli.main(["check", "--property", "mindeg", "--input", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "min_degree" in doc


@pytest.mark.parametrize("text", ["3 1\n1 x\n", "3 1\n0 1 2\n", "1000000000000 0\n",
                                  "5000000000 1\n0 4999999999\n"],
                         ids=["1 x", "0 1 2", "n=1e12", "n=5e9"])  # n * n reaches 2**63
def test_cli_check_rejects_malformed_edge_list(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc = cli.main(["check", "--property", "kconn", "--k", "2", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_reports_memory_error(tmp_path, capsys, monkeypatch):
    def refuse(text):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "graph_from_text", refuse)
    path = tmp_path / "g.txt"
    path.write_text("1000000000 0\n")
    assert cli.main(["check", "--property", "mindeg", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory: Unable to allocate 7.45 GiB for an array\n"


def test_cli_reports_bare_memory_error(tmp_path, capsys, monkeypatch):
    def refuse(text):
        raise MemoryError()

    monkeypatch.setattr(cli, "graph_from_text", refuse)
    path = tmp_path / "g.txt"
    path.write_text("4 0\n")
    assert cli.main(["check", "--property", "mindeg", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


@pytest.mark.parametrize("flags, rejected", [(["--property", "audit"], "'audit'"),
                                             (["--property", "pm", "--gamma", "0.6"], "--gamma")])
def test_cli_check_rejects_removed_audit_flags(tmp_path, capsys, flags, rejected):
    path = tmp_path / "g.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", *flags, "--input", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: rig-lab ") and "error: " in err and rejected in err
    assert "Traceback" not in err


_CHECK_HC_PINS = [  # (graph, verdict, effort, sha256 of stdout) of check --property hc --seed 11
    ("cycle(5)", "yes", 5, "f24d6d76530fd7801faea74fc58a42187d51078d78cf02c48d568f21efbde8d5"),
    ("petersen", "no", 41800, "eaa7b2386c2dd354b4c09f4d734093a1ca6ae9bddf2aebf41140eac357023ed1"),
    ("random(200, 0.04)", "yes", 396,
     "73539905f8d6a748d68ecc1d0e7f8dc59f1f9d4d4e14b070109de52b80514516"),
]


@pytest.mark.parametrize("name, verdict, effort, digest", _CHECK_HC_PINS,
                         ids=[pin[0] for pin in _CHECK_HC_PINS])
def test_cli_check_hamiltonicity_output_is_pinned(tmp_path, capsys, petersen, name, verdict,
                                                  effort, digest):
    # verdict, certificate and effort come from the hc stream and may not change silently
    if name == "cycle(5)":
        g = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    elif name == "petersen":
        g = petersen
    else:
        g = random_graph(np.random.default_rng(9), 200, 0.04)
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(g))
    assert cli.main(["check", "--property", "hc", "--input", str(path), "--seed", "11"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert (doc["verdict"], doc["effort"]) == (verdict, effort)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    cfg = {
        "theorem": "connectivity", "n": 40, "m": 40, "c_grid": [0.0],
        "trials_per_point": 3, "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "results.csv").exists()
    capsys.readouterr()

    bad = dict(cfg)
    bad["c_grid"] = [50.0]  # unattainable with m=40: rhs above 1
    bad["m"] = 2
    cfg_path.write_text(json.dumps(bad))
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out2")])
    assert rc == 2
    capsys.readouterr()

    missing = tmp_path / "nope.json"
    rc = cli.main(["sweep", "--config", str(missing), "--out", str(tmp_path / "out3")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("command, text", [
    ("stats", '{"values": [0.1, 0.2'),
    ("stats", '"0.1 0.2"'),
    ("stats", '{"vals": [0.1, 0.2]}'),
    ("stats", '{"values": [0.1, "0.2"]}'),
    ("stats", '[0.1, null]'),
    ("gen", '{"model": "rig", "n": 10'),
    ("gen", '["rig"]'),
    ("gen", '{"model": "rig", "n": "10", "m": 3, "p": 0.5}'),
    ("gen", '{"model": "lattice", "n": 10}'),
    ("sweep", '{"theorem": "connectivity", "n": 40'),
    ("sweep", '[]'),
])
def test_cli_rejects_malformed_json(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {
        "stats": ["stats", "--n", "10", "--profile", str(path)],
        "gen": ["gen", "--config", str(path)],
        "sweep": ["sweep", "--config", str(path), "--out", str(tmp_path / "out")],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("n", "100"), ("m", 40.0), ("trials_per_point", True), ("hc_budget", "1000"),
    ("master_seed", -1), ("master_seed", 2**64), ("master_seed", 1.5),
    ("c_grid", ["0.0"]), ("c_grid", [0.0, None]), ("profile", "homogeneous"),
    # omega is no config key, so every omega case takes the unknown-key path
    ("theorem", 5), ("omega", "x"), ("profile", {"kind": "explicit", "values": [0.01] * 39 + ["a"]}),
    ("experiment_id", 1.5), ("experiment_id", [1]), ("hc_budget", -1),
    ("omega", math.inf), ("omega", math.nan),  # json writes Infinity and NaN, and reads them back
    *(("profile", {"kind": "explicit", "values": [0.01] * 39 + [bad]})
      for bad in (0.0, -0.01, math.nan, math.inf)),
    # a NaN c on a refined law, and on an explicit profile
    (None, {"theorem": "hamiltonicity-refined", "n": 100, "c_grid": [0.0, math.nan]}),
    (None, {"theorem": "k-connectivity(2)", "c_grid": [0.0, math.nan],
            "profile": {"kind": "explicit", "values": [1.0, 4.0] * 20}}),
    # numbers past the float range, and counts past the int64 keys u * n + v and f * n + v
    pytest.param("n", 10**400, id="n-401-digits"),
    pytest.param("c_grid", [10**400], id="c_grid-401-digits"),
    pytest.param("omega", 10**400, id="omega-401-digits"),
    pytest.param(None, {"m": 2, "profile": {"kind": "explicit", "values": [1.0, 10**400]}},
                 id="profile-401-digits"),
    ("m", 10**29), ("n", 5_000_000_000),
    # more trials than a sweep plans at once
    ("trials_per_point", 10**6 + 1), (None, {"c_grid": [0.0, 1.0], "trials_per_point": 500_001}),
    # profile keys that the profile's kind does not read
    ("profile", {"kind": "homogeneous", "values": [1, 2]}),
    ("profile", {"kind": "homogeneous", "p": 0.1}),
    ("profile", {"kind": "explicit", "values": [0.01] * 40, "scale": 2.0}),
    pytest.param("omega", 2.0, id="omega-valid"),
    # the min-degree laws are gone: their verdict is every trial's degree_ok
    ("theorem", "min-degree"), ("theorem", "min-degree-refined(2)"),
    # a k past the float range fails planning, not with an OverflowError
    pytest.param("theorem", f"k-connectivity({10**400})", id="theorem-401-digit-k"),
    pytest.param("theorem", f"k-connectivity(1{'0' * 5000})", id="theorem-5001-digit-k"),
    # a Hamilton cycle needs 3 vertices, so every trial at n = 2 would fail
    pytest.param(None, {"theorem": "hamiltonicity", "n": 2}, id="hamiltonicity-n2"),
    pytest.param(None, {"theorem": "hamiltonicity-refined", "n": 2}, id="hamiltonicity-refined-n2"),
])
def test_cli_sweep_rejects_mistyped_config(tmp_path, capsys, field, value):
    cfg = {"theorem": "connectivity", "n": 40, "m": 40, "c_grid": [0.0],
           "trials_per_point": 2, "master_seed": 5}
    cfg.update({field: value} if field else value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_gen_accepts_json_config(tmp_path, capsys):
    cfg = {"model": "draws", "n": 10, "arity": 3, "draws": 4, "seed": 9, "hypergraph": True}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["gen", "--config", str(cfg_path)])
    assert rc == 0
    from_config = capsys.readouterr().out
    rc = cli.main(["gen", "--model", "draws", "--n", "10", "--arity", "3",
                   "--draws", "4", "--seed", "9", "--hypergraph"])
    assert rc == 0
    assert capsys.readouterr().out == from_config
    # flags override config values
    rc = cli.main(["gen", "--config", str(cfg_path), "--draws", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "10 3 0"
    rc = cli.main(["gen", "--model", "rig", "--m", "3", "--p", "0.5"])  # n missing
    assert rc == 2
    capsys.readouterr()

    def gen_output(doc, *flags):
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["gen", "--config", str(cfg_path), *flags]) == 0
        return capsys.readouterr().out

    # an omitted parameter takes the flag's default, and null means omitted
    no_arity = {"model": "draws", "n": 10, "draws": 4, "seed": 9, "hypergraph": True}
    assert cli.main(["gen", "--model", "draws", "--n", "10", "--draws", "4", "--seed", "9",
                     "--hypergraph"]) == 0
    by_flags = capsys.readouterr().out
    assert by_flags.splitlines()[0] == "10 2 4"
    assert gen_output(no_arity) == by_flags
    assert gen_output({**no_arity, "phat": None, "arity": None}) == by_flags
    # a flag wins over the config
    assert gen_output({**no_arity, "arity": 2}, "--arity", "3") == from_config


def test_readme_cli_examples_parse():
    # a renamed or removed flag, or config key, fails here until the README follows
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
                for line in block.splitlines() if line.startswith("rig-lab ")]
    assert len(commands) >= 9
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
    (config,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    ExperimentConfig.from_dict(json.loads(config))


def test_cli_couple_and_collector(capsys):
    rc = cli.main(["couple", "--n", "60", "--m", "60", "--p", "0.02",
                   "--trials", "3", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # 3 trial records + summary
    assert "summary" in lines[-1]
    rc = cli.main(["collector", "--n", "50", "--m", "50", "--p", "0.04",
                   "--trials", "2", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    bad_inputs = [[command, "--n", "50", "--m", "50", "--p", "0.05", *bad]
                  for command in ("couple", "collector")
                  for bad in (["--trials", "-1"], ["--trials", "0", "--omega", "-1"], ["--omega", "0"],
                              ["--omega", "inf"], ["--omega", "nan"], ["--omega", "1e308"])]
    bad_inputs += [
        # 5e-324 keeps the law finite but sends the collector's T_plus to infinity
        ["collector", "--n", "50", "--m", "50", "--p", "0.05", "--omega", "5e-324"],
        # the model is checked before the first trial, so a run of no trials fails too
        ["collector", "--n", "50", "--m", "50", "--p", "0.04", "--trials", "0", "--omega", "5e-324"],
        ["couple", "--n", "50", "--m", "50", "--p", "1e-300", "--trials", "0"],  # S1 = 0
    ]
    for argv in bad_inputs:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["couple", "collector"])
def test_cli_trials_plan_once_per_run(command, monkeypatch, capsys):
    from rig_lab import coupling

    calls = []
    original = coupling.summary_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coupling, "summary_stats", counting)
    assert cli.main([command, "--n", "60", "--m", "60", "--p", "0.03", "--trials", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert len(calls) == 1


@pytest.mark.parametrize("base, clipped", [
    ([1.0, 4.0] * 1000, 0),
    ([i ** -0.5 for i in range(1, 2001)], 0),  # heavy-tailed
    ([1.0] * 5 + [1e-4] * 1995, 5),  # the five large entries clip at 1 - 1e-12
])
def test_scale_explicit_matches_per_step_profiles(base, clipped):
    n = 2000
    s1_target = n * (math.log(n) + 1.0)
    planned = _scale_explicit(n, tuple(base), s1_target)
    assert planned == oracle_scale_explicit(n, tuple(base), s1_target)
    assert planned.values.tolist().count(1.0 - 1e-12) == clipped
