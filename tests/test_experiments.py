import json
import math
from pathlib import Path

import pytest

from rig_lab import (
    ExperimentConfig,
    FeatureProbabilities,
    PlanningError,
    ValidationError,
    compare_to_limit,
    emit_outputs,
    limit_probability,
    per_feature_mass,
    plan_point,
    run_sweep,
    summary_stats,
    wilson_interval,
)
from rig_lab.experiments import parse_law_tag, render_results_csv, render_summary_json
from rig_lab import cli


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
    cfg = ExperimentConfig.from_dict(dict(
        theorem="connectivity", n=50, m=50, c_grid=[0.0], trials_per_point=1, master_seed=1))
    assert cfg.manifest()["omega"] > 0


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


def test_run_sweep_single_trial():
    cfg = make_config(trials_per_point=1, n=30, m=30)
    res = run_sweep(cfg)
    assert len(res.records) == 1
    assert res.summaries[0].frequency in (0.0, 1.0)


def test_sweep_determinism_and_thread_independence(tmp_path):
    cfg = make_config(c_grid=(-1.0, 1.0), trials_per_point=12, n=80, m=80)
    res1 = run_sweep(cfg, threads=1)
    res2 = run_sweep(cfg, threads=2)
    assert render_results_csv(res1) == render_results_csv(res2)
    assert render_summary_json(res1) == render_summary_json(res2)
    emit_outputs(res1, tmp_path / "a")
    emit_outputs(res2, tmp_path / "b")
    for name in ("results.csv", "summary.json", "limit_table.dat"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_consistency_assertions_hold():
    cfg = make_config(theorem="hamiltonicity", n=40, m=40, c_grid=(2.0,), trials_per_point=6)
    res = run_sweep(cfg)
    assert all(r.outcome in ("yes", "no", "unknown") for r in res.records)
    cfg2 = make_config(theorem="min-degree", n=60, m=60, c_grid=(0.0,), trials_per_point=10)
    res2 = run_sweep(cfg2)
    s = res2.summaries[0]
    assert s.min_degree_ok_frequency == s.frequency  # same event for this law


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


def test_sweep_aborts_with_partial_records(monkeypatch, tmp_path):
    import rig_lab.experiments as exp

    original = exp._judge

    def flaky(spec, k, g, hc_budget, trial_seed):
        if trial_seed.labels[-1] == 3:  # fail exactly one trial
            raise RuntimeError("synthetic trial failure")
        return original(spec, k, g, hc_budget, trial_seed)

    monkeypatch.setattr(exp, "_judge", flaky)
    cfg = make_config(trials_per_point=6, n=40, m=40)
    with pytest.raises(exp.SweepAborted) as err:
        exp.run_sweep(cfg)
    partial = err.value.partial
    assert len(partial.records) == 5
    emit_outputs(partial, tmp_path)  # partials can be flushed
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) - 1 == 5


def test_wilson_interval_contains_point_estimate():
    for yes, trials in ((0, 10), (3, 10), (10, 10), (200, 400)):
        lo, hi = wilson_interval(yes, trials)
        assert 0.0 <= lo <= yes / trials <= hi <= 1.0


def test_cli_stats_and_gen(tmp_path, capsys):
    rc = cli.main(["stats", "--n", "50", "--m", "20", "--p", "0.05"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"n", "m", "S1", "S2", "S3", "S1t", "a_n", "p_hat", "p_hat2",
                        "p_hat3", "regime", "omega", "variant"}
    out = tmp_path / "g.txt"
    rc = cli.main(["gen", "--model", "rig", "--n", "15", "--m", "8", "--p", "0.2",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    rc = cli.main(["check", "--property", "mindeg", "--input", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "min_degree" in doc


@pytest.mark.parametrize("edge_line", ["1 x", "0 1 2"])
def test_cli_check_rejects_malformed_edge_list(tmp_path, capsys, edge_line):
    path = tmp_path / "bad.txt"
    path.write_text(f"3 1\n{edge_line}\n")
    rc = cli.main(["check", "--property", "kconn", "--k", "2", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
    ("theorem", 5), ("omega", "x"), ("profile", {"kind": "explicit", "values": [0.01] * 39 + ["a"]}),
    ("experiment_id", 1.5), ("experiment_id", [1]), ("hc_budget", -1),
])
def test_cli_sweep_rejects_mistyped_config(tmp_path, capsys, field, value):
    cfg = {"theorem": "connectivity", "n": 40, "m": 40, "c_grid": [0.0],
           "trials_per_point": 2, "master_seed": 5, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
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
