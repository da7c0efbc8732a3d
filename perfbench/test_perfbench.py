"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import math

import pytest

from metrics import layer_metrics, metric_record, percentile, tail_percentile
from run import check_outputs
from spans import Span, Tracer, self_time, self_times
from workloads import WORKLOADS, round_commands, round_trials


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # overlapping children count once; the part of a child outside the parent is ignored
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, [(11.0, 12.0), (-2.0, -1.0)]) == 10.0
    assert self_time(0.0, 10.0, [(-1.0, 11.0)]) == 0.0


def test_self_times_follow_parent_links():
    spans = [Span("a", "t", -1, 0.0, 10.0), Span("b", "t", 0, 1.0, 4.0),
             Span("c", "t", 1, 2.0, 3.0), Span("d", "t", 0, 6.0, 7.0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracer_nests_spans_and_inherits_the_trace():
    tracer = Tracer()
    with tracer.span("outer", "r0/c0"):
        with tracer.span("inner") as inner:
            inner.counts["edges"] = 3
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert inner.trace == "r0/c0"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(20))[0] == 50.0
    assert tail_percentile(range(99))[0] == 50.0
    assert tail_percentile(range(100)) == (90.0, pytest.approx(89.1))
    assert tail_percentile(range(999))[0] == 90.0
    assert tail_percentile(range(1000))[0] == 99.0
    assert tail_percentile(range(10000))[0] == 99.9


def test_percentile_interpolates_between_ranks():
    assert percentile([], 90.0) == 0.0
    assert percentile([5.0], 90.0) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


SPEC = [{"name": "trials_per_s", "unit": "1/s"}, {"name": "setup_s", "unit": "s"}]


def test_metric_record_names_every_metric_with_its_unit():
    record = metric_record(SPEC, {"setup_s": 1.25, "trials_per_s": 8}, positive=True)
    assert list(record) == ["trials_per_s", "setup_s"]
    assert record["trials_per_s"] == {"value": 8.0, "unit": "1/s"}
    assert metric_record(SPEC, {"setup_s": 0.0, "trials_per_s": 0.0}, positive=False)


@pytest.mark.parametrize("values", [
    {"trials_per_s": 8.0},
    {"trials_per_s": 8.0, "setup_s": 1.0, "extra": 1.0},
    {"trials_per_s": math.nan, "setup_s": 1.0},
    {"trials_per_s": 0.0, "setup_s": 1.0},
])
def test_metric_record_rejects_incomplete_or_unusable_values(values):
    with pytest.raises(ValueError):
        metric_record(SPEC, values, positive=True)


def test_layer_metrics_shares_and_counts():
    spans = [
        Span("experiments.plan_point", "r0/c0", -1, 0.0, 0.5),
        Span("experiments.trial", "r0/c0/p0/t0", -1, 1.0, 2.0),
        Span("sampling.sample_rig", "r0/c0/p0/t0", 1, 1.0, 1.2, {"incidences": 10}),
        Span("graphs.project_rig", "r0/c0/p0/t0", 1, 1.2, 1.5, {"edges": 6, "clique_pairs": 8}),
        Span("properties.is_connected", "r0/c0/p0/t0", 1, 1.5, 2.0),
        Span("experiments.emit_outputs", "r0/c0", -1, 2.0, 2.5),
    ]
    probes = [{"import_s": 1.0, "scipy_s": 0.5}]
    rounds = [{"id": "r0", "trials": 1, "one_s": 1.5}]
    m = layer_metrics(spans, rounds, probes, rate_1proc=2.0, rate_2proc=3.0)
    assert m["experiments.plan_ms"] == pytest.approx(500.0)
    assert m["sampling.share"] == pytest.approx(0.2)
    assert m["graphs.share"] == pytest.approx(0.3)
    assert m["properties.share"] == pytest.approx(0.5)
    assert m["graphs.dedup_ratio"] == pytest.approx(0.75)
    assert m["experiments.pool_efficiency"] == pytest.approx(0.75)
    assert m["cli.import_scipy_share"] == pytest.approx(0.5)
    assert m["trace.overhead_share"] == pytest.approx(1.5 / 2.0)
    assert m["experiments.fixed_share"] == pytest.approx(1.0 / 1.5)
    # one trial has no tail with ten trials beyond it
    assert (m["experiments.trial_ms_tail"], m["experiments.trial_tail_pct"]) == (0.0, 0.0)
    assert m["coupling.chain_trial_ms"] == 0.0


def test_layer_metrics_trial_tail_follows_the_ten_beyond_rule():
    spans = [Span("experiments.trial", f"r0/c0/p0/t{t}", -1, 0.0, (t + 1) / 1000.0)
             for t in range(100)]
    m = layer_metrics(spans, [{"id": "r0", "trials": 100, "one_s": 1.0}],
                      [{"import_s": 1.0, "scipy_s": 0.5}], rate_1proc=1.0, rate_2proc=1.0)
    assert m["experiments.trial_tail_pct"] == 90.0
    assert m["experiments.trial_ms_tail"] == pytest.approx(90.1)
    assert m["experiments.trial_ms_p50"] == pytest.approx(50.5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_are_a_pure_function_of_the_seed(workload):
    def commands(seed, r):
        return round_commands(workload, seed, r, ["a.json", "b.json"], "0.001", 1, "out")

    assert commands(7, 0) == commands(7, 0)
    assert commands(7, 0) != commands(7, 1)
    assert commands(7, 0) != commands(8, 0)
    assert sum(c["trials"] for c in commands(7, 0)) == round_trials(workload)


def test_check_outputs_counts_broken_coupling_certificates(tmp_path):
    def trial(t, contained, per_feature=True):
        return {"trial": t, "contained": contained, "per_feature_contained": per_feature,
                "guard_events": {"poisson_pairs_ok": True, "size_concentration_ok": True}}

    lines = [trial(0, True), trial(1, False), trial(2, True, per_feature=False), {"summary": {}}]
    (tmp_path / "stdout.txt").write_text("".join(json.dumps(d) + "\n" for d in lines))
    cmd = {"kind": "couple", "trials": 3, "out": str(tmp_path), "argv": ["couple"]}
    failed, problems = check_outputs(cmd, 0)
    assert failed == 2 and len(problems) == 2
    assert check_outputs(cmd, 1) == (3, [f"{tmp_path} (couple): exit code 1"])


def test_check_outputs_counts_unknown_verdicts_as_failed(tmp_path):
    (tmp_path / "results.csv").write_text(
        "theorem,c,n,m,trial,seed,verdict,unknown_flag\n"
        "hamiltonicity,4.0,10,10,0,1,yes,0\nhamiltonicity,4.0,10,10,1,2,unknown,1\n")
    cmd = {"kind": "sweep", "trials": 3, "out": str(tmp_path), "argv": ["sweep"]}
    failed, problems = check_outputs(cmd, 0)
    assert failed == 2  # one unknown verdict, one missing row
    assert problems == [f"{tmp_path} (sweep): 2 rows for 3 trials"]
