"""Summary statistics, the metric record, and per-layer metrics from spans."""

from __future__ import annotations

import math
import statistics

from spans import Span, self_times

TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
TRIAL_SPANS = ("experiments.trial", "coupling.run_coupling_trial",
               "coupling.coupon_collector_trial")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (rank (n - 1) * q / 100); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value.

    None when there are fewer than 20 samples, so that not even the
    median has ten beyond it.
    """
    values = list(values)
    for q in TAIL_CANDIDATES:
        if len(values) * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q, percentile(values, q)
    return None


def describe(values, unit: str) -> str:
    """One line: median, the tail percentile by the rule above, and the sample count."""
    values = list(values)
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.4g}" if tail else "no tail (< 20 samples)"
    return f"median {median(values):.4g} {unit}, {tail_text}, n={len(values)}"


def metric_record(spec: list[dict], values: dict, *, positive: bool) -> dict:
    """The ``metrics`` object of a result: every metric of ``spec``, by name, with its unit.

    Raises ValueError when a metric is missing, unexpected or not finite,
    or, with ``positive``, not above zero.
    """
    names = [m["name"] for m in spec]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    record = {}
    for m in spec:
        value = float(values[m["name"]])
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise ValueError(f"metric {m['name']} has unusable value {value!r}")
        record[m["name"]] = {"value": value, "unit": m["unit"]}
    return record


def _round_of(span: Span) -> str:
    return span.trace.split("/", 1)[0]


def _per_round_sum(spans: list[Span], name: str, rounds: list[str]) -> list[float]:
    totals = dict.fromkeys(rounds, 0.0)
    for s in spans:
        if s.name == name and _round_of(s) in totals:
            totals[_round_of(s)] += s.duration
    return list(totals.values())


def layer_metrics(spans: list[Span], rounds: list[dict], import_probes: list[dict],
                  rate_1proc: float, rate_2proc: float) -> dict:
    """Per-layer metrics of a traced run.

    ``rounds`` holds, per traced round, its ``id`` (the trace prefix), its
    ``trials`` and ``one_s``, the wall time of its commands run through
    the CLI at one process.  Times per call are medians in ms; counts per trial
    are means; ``*_ms`` of planning, emission and ``summary_stats`` are
    totals per round; the trial tail is at the highest percentile with ten
    trials beyond it (0 below 20 trials); ``experiments.fixed_share`` is
    planning and emission over the one-process wall time of the commands;
    the other shares are of traced trial time.
    """
    ids = [r["id"] for r in rounds]
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name: str) -> float:
        return median(s.duration for s in by_name.get(name, ())) * 1e3

    def count_mean(name: str, key: str) -> float:
        return mean(s.counts[key] for s in by_name.get(name, ()))

    def count_sum(name: str, key: str) -> float:
        return float(sum(s.counts[key] for s in by_name.get(name, ())))

    trial_total = sum(s.duration for s in spans if s.name in TRIAL_SPANS)

    def share(prefix: str) -> float:
        inside = sum(t for s, t in zip(spans, selfs)
                     if s.name.startswith(prefix) and s.parent >= 0
                     and spans[s.parent].name == "experiments.trial")
        return inside / trial_total if trial_total else 0.0

    trials = [s.duration * 1e3 for s in by_name.get("experiments.trial", ())]
    tail_q, tail_ms = tail_percentile(trials) or (0.0, 0.0)
    plan_s = _per_round_sum(spans, "experiments.plan_point", ids)
    emit_s = _per_round_sum(spans, "experiments.emit_outputs", ids)
    edges = count_sum("graphs.project_rig", "edges")
    pairs = count_sum("graphs.project_rig", "clique_pairs")
    chains = by_name.get("coupling.run_coupling_trial", ())
    # the traced pass rebuilds planning and trials; emission is timed once, in the CLI pass
    traced_s = sum(plan_s) + trial_total + sum(emit_s)
    untraced_s = sum(r["one_s"] for r in rounds)
    return {
        "cli.import_s": median(p["import_s"] for p in import_probes),
        "cli.import_scipy_share": median(p["scipy_s"] / p["import_s"] for p in import_probes),
        "experiments.plan_ms": median(plan_s) * 1e3,
        "thresholds.summary_stats_ms":
            median(_per_round_sum(spans, "thresholds.summary_stats", ids)) * 1e3,
        "experiments.emit_ms": median(emit_s) * 1e3,
        "experiments.fixed_share": (sum(plan_s) + sum(emit_s)) / untraced_s if untraced_s else 0.0,
        "experiments.trial_ms_p50": median(trials),
        "experiments.trial_ms_tail": tail_ms,
        "experiments.trial_tail_pct": tail_q,
        "experiments.pool_efficiency": rate_2proc / (2.0 * rate_1proc),
        "sampling.sample_rig_ms": ms("sampling.sample_rig"),
        "sampling.incidences": count_mean("sampling.sample_rig", "incidences"),
        "sampling.share": share("sampling."),
        "graphs.project_rig_ms": ms("graphs.project_rig"),
        "graphs.edges": count_mean("graphs.project_rig", "edges"),
        "graphs.clique_pairs": count_mean("graphs.project_rig", "clique_pairs"),
        "graphs.dedup_ratio": edges / pairs if pairs else 0.0,
        "graphs.share": share("graphs."),
        "properties.min_degree_ms": ms("properties.min_degree"),
        "properties.is_connected_ms": ms("properties.is_connected"),
        "properties.has_perfect_matching_ms": ms("properties.has_perfect_matching"),
        "properties.hamiltonicity_ms": ms("properties.hamiltonicity"),
        "properties.is_biconnected_ms": ms("properties.is_biconnected"),
        "properties.is_k_connected_ms": ms("properties.is_k_connected"),
        "properties.hc_effort": count_mean("properties.hamiltonicity", "effort"),
        "properties.unknown": count_sum("properties.hamiltonicity", "unknown"),
        "properties.share": share("properties."),
        "coupling.chain_trial_ms": ms("coupling.run_coupling_trial"),
        "coupling.collector_trial_ms": ms("coupling.coupon_collector_trial"),
        "coupling.pair_draws": count_mean("coupling.run_coupling_trial", "pair_draws"),
        "coupling.triple_draws": count_mean("coupling.run_coupling_trial", "triple_draws"),
        "coupling.collector_draws": count_mean("coupling.coupon_collector_trial", "draws"),
        "coupling.guard_pass_share": mean(s.counts["guards_ok"] for s in chains),
        "coupling.containment_breaks": count_sum("coupling.run_coupling_trial", "containment_break"),
        "coupling.feature_breaks": count_sum("coupling.run_coupling_trial", "feature_break"),
        "trace.overhead_share": (untraced_s / traced_s) if traced_s else 0.0,
    }
