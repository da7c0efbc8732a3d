"""Benchmark worker: runs CLI commands in process, on request.

    python3 perfbench/worker.py --src SRC

Reads one JSON request per line on stdin and answers with one JSON line
on stdout.  A ``run`` request runs each of its commands through
``rig_lab.cli.main`` with its standard output and error sent to files in
the command's output directory, and answers with the exit codes and wall
times.  With ``trace`` set, every command is then rebuilt through the
public functions with spans around every call into a layer, and each
rebuilt verdict is checked against the command's output.  An ``exit``
request writes the spans to a file and answers with the peak RSS of
this process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


@contextlib.contextmanager
def patched(module, name: str, value):
    """Rebind ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


class Worker:
    def __init__(self):
        import rig_lab.cli

        self.cli = rig_lab.cli
        self.tracer = Tracer()

    def run_command(self, cmd: dict, trace_id: str, trace: bool) -> int:
        out = Path(cmd["out"])
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "stdout.txt", "w", encoding="utf-8") as so, \
                open(out / "stderr.txt", "w", encoding="utf-8") as se, \
                contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                if not trace:
                    return self.cli.main(cmd["argv"])
                # spans only at the cli -> experiments boundary, so this pass stays untraced inside
                tr = self.tracer
                with patched(self.cli, "emit_outputs",
                             tr.wrap("experiments.emit_outputs", self.cli.emit_outputs)), \
                        tr.span("cli.main", trace_id):
                    return self.cli.main(cmd["argv"])
            except Exception:  # noqa: BLE001 - a crashing command is reported, not fatal
                traceback.print_exc(file=se)
                return -1

    def run_commands(self, req: dict) -> dict:
        codes, walls = [], []
        for cmd in req["commands"]:
            start = time.perf_counter()
            codes.append(self.run_command(cmd, cmd["id"], req["trace"]))
            walls.append(time.perf_counter() - start)
        mismatches: list[str] = []
        if req["trace"]:
            for cmd, code in zip(req["commands"], codes):
                if code == 0:
                    rebuild = self.rebuild_sweep if cmd["kind"] == "sweep" else self.rebuild_stream
                    mismatches += rebuild(cmd, cmd["id"])
        return {"codes": codes, "walls": walls, "mismatches": mismatches[:20],
                "mismatch_count": len(mismatches)}

    # --- traced rebuild ----------------------------------------------------

    def rebuild_sweep(self, cmd: dict, trace_id: str) -> list[str]:
        """Replay every trial of a sweep through the public Seed path of ``run_trial``."""
        from rig_lab import experiments
        from rig_lab.experiments import ExperimentConfig, parse_law_tag, plan_point
        from rig_lab.graphs import project_rig
        from rig_lab.properties import min_degree
        from rig_lab.sampling import Seed, sample_rig

        args = self.cli.build_parser().parse_args(cmd["argv"])
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["master_seed"] = args.seed
        config = ExperimentConfig.from_dict(doc)
        spec, k = parse_law_tag(config.theorem)
        tr = self.tracer
        # planning reaches summary_stats through the experiments module's own binding
        with patched(experiments, "summary_stats",
                     tr.wrap("thresholds.summary_stats", experiments.summary_stats)):
            points = []
            for i, c in enumerate(config.c_grid):
                with tr.span("experiments.plan_point", trace_id):
                    points.append(plan_point(config, c, i))

        with open(Path(cmd["out"]) / "results.csv", "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(Path(cmd["out"]) / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        problems = []
        if len(rows) != len(points) * config.trials_per_point:
            return [f"{trace_id}: {len(rows)} result rows for "
                    f"{len(points) * config.trials_per_point} trials"]
        level = k if spec.delta_level == 0 else spec.delta_level
        for pt in points:
            degree_ok = 0
            for t in range(config.trials_per_point):
                trial_id = f"{trace_id}/p{pt.index}/t{t}"
                seed = Seed(config.master_seed).child(config.experiment_id, pt.index, t)
                with tr.span("experiments.trial", trial_id):
                    with tr.span("sampling.sample_rig") as s_sample:
                        instance = sample_rig(pt.n_vertices, pt.probabilities, seed.child("sample"))
                    with tr.span("graphs.project_rig") as s_project:
                        g = project_rig(instance)
                    with tr.span("properties.min_degree"):
                        deg = min_degree(g)
                    verdict = self._judge(spec.name, k, g, deg, config.hc_budget, seed)
                sizes = [len(f) for f in instance.feature_sets]
                s_sample.counts["incidences"] = sum(sizes)
                s_project.counts["edges"] = g.edge_count()
                s_project.counts["clique_pairs"] = sum(math.comb(x, 2) for x in sizes)
                degree_ok += deg >= level
                row = rows[pt.index * config.trials_per_point + t]
                if row["seed"] != str(seed.state_word()) or row["verdict"] != verdict:
                    problems.append(f"{trial_id}: traced ({seed.state_word()}, {verdict}) "
                                    f"vs results.csv ({row['seed']}, {row['verdict']})")
            point = summary["points"][pt.index]
            if degree_ok / config.trials_per_point != point["min_degree_ok_frequency"]:
                problems.append(f"{trace_id}/p{pt.index}: traced min-degree share "
                                f"{degree_ok / config.trials_per_point} vs summary.json "
                                f"{point['min_degree_ok_frequency']}")
            if pt.a_n != point["a_n"]:
                problems.append(f"{trace_id}/p{pt.index}: planned a_n {pt.a_n} "
                                f"vs summary.json {point['a_n']}")
        return problems

    def _judge(self, name: str, k: int, g, deg: int, hc_budget: int, seed) -> str:
        """The checker calls ``experiments._judge`` makes, each in its own span."""
        from rig_lab import properties as P

        tr = self.tracer
        if name == "connectivity":
            with tr.span("properties.is_connected"):
                return "yes" if P.is_connected(g) else "no"
        if name in ("k-connectivity", "k-connectivity-refined"):
            with tr.span("properties.is_k_connected"):
                return "yes" if P.is_k_connected(g, k) else "no"
        if name == "perfect-matching":
            with tr.span("properties.has_perfect_matching"):
                return "yes" if P.has_perfect_matching(g) else "no"
        if name in ("hamiltonicity", "hamiltonicity-refined"):
            with tr.span("properties.hamiltonicity") as s:
                result = P.hamiltonicity(g, budget=hc_budget, seed=seed.child("hc"))
            s.counts["effort"] = result.effort
            s.counts["unknown"] = int(result.verdict == "unknown")
            if result.verdict == "yes" and deg >= 2:
                with tr.span("properties.is_biconnected"):
                    P.is_biconnected(g)
            return result.verdict
        if name in ("min-degree", "min-degree-refined"):
            return "yes" if deg >= k else "no"
        raise ValueError(f"no traced judge for law {name!r}")

    def rebuild_stream(self, cmd: dict, trace_id: str) -> list[str]:
        """Replay every couple or collector trial and compare it with the command's output."""
        from rig_lab import coupling
        from rig_lab.sampling import FeatureProbabilities, Seed
        from rig_lab.thresholds import default_omega

        args = self.cli.build_parser().parse_args(cmd["argv"])
        probs = FeatureProbabilities.homogeneous(args.m, args.p)
        omega = args.omega if args.omega is not None else default_omega(args.n)
        with open(Path(cmd["out"]) / "stdout.txt", "r", encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh if line.strip()]
        if len(docs) != args.trials + 1:
            return [f"{trace_id}: {len(docs)} output lines for {args.trials} trials"]
        tr = self.tracer
        problems = []
        is_chain = cmd["kind"] == "couple"
        # both trial functions reach summary_stats through the coupling module's binding
        with patched(coupling, "summary_stats",
                     tr.wrap("thresholds.summary_stats", coupling.summary_stats)):
            for t in range(args.trials):
                trial_id = f"{trace_id}/t{t}"
                if is_chain:
                    with tr.span("coupling.run_coupling_trial", trial_id) as s:
                        report = coupling.run_coupling_trial(
                            args.n, probs, omega, Seed(args.seed).child("couple", t))
                    guards_ok = all(report.guard_events.values())
                    s.counts.update(
                        pair_draws=report.pair_draws, triple_draws=report.triple_draws,
                        guards_ok=int(guards_ok),
                        containment_break=int(guards_ok and not report.contained),
                        feature_break=int(not report.per_feature_contained))
                else:
                    with tr.span("coupling.coupon_collector_trial", trial_id) as s:
                        report = coupling.coupon_collector_trial(
                            args.n, probs, omega, Seed(args.seed).child("collector", t))
                    s.counts["draws"] = report.total_draws
                traced = json.loads(json.dumps(dataclasses.asdict(report), sort_keys=True))
                printed = {key: value for key, value in docs[t].items() if key != "trial"}
                if traced != printed:
                    problems.append(f"{trial_id}: traced report differs from the command's output")
        return problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    # answers go to the original stdout; command output is redirected to files
    answers = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    worker = Worker()

    def answer(doc: dict) -> None:
        answers.write(json.dumps(doc) + "\n")
        answers.flush()

    answer({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            if req.get("spans"):
                worker.tracer.dump(req["spans"])
            answer({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            break
        answer(worker.run_commands(req))


if __name__ == "__main__":
    main()
