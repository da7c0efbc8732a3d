"""The benchmark's workloads and the rounds that run them.

A round is one pass over a workload's commands: every sweep config of a
sweep workload, or the couple and collector commands of the coupling
workload.  Each round runs on its own master seed, derived from the
benchmark's ``--seed`` and the round index, so a run averages over
several sample streams and the same seed always gives the same inputs.

Each sweep command runs several trials per point (6 on ``conn-sweep``
and ``hc-pm-sweep``, 4 on ``kconn-sweep``), and each coupling command 5
or 10 trials, so that a command's fixed costs (argument parsing,
planning, emission and, at two processes, pool start-up) stay a small
share of its time, as in real sweeps of 90 to 400 trials per point.
Planning plus emission is 5-6% of the one-process command time on
``conn-sweep`` (its explicit profile plans by bisection) and about 0.1%
on the other sweeps; ``experiments.fixed_share`` in a traced run gives
the figure.  Real sweeps are longer still; a run keeps to its time limit.

Why these workloads (measured on a 2-vCPU machine, ms per trial as
sample / project / judge):

* ``conn-sweep``: the connectivity law at n = m = 2000 on a homogeneous
  profile and on an explicit two-level profile.  Sampling, projection
  and the checker each take a fifth to two fifths of a trial, and the
  explicit profile adds uneven clique sizes and a planning step heavy on
  bisection.
* ``hc-pm-sweep``: perfect matching on 2000 vertices and Hamiltonicity
  at n = 1000.  Checker-bound, with an early-exit path (degree
  obstructions in every trial at c = -4 and in most at c = 0) and a
  full-search path.
* ``kconn-sweep``: k-connectivity(2) at n = 120 and (3) at n = 100.  The
  flow checker is about 99% of traced trial time (98.7-98.9% on a
  2-vCPU machine), so a sampling or projection change should show no change
  here.  At n = 200 a trial takes about a second, too few trials per run
  for a steady rate.
* ``coupling-chain``: ``rig-lab couple`` at the coupling-chain acceptance
  config and ``rig-lab collector`` at n = 2000.  Thousands of small
  draws, clique and subgraph calls and no checker, so the coupling
  module and graph construction are measured apart from the sweeps.
"""

from __future__ import annotations

import math

SWEEP_WORKLOADS = ("conn-sweep", "hc-pm-sweep", "kconn-sweep")
COUPLING_WORKLOAD = "coupling-chain"
WORKLOADS = SWEEP_WORKLOADS + (COUPLING_WORKLOAD,)

# the criterion-4 coupling config: S1 = n ln n, omega defaults to ln ln n
COUPLE_N = COUPLE_M = 3000
COLLECTOR_N = COLLECTOR_M = 2000
COLLECTOR_P = 0.0044


def _sweep(theorem: str, n: int, m: int, c_grid: list[float], trials: int,
           experiment_id: str, profile: dict | None = None) -> dict:
    return {
        "theorem": theorem,
        "n": n,
        "m": m,
        "c_grid": c_grid,
        "trials_per_point": trials,
        "master_seed": 0,  # replaced per round through the CLI's --seed
        "profile": profile or {"kind": "homogeneous"},
        "experiment_id": experiment_id,
    }


SWEEP_CONFIGS = {
    "conn-sweep": (
        _sweep("connectivity", 2000, 2000, [-2.0, 0.0, 2.0], 6, "conn"),
        _sweep("connectivity", 2000, 2000, [-1.0, 1.0], 6, "conn-explicit",
               {"kind": "explicit", "values": [1.0, 4.0] * 1000}),
    ),
    "hc-pm-sweep": (
        _sweep("perfect-matching", 1000, 2000, [0.0, 2.0], 6, "pm"),
        _sweep("hamiltonicity", 1000, 1000, [-4.0, 4.0], 6, "hc"),
    ),
    "kconn-sweep": (
        _sweep("k-connectivity(2)", 120, 120, [-1.0, 1.0], 4, "kconn2"),
        _sweep("k-connectivity(3)", 100, 100, [-1.0, 1.0], 4, "kconn3"),
    ),
}

# trials per command in one shard of a coupling round; a round is two shards
COUPLE_TRIALS = 5
COLLECTOR_TRIALS = 10


def couple_rhs() -> float:
    """Per-feature mass target that puts S1 at n ln n for the couple command."""
    return math.log(COUPLE_N) / COUPLE_M


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of one round; a pure function of the benchmark seed."""
    return (seed * 1_000_003 + round_index) % 2**63


def round_trials(workload: str) -> int:
    """Trials one round of the workload runs."""
    if workload == COUPLING_WORKLOAD:
        return 2 * (COUPLE_TRIALS + COLLECTOR_TRIALS)
    return sum(len(doc["c_grid"]) * doc["trials_per_point"] for doc in SWEEP_CONFIGS[workload])


def round_commands(workload: str, seed: int, round_index: int, config_paths: list[str],
                   couple_p: str, threads: int, out_dir: str) -> list[dict]:
    """The CLI commands of one round, each with its trial count and output directory.

    ``config_paths`` are the sweep config files, in ``SWEEP_CONFIGS`` order;
    ``couple_p`` is the couple command's feature probability as planned at
    set-up.  Coupling commands come as two equal shards (commands 0-1 and
    2-3), which the two-process phase runs side by side.
    """
    master = round_seed(seed, round_index)
    if workload != COUPLING_WORKLOAD:
        return [
            {"kind": "sweep", "trials": len(doc["c_grid"]) * doc["trials_per_point"],
             "id": f"r{round_index}/c{j}", "out": f"{out_dir}/c{j}",
             "argv": ["sweep", "--config", path, "--out", f"{out_dir}/c{j}",
                      "--threads", str(threads), "--seed", str(master)]}
            for j, (doc, path) in enumerate(zip(SWEEP_CONFIGS[workload], config_paths))
        ]
    commands = []
    for shard in range(2):
        shard_seed = str((master * 2 + shard) % 2**63)
        commands.append({"kind": "couple", "trials": COUPLE_TRIALS,
                         "id": f"r{round_index}/c{2 * shard}", "out": f"{out_dir}/c{2 * shard}",
                         "argv": ["couple", "--n", str(COUPLE_N), "--m", str(COUPLE_M),
                                  "--p", couple_p, "--trials", str(COUPLE_TRIALS),
                                  "--seed", shard_seed]})
        commands.append({"kind": "collector", "trials": COLLECTOR_TRIALS,
                         "id": f"r{round_index}/c{2 * shard + 1}",
                         "out": f"{out_dir}/c{2 * shard + 1}",
                         "argv": ["collector", "--n", str(COLLECTOR_N), "--m", str(COLLECTOR_M),
                                  "--p", repr(COLLECTOR_P), "--trials", str(COLLECTOR_TRIALS),
                                  "--seed", shard_seed]})
    return commands
