"""Set-up probe: a fresh interpreter imports ``rig_lab.cli`` and plans a workload.

    python3 perfbench/probe.py --src SRC --workload NAME [--split]

Prints one JSON object: ``import_s`` (import of ``rig_lab.cli``),
``setup_s`` (import plus planning every point of the workload), the
planned couple probability for the coupling workload, and the Python,
numpy and scipy versions.  ``--split`` imports numpy and ``scipy.stats``
first, each timed on its own (``scipy_s``), to show their share of the
import.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from workloads import (
    COLLECTOR_M,
    COLLECTOR_N,
    COLLECTOR_P,
    COUPLE_M,
    COUPLE_N,
    COUPLING_WORKLOAD,
    SWEEP_CONFIGS,
    WORKLOADS,
    couple_rhs,
)


def plan(workload: str) -> dict:
    """Plan every point of the workload, as its commands do before their first trial."""
    from rig_lab.sampling import FeatureProbabilities
    from rig_lab.thresholds import homogeneous_p_for_target, summary_stats

    if workload == COUPLING_WORKLOAD:
        p = homogeneous_p_for_target(COUPLE_N, COUPLE_M, couple_rhs())
        summary_stats(COUPLE_N, FeatureProbabilities.homogeneous(COUPLE_M, p), t_max=2)
        summary_stats(COLLECTOR_N, FeatureProbabilities.homogeneous(COLLECTOR_M, COLLECTOR_P),
                      t_max=2)
        return {"couple_p": repr(p)}
    from rig_lab.experiments import ExperimentConfig, plan_point

    for doc in SWEEP_CONFIGS[workload]:
        config = ExperimentConfig.from_dict(doc)
        for i, c in enumerate(config.c_grid):
            plan_point(config, c, i)
    return {}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--split", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    start = time.perf_counter()
    scipy_s = 0.0
    if args.split:
        import numpy  # noqa: F401

        before_scipy = time.perf_counter()
        import scipy.stats  # noqa: F401

        scipy_s = time.perf_counter() - before_scipy
    import rig_lab.cli  # noqa: F401

    imported = time.perf_counter()
    params = plan(args.workload)
    planned = time.perf_counter()

    import numpy
    import scipy

    print(json.dumps({
        "import_s": imported - start,
        "scipy_s": scipy_s,
        "setup_s": planned - start,
        "params": params,
        "rig_lab_file": rig_lab.cli.__file__,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main()
