"""The benchmark's traced replay (``perfbench/worker.py``) against the CLI.

The replay rebuilds every trial through the public values and functions
that the CLI uses, so it breaks silently when one of them changes shape.
This runs it on four tiny commands, one per workload kind.
"""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sweep_command(tmp_path, name, theorem, n, c_grid):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "theorem": theorem, "n": n, "m": n, "c_grid": c_grid, "trials_per_point": 3,
        "master_seed": 0, "profile": {"kind": "homogeneous"}, "experiment_id": name}))
    out = str(tmp_path / name)
    return {"kind": "sweep", "id": name, "out": out,
            "argv": ["sweep", "--config", str(config), "--out", out, "--threads", "1",
                     "--seed", "20260811"]}


def _stream_command(tmp_path, kind):
    out = str(tmp_path / kind)
    return {"kind": kind, "id": kind, "out": out,
            "argv": [kind, "--n", "200", "--m", "200", "--p", "0.03", "--trials", "2",
                     "--seed", "5"]}


def test_traced_replay_matches_every_command(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import Worker

    commands = [_sweep_command(tmp_path, "conn", "connectivity", 60, [-1.0, 1.0]),
                _sweep_command(tmp_path, "hc", "hamiltonicity", 40, [-2.0, 4.0]),
                _stream_command(tmp_path, "couple"),
                _stream_command(tmp_path, "collector")]
    answer = Worker().run_commands({"commands": commands, "trace": True})
    assert answer["codes"] == [0, 0, 0, 0], [
        (Path(cmd["out"]) / "stderr.txt").read_text() for cmd in commands]
    assert answer["mismatch_count"] == 0, answer["mismatches"]
