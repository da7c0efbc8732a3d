"""rig-lab benchmark: trials per second, set-up time and memory for one workload.

    python3 perfbench/run.py --workload conn-sweep [--seed N] [--seconds 22] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  A run has two phases:

1. set-up: fresh interpreters import ``rig_lab.cli`` and plan every point
   of the workload (``probe.py``); the median is ``setup_s``;
2. rounds, for about ``--seconds``: a worker (``worker.py``) runs one
   round of the workload's CLI commands through ``rig_lab.cli.main`` in
   process at ``--threads 1``; then the same round runs at ``--threads 2``
   for sweeps, or as two side-by-side shards for the coupling commands,
   and every output file is compared byte for byte with the one-process
   run.  A round starts only while the run is predicted to end within
   half a round of ``--seconds``.

Each rate is all trials over all wall time of the rounds' CLI commands.

``--trace 1`` makes each one-process round also rebuild every trial
through the public functions with spans around each layer call (see
``worker.py``) and prints the per-layer metrics instead of the end-to-end
ones.  Every run checks exit codes, output shapes, coupling certificates
and thread-count determinism, and records the run environment, the
sha256 of each output file and the spans under ``.perfbench-work/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import describe, layer_metrics, median, metric_record
from spans import load_spans
from workloads import (
    COUPLING_WORKLOAD,
    SWEEP_CONFIGS,
    WORKLOADS,
    round_commands,
    round_trials,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 20260811
PROBES = 3
MIN_ROUNDS = 2
HARD_LIMIT_S = 170.0
OUTPUT_FILES = {"sweep": ("results.csv", "summary.json"),
                "couple": ("stdout.txt",), "collector": ("stdout.txt",)}


class BenchError(RuntimeError):
    """The benchmark could not complete a measurement."""


class WorkerProcess:
    """A ``worker.py`` child, spoken to in JSON lines with a deadline on every answer."""

    def __init__(self, log_path: Path, deadline: float):
        self.deadline = deadline
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, cwd=ROOT)
        self._answers: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._answers.put(line)
        self._answers.put(None)

    def send(self, doc: dict) -> None:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        try:
            line = self._answers.get(timeout=max(0.0, self.deadline - time.monotonic()))
        except queue.Empty:
            raise BenchError("worker did not answer before the run's time limit") from None
        if line is None:
            raise BenchError(f"worker exited with code {self.proc.wait()}; see {self._log.name}")
        return json.loads(line)

    def close(self, spans_path: Path | None = None) -> int:
        """Stop the worker; returns its peak RSS in KiB."""
        self.send({"op": "exit", "spans": str(spans_path) if spans_path else None})
        maxrss = self.receive()["maxrss_kb"]
        self.proc.stdin.close()
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        self._log.close()
        return maxrss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def run_probe(workload: str, split: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"), "--src", str(SRC), "--workload", workload]
    done = subprocess.run(cmd + (["--split"] if split else []), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    if Path(probe["rig_lab_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"probe imported rig_lab from {probe['rig_lab_file']}, not from {SRC}")
    return probe


def check_outputs(cmd: dict, code: int) -> tuple[int, list[str]]:
    """Failed trials and correctness problems of one finished command."""
    out = Path(cmd["out"])
    where = f"{cmd['out']} ({cmd['argv'][0]})"
    if code != 0:
        return cmd["trials"], [f"{where}: exit code {code}"]
    if cmd["kind"] == "sweep":
        with open(out / "results.csv", "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if len(rows) == cmd["trials"] else [
            f"{where}: {len(rows)} rows for {cmd['trials']} trials"]
        problems += [f"{where}: verdict {r['verdict']!r}" for r in rows
                     if r["verdict"] not in ("yes", "no", "unknown")]
        unknown = sum(r["verdict"] == "unknown" for r in rows)
        return cmd["trials"] - len(rows) + unknown, problems
    with open(out / "stdout.txt", "r", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    if len(docs) != cmd["trials"] + 1 or "summary" not in docs[-1]:
        return cmd["trials"], [f"{where}: {len(docs)} output lines for {cmd['trials']} trials"]
    broken = 0
    problems = []
    if cmd["kind"] == "couple":
        for doc in docs[:-1]:
            feature_break = not doc["per_feature_contained"]
            containment_break = all(doc["guard_events"].values()) and not doc["contained"]
            if feature_break or containment_break:
                broken += 1
                problems.append(f"{where}: trial {doc['trial']} broke its coupling certificate "
                                f"(per feature {feature_break}, containment {containment_break})")
    return broken, problems


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    """git rev (when the checkout is a repository), nproc and the size of src/rig_lab."""
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        rev = done.stdout.strip() or None
    sources = sorted((SRC / "rig_lab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_rev": rev, "nproc": len(os.sched_getaffinity(0)),
            "src_rig_lab_lines": lines, "src_rig_lab_sha256": digest.hexdigest()}


class Run:
    def __init__(self, args, work: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.workers: list[WorkerProcess] = []
        self.couple_p = ""
        self.config_paths = []
        for j, doc in enumerate(SWEEP_CONFIGS.get(self.workload, ())):
            path = work / f"config{j}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.config_paths.append(str(path))

    def start_workers(self) -> tuple[WorkerProcess, list[WorkerProcess]]:
        """The one-process worker and the workers of the two-process rounds, all imported."""
        shards = 2 if self.workload == COUPLING_WORKLOAD else 1
        names = ["one-process"] + [f"two-process-{i}" for i in range(shards)]
        self.workers = [WorkerProcess(self.work / f"{name}.log", self.deadline) for name in names]
        for worker in self.workers:
            worker.receive()  # ready: rig_lab is imported before any round is timed
        return self.workers[0], self.workers[1:]

    def commands(self, r: int, processes: int) -> list[dict]:
        threads = processes if self.workload != COUPLING_WORKLOAD else 1
        return round_commands(self.workload, self.seed, r, self.config_paths, self.couple_p,
                              threads, str(self.work / f"r{r}" / f"p{processes}"))

    def finish_commands(self, commands: list[dict], codes: list[int]) -> None:
        for cmd, code in zip(commands, codes):
            failed, problems = check_outputs(cmd, code)
            self.attempted += cmd["trials"]
            self.failed += failed
            self.problems += problems

    def one_process_round(self, worker: WorkerProcess, r: int) -> float:
        """Round ``r`` at one process (traced too, when tracing); returns the
        wall time of its CLI commands."""
        commands = self.commands(r, 1)
        worker.send({"op": "run", "commands": commands, "trace": self.trace})
        answer = worker.receive()
        self.finish_commands(commands, answer["codes"])
        if answer["mismatch_count"]:
            self.problems += [f"traced rebuild: {m}" for m in answer["mismatches"]]
            self.problems.append(f"traced rebuild: {answer['mismatch_count']} mismatches")
        for j, cmd in enumerate(commands):
            for name in OUTPUT_FILES[cmd["kind"]]:
                path = Path(cmd["out"]) / name
                if path.exists():
                    self.digests[f"r{r}/c{j}/{name}"] = file_digest(path)
        return sum(answer["walls"])

    def two_process_round(self, workers: list[WorkerProcess], r: int) -> float:
        """Round ``r`` at two processes, each output compared with the one-process
        run; returns the round's wall time."""
        commands = self.commands(r, 2)
        size = len(commands) // len(workers)
        began = time.perf_counter()
        for i, worker in enumerate(workers):
            worker.send({"op": "run", "trace": False,
                         "commands": commands[i * size:(i + 1) * size]})
        codes = [code for worker in workers for code in worker.receive()["codes"]]
        wall = time.perf_counter() - began
        self.finish_commands(commands, codes)
        for cmd, first in zip(commands, self.commands(r, 1)):
            for name in OUTPUT_FILES[cmd["kind"]]:
                a, b = Path(first["out"]) / name, Path(cmd["out"]) / name
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    self.problems.append(f"{b} differs from {a} (thread-count determinism)")
        shutil.rmtree(self.work / f"r{r}", ignore_errors=True)
        return wall

    def record_path(self, suffix: str) -> Path:
        return WORK / "records" / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.{suffix}"

    def measure(self) -> tuple[dict, dict]:
        """Returns the metric values of this run's mode and a record of the run.

        Rounds alternate between one and two processes, so that both rates
        sample the same stretch of the machine's time.
        """
        probes = [run_probe(self.workload, self.trace, self.deadline) for _ in range(PROBES)]
        self.couple_p = probes[0]["params"].get("couple_p", "")
        one, two = self.start_workers()
        rounds = []
        start = time.monotonic()
        while len(rounds) < MIN_ROUNDS or elapsed + 0.5 * elapsed / len(rounds) <= self.seconds:
            r = len(rounds)
            rounds.append({"id": f"r{r}", "trials": round_trials(self.workload),
                           "one_s": self.one_process_round(one, r),
                           "two_s": self.two_process_round(two, r)})
            elapsed = time.monotonic() - start
        spans_path = self.record_path("spans.jsonl") if self.trace else None
        maxrss_kb = one.close(spans_path)
        for worker in two:
            worker.close()
        # a rate is all trials over all wall time, the steadiest estimate when
        # trial times vary with the sampled graph
        trials = sum(r["trials"] for r in rounds)
        rate = {p: trials / sum(r[key] for r in rounds) for p, key in ((1, "one_s"), (2, "two_s"))}
        print(f"setup: {describe([p['setup_s'] for p in probes], 's')} fresh interpreters "
              f"(import {describe([p['import_s'] for p in probes], 's')})")
        for procs, key, label in ((1, "one_s", "1 process"), (2, "two_s", "2 processes")):
            print(f"{label}: {rate[procs]:.4g} trials/s over {len(rounds)} rounds of "
                  f"{round_trials(self.workload)} trials; round wall "
                  f"{describe([r[key] for r in rounds], 's')}")
        print(f"trial_fail_share: {self.failed / max(1, self.attempted):.6g} "
              f"({self.failed} of {self.attempted} trials failed)")
        record = {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                  "trace": int(self.trace), "environment": environment(),
                  "versions": probes[0]["versions"], "probes": probes,
                  "rounds": rounds,
                  "output_sha256": self.digests,
                  "trial_fail_share": self.failed / max(1, self.attempted)}
        if self.trace:
            values = layer_metrics(load_spans(spans_path), rounds, probes, rate[1], rate[2])
            record["spans"] = str(spans_path.relative_to(ROOT))
        else:
            values = {"trials_per_s": rate[1], "trials_per_s_2proc": rate[2],
                      "setup_s": median(p["setup_s"] for p in probes),
                      "peak_rss_mb": maxrss_kb / 1024.0}
        return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rig_lab" / "cli.py").is_file():
        sys.stderr.write(f"error: no rig_lab sources under {SRC}; run from a source checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    # bytecode is written once, as for an installed package, before set-up is timed
    compileall.compile_dir(str(SRC), quiet=1)
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    run = Run(args, work)
    metrics: dict = {}
    try:
        values, record = run.measure()
        metrics = metric_record(metric_spec, values, positive=not args.trace)
        record["metrics"] = metrics
        record["problems"] = run.problems
        run.record_path("json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(f"environment: {json.dumps({**record['environment'], **record['versions']})}")
        print("outputs sha256: " + hashlib.sha256(
            json.dumps(run.digests, sort_keys=True).encode()).hexdigest()
              + f" over {len(run.digests)} files (each in {run.record_path('json').relative_to(ROOT)})")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    except (BenchError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        run.problems.append(f"benchmark error: {exc}")
    finally:
        for worker in run.workers:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        sys.stderr.write(f"violation: {problem}\n")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
