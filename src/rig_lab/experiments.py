"""Seeded Monte Carlo sweeps along the c-axis of each threshold law.

A sweep targets one law (connectivity, k-connectivity, perfect matching,
Hamiltonicity, minimum degree, or one of the refined homogeneous displays),
plans model parameters for every grid value c, runs seeded trials, and
compares empirical frequencies against the limit prediction.  A trial is
judged on its vertex-feature incidence, and projected only for a graph checker.

Determinism contract: a sweep is a pure function of (config, master seed).
Trials derive per-trial sub-seeds, so results are byte-identical at any
worker count.  Timing is written to a separate sidecar file that is
excluded from that contract.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import numbers
import os
import pickle
import re
import signal
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order

from . import __version__
from .errors import OutOfRangeError, PlanningError, ValidationError
from .graphs import RigInstance, _check_key_range, project_rig
from .properties import (
    DEFAULT_HC_BUDGET,
    _is_hamilton_cycle,
    hamiltonicity,
    is_k_connected,
    has_perfect_matching,
    min_degree,
)
from .sampling import FeatureProbabilities, Seed, _encode_label, sample_rig
from .thresholds import (
    _is_finite,
    _scale_explicit,
    check_omega,
    default_omega,
    homogeneous_p_for_target,
    limit_probability,
    refined_p_for_target,
    refined_threshold_rhs,
    summary_stats,
)

RESULTS_HEADER = ("theorem", "c", "n", "m", "trial", "seed", "verdict", "unknown_flag")
# a sweep keeps every trial's outcome until it writes them, a few hundred bytes each
MAX_SWEEP_TRIALS = 1_000_000
# each helper is a forked copy of the calling process
MAX_THREADS = 64


@dataclass(frozen=True)
class LawSpec:
    """How one target law plans its model and judges a sample.  A "-refined"
    law plans by its base name's refined homogeneous display, any other by
    S1 = n*(ln n + (level - 1)*ln ln n + c), level being its min-degree level."""

    name: str
    doubles_vertices: bool
    limit_style: str  # "f" (double-exponential law) or "zero-one"
    delta_level: int  # min-degree level implied by the property; 0: the law takes a k as its level


_LAWS = {spec.name: spec for spec in (
    LawSpec("connectivity", False, "f", 1),
    LawSpec("k-connectivity", False, "zero-one", 0),
    LawSpec("perfect-matching", True, "f", 1),
    LawSpec("hamiltonicity", False, "zero-one", 2),
    LawSpec("hamiltonicity-refined", False, "zero-one", 2),
    LawSpec("k-connectivity-refined", False, "zero-one", 0),
    LawSpec("min-degree", False, "f", 1),
    LawSpec("min-degree-refined", False, "zero-one", 0),
)}

_TAG_RE = re.compile(r"^([a-z-]+?)(?:\((\d+)\))?$")


def parse_law_tag(tag: str) -> tuple[LawSpec, int]:
    """Split a law tag like "k-connectivity(3)" into its spec and k."""
    m = _TAG_RE.match(tag.strip())
    if not m or m.group(1) not in _LAWS:
        raise ValidationError(f"unknown law tag {tag!r}; known: {sorted(_LAWS)}")
    spec = _LAWS[m.group(1)]
    k = int(m.group(2)) if m.group(2) else 1
    if spec.delta_level == 0 and m.group(2) is None:
        raise ValidationError(f"law {spec.name!r} needs an explicit k, e.g. {spec.name}(2)")
    if spec.delta_level != 0 and m.group(2) is not None:
        raise ValidationError(f"law {spec.name!r} does not take a k parameter")
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    return spec, k


@dataclass(frozen=True)
class ExperimentConfig:
    theorem: str
    n: int
    m: int
    c_grid: tuple[float, ...]
    trials_per_point: int
    master_seed: int
    profile: dict = field(default_factory=lambda: {"kind": "homogeneous"})
    omega: float | None = None
    hc_budget: int = DEFAULT_HC_BUDGET
    experiment_id: str = "sweep"

    def __post_init__(self):
        for name in ("n", "m", "trials_per_point", "hc_budget", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.hc_budget < 0:
            raise ValidationError(f"hc_budget must be nonnegative, got {self.hc_budget}")
        if not isinstance(self.c_grid, (list, tuple)) or not all(map(_is_finite, self.c_grid)):
            raise ValidationError(f"c_grid must be a list of finite numbers, got {self.c_grid!r}")
        if not isinstance(self.profile, dict):
            raise ValidationError(f"profile must be an object, got {self.profile!r}")
        if self.omega is not None:
            check_omega(self.omega)
            object.__setattr__(self, "omega", float(self.omega))
        try:
            _encode_label(self.experiment_id)
        except ValidationError as exc:
            raise ValidationError(f"experiment_id must be a stream label: {exc}") from None
        if not isinstance(self.theorem, str):
            raise ValidationError(f"theorem must be a law tag string, got {self.theorem!r}")
        parse_law_tag(self.theorem)
        if self.n < 2 or self.m < 1:
            raise ValidationError("need n >= 2 and m >= 1")
        _check_key_range(self.vertices_per_trial, self.m)
        grid = tuple(float(c) for c in self.c_grid)
        object.__setattr__(self, "c_grid", grid)
        if not grid:
            raise ValidationError("c_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("c_grid must be strictly increasing")
        if self.trials_per_point < 1:
            raise ValidationError("trials_per_point must be positive")
        if len(grid) * self.trials_per_point > MAX_SWEEP_TRIALS:
            raise ValidationError(f"a sweep of {len(grid) * self.trials_per_point} trials "
                                  f"exceeds the limit of {MAX_SWEEP_TRIALS}")
        kind = self.profile.get("kind")
        if kind not in ("homogeneous", "explicit"):
            raise ValidationError(f"profile kind must be homogeneous or explicit, got {kind!r}")
        if kind == "explicit":
            vals = self.profile.get("values")
            if not isinstance(vals, (list, tuple)) or len(vals) != self.m:
                raise ValidationError("explicit profile needs exactly m base values")
            if not all(_is_finite(v) and v > 0 for v in vals):
                raise ValidationError(
                    f"explicit profile values must be finite numbers > 0, got {vals!r}")

    @property
    def vertices_per_trial(self) -> int:
        """2n for a law on the doubled vertex set (perfect matching), else n."""
        return 2 * self.n if parse_law_tag(self.theorem)[0].doubles_vertices else self.n

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config of a JSON object keyed by field name; null means a field's default."""
        required = {f.name: f.default is MISSING and f.default_factory is MISSING
                    for f in fields(cls)}
        unknown = set(doc) - set(required)
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {name for name, needed in required.items() if needed} - set(doc)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        return cls(**{k: v for k, v in doc.items() if v is not None or required[k]})

    def manifest(self) -> dict:
        """Config echo with every default filled in.  It holds the config's own
        field values, the profile too (``asdict`` would deep-copy its m values)."""
        n_vertices = self.vertices_per_trial
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "vertices_per_trial": n_vertices, "version": __version__,
                "omega": default_omega(n_vertices) if self.omega is None else self.omega}


@dataclass(frozen=True)
class PlannedPoint:
    index: int
    c: float
    n_vertices: int
    probabilities: FeatureProbabilities
    s1_target: float
    s1_achieved: float
    a_n: float
    predicted: float | None


@dataclass(frozen=True)
class TrialRecord:
    point_index: int
    trial: int
    seed_word: int
    outcome: str  # "yes" | "no" | "unknown"
    degree_ok: bool  # min degree >= the law's level (1, 2 or k)
    hc_effort: int  # the Hamiltonicity checker's effort; 0 for the other laws
    # wall seconds to sample, project (0.0 if never projected) and judge; outside the
    # determinism contract
    stage_seconds: tuple[float, float, float] = field(compare=False)


@dataclass(frozen=True)
class PointSummary:
    c: float
    trials: int
    yes: int
    no: int
    unknown: int
    frequency: float
    wilson_low: float
    wilson_high: float
    predicted: float | None
    unknown_rate: float
    a_n: float
    min_degree_ok_frequency: float


@dataclass
class SweepResult:
    config: ExperimentConfig
    points: list[PlannedPoint]
    records: list[TrialRecord]
    summaries: list[PointSummary]
    wall_seconds: float


_WILSON_Z = 1.959963984540054  # the standard normal's 97.5% quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at frequencies near 0 and 1."""
    z = _WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # rounding must not push the point estimate outside its own interval
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return lo, hi


def _predicted_value(spec: LawSpec, c: float) -> float | None:
    if spec.limit_style == "f":
        return limit_probability(c)
    if c > 0:
        return 1.0
    if c < 0:
        return 0.0
    return None


def plan_point(config: ExperimentConfig, c: float, index: int = 0) -> PlannedPoint:
    """Resolve one grid value into a fully specified model."""
    spec, k = parse_law_tag(config.theorem)
    n, m = config.vertices_per_trial, config.m
    try:
        if spec.name.endswith("-refined"):
            if config.profile.get("kind") != "homogeneous":
                raise ValidationError(
                    f"law {spec.name!r} is a homogeneous display; explicit profiles not supported")
            kind = spec.name.removesuffix("-refined")
            p_scalar = refined_p_for_target(n, m, kind, k, c)
            probs = FeatureProbabilities.homogeneous(m, p_scalar)
            s1_target = n * (refined_threshold_rhs(n, p_scalar, kind, k) + c)
        else:
            shift = ((spec.delta_level or k) - 1) * math.log(math.log(n))
            s1_target = n * (math.log(n) + shift + c)
            if not s1_target > 0:
                raise OutOfRangeError(f"S1 target {s1_target} not positive")
            if config.profile.get("kind") == "homogeneous":
                p_scalar = homogeneous_p_for_target(n, m, s1_target / (n * m))
                probs = FeatureProbabilities.homogeneous(m, p_scalar)
            else:
                probs = _scale_explicit(n, tuple(config.profile["values"]), s1_target)
        st = summary_stats(n, probs, t_max=2)
        return PlannedPoint(index=index, c=float(c), n_vertices=n, probabilities=probs,
                            s1_target=s1_target, s1_achieved=st.S1, a_n=st.a_n,
                            predicted=_predicted_value(spec, float(c)))
    except (OutOfRangeError, ValidationError) as exc:
        raise PlanningError(f"cannot plan {config.theorem} point c={c}: {exc}") from exc


def _degree_bounds(inst: RigInstance) -> np.ndarray:
    """Per vertex, the sum of |F| - 1 over its features F: at least its degree
    in the projection, and positive iff that degree is."""
    sizes = np.diff(inst.indptr)
    return np.bincount(inst.members, weights=np.repeat(sizes - 1, sizes), minlength=inst.n)


def _incidence_connected(inst: RigInstance) -> bool:
    """Whether the projection is connected, by one breadth-first search from
    vertex 0 over the vertex-feature graph, where feature i is node n + i."""
    n = inst.n
    indptr = np.concatenate((np.zeros(n, dtype=np.int64), inst.indptr))
    arcs = csr_array((np.ones(len(inst.members)), inst.members, indptr),
                     shape=(n + inst.m, n + inst.m))
    # directed=False adds the vertex -> feature arcs, the transpose of the feature rows
    order = breadth_first_order(arcs, 0, directed=False, return_predecessors=False)
    return np.count_nonzero(order < n) == n


def _judge(spec: LawSpec, k: int, inst: RigInstance, hc_budget: int,
           trial_seed: Seed) -> tuple[str, bool, int, float]:
    """Decide the law's property on one sample, and whether its min degree
    reaches the law's level; also return the Hamiltonicity checker's effort
    (0 for the other laws) and the seconds spent projecting.

    Connectivity, k-connectivity for k = 1 and min degree >= 1 are read off
    the incidence.  Every other law answers "no" when some vertex's degree
    bound is below the level, and only otherwise projects the sample for its
    checker.
    """
    name = spec.name.removesuffix("-refined")
    level = spec.delta_level or k
    bounds = _degree_bounds(inst)
    covered = bool(bounds.min() > 0)  # min degree >= 1
    if name == "connectivity" or (name == "k-connectivity" and k == 1):
        # kappa >= 1 needs two vertices, as in is_k_connected; is_connected does not
        ok = (inst.n > 1 or name == "connectivity") and _incidence_connected(inst)
        if ok and not covered:
            raise AssertionError("connected graph with an isolated vertex")
        return ("yes" if ok else "no"), covered, 0, 0.0
    if name == "min-degree" and level == 1:
        return ("yes" if covered else "no"), covered, 0, 0.0
    if inst.n >= 3 and bounds.min() < level:  # below 3 vertices the checkers validate n
        return "no", False, 0, 0.0
    start = time.perf_counter()
    g = project_rig(inst)
    project_seconds = time.perf_counter() - start
    degree_ok = min_degree(g) >= level
    if name == "k-connectivity":
        ok = is_k_connected(g, k)
        if ok and not degree_ok:
            raise AssertionError(f"{k}-connected graph with min degree below {k}")
    elif name == "perfect-matching":
        ok = has_perfect_matching(g)
        if ok and not degree_ok:
            raise AssertionError("perfect matching with an isolated vertex")
    elif name == "hamiltonicity":
        result = hamiltonicity(g, budget=hc_budget, seed=trial_seed.child("hc"))
        cycle = result.certificate  # a Hamilton cycle makes g 2-connected
        if result.verdict == "yes" and not (degree_ok and cycle and _is_hamilton_cycle(g, cycle)):
            raise AssertionError("Hamiltonian graph that is not 2-connected, or no Hamilton cycle")
        return result.verdict, degree_ok, result.effort, project_seconds
    else:  # min-degree at a level above 1
        ok = degree_ok
    return ("yes" if ok else "no"), degree_ok, 0, project_seconds


def run_trial(config: ExperimentConfig, point: PlannedPoint, trial: int) -> TrialRecord:
    """One seeded trial; a pure function of (config, point, trial)."""
    spec, k = parse_law_tag(config.theorem)
    trial_seed = Seed(config.master_seed).child(config.experiment_id, point.index, trial)
    t0 = time.perf_counter()
    instance = sample_rig(point.n_vertices, point.probabilities, trial_seed.child("sample"))
    t1 = time.perf_counter()
    outcome, degree_ok, hc_effort, project_seconds = _judge(spec, k, instance, config.hc_budget,
                                                            trial_seed)
    t2 = time.perf_counter()
    return TrialRecord(
        point_index=point.index,
        trial=trial,
        seed_word=trial_seed.state_word(),
        outcome=outcome,
        degree_ok=degree_ok,
        hc_effort=hc_effort,
        stage_seconds=(t1 - t0, project_seconds, t2 - t1 - project_seconds),
    )


class SweepAborted(RuntimeError):
    """A trial failed; the successful records are attached as a partial result."""

    def __init__(self, cause: str, partial: "SweepResult"):
        super().__init__(f"sweep aborted: {cause}")
        self.partial = partial


def _attempt(config: ExperimentConfig, point: PlannedPoint, trial: int) -> TrialRecord | str:
    """One trial's record, or the cause it failed with, the trial named."""
    try:
        return run_trial(config, point, trial)
    except Exception as exc:  # noqa: BLE001 - reported with trial context
        return f"point {point.index} trial {trial}: {type(exc).__name__}: {exc}"


def _fork_helper(work) -> tuple[int, io.BufferedReader]:
    """Fork a helper that runs work() and sends its pickled result back once;
    return the helper's pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the helper leaves only through os._exit, so none of the caller's code runs twice
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(work(), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _claim(fd: int) -> int:
    """Take the next trial index from the file fd shares among forked processes.
    It is guarded by a record lock, which the kernel drops if its holder dies,
    so a helper killed mid-claim cannot stall the others."""
    import fcntl

    fcntl.lockf(fd, fcntl.LOCK_EX)
    i = int.from_bytes(os.pread(fd, 8, 0), "little")  # an empty file reads as 0
    os.pwrite(fd, (i + 1).to_bytes(8, "little"), 0)
    fcntl.lockf(fd, fcntl.LOCK_UN)
    return i


def _run_trials(config: ExperimentConfig, points: list[PlannedPoint],
                threads: int) -> tuple[list[TrialRecord | str | None], str | None]:
    """Every trial's outcome in (point, trial) order (its record, the cause it
    failed with, or None if a helper died holding it), and why a helper died.

    The caller and its min(threads, trials) - 1 helpers take trial indices
    from one shared counter; each helper inherits config and points and sends
    its outcomes back once.  If the caller raises, it kills and reaps every
    helper first.
    """
    per_point = config.trials_per_point
    outcomes: list[TrialRecord | str | None] = [None] * (len(points) * per_point)
    helpers = min(threads, len(outcomes)) - 1 if hasattr(os, "fork") else 0
    ticket = tempfile.TemporaryFile() if helpers else None  # the shared counter's file
    claim = functools.partial(_claim, ticket.fileno()) if helpers else itertools.count().__next__

    def work() -> list[tuple[int, TrialRecord | str]]:
        done = []
        while (i := claim()) < len(outcomes):
            done.append((i, _attempt(config, points[i // per_point], i % per_point)))
        return done

    lost, pipes = None, {}  # pipes: helper pid -> the read end of its pipe, until it is reaped
    try:
        for _ in range(helpers):
            pid, pipe = _fork_helper(work)
            pipes[pid] = pipe
        reports = [work()]
        for pid, pipe in list(pipes.items()):
            with pipe:
                report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            if code == 0:
                reports.append(pickle.loads(report))
            elif lost is None:
                lost = f"a helper process exited with code {code} before reporting its trials"
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if ticket is not None:
            ticket.close()
    for report in reports:
        for i, outcome in report:
            outcomes[i] = outcome
    return outcomes, lost


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Plan every grid point, run all trials, and aggregate.

    Trials run in the calling process and, for threads > 1, in helpers
    forked after planning: at most min(threads, trials) processes in all,
    and threads may not exceed MAX_THREADS.  Where os.fork is missing every
    trial runs in the calling process.  Output is independent of `threads`:
    records stay in (point, trial) order.  A failing trial, or a helper
    that dies, aborts the sweep with the completed records attached
    (SweepAborted.partial) so callers can flush them; the cause named is
    the first failure in (point, trial) order, or the helper's exit code.
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ValidationError(f"threads must lie in [1, {MAX_THREADS}], got {threads}")
    start = time.monotonic()
    points = [plan_point(config, c, i) for i, c in enumerate(config.c_grid)]
    outcomes, lost = _run_trials(config, points, threads)
    records = [r for r in outcomes if isinstance(r, TrialRecord)]
    cause = lost or next((r for r in outcomes if isinstance(r, str)), None)
    if cause:
        partial = SweepResult(config=config, points=points, records=records,
                              summaries=[], wall_seconds=time.monotonic() - start)
        raise SweepAborted(cause, partial)
    summaries = []
    for pt in points:
        rs = [r for r in records if r.point_index == pt.index]
        yes = sum(1 for r in rs if r.outcome == "yes")
        no = sum(1 for r in rs if r.outcome == "no")
        unknown = sum(1 for r in rs if r.outcome == "unknown")
        decided = yes + no
        freq = yes / decided if decided else 0.0
        low, high = wilson_interval(yes, decided)
        deg_ok = sum(1 for r in rs if r.degree_ok)
        summaries.append(PointSummary(
            c=pt.c,
            trials=len(rs),
            yes=yes,
            no=no,
            unknown=unknown,
            frequency=freq,
            wilson_low=low,
            wilson_high=high,
            predicted=pt.predicted,
            unknown_rate=unknown / len(rs) if rs else 0.0,
            a_n=pt.a_n,
            min_degree_ok_frequency=deg_ok / len(rs) if rs else 0.0,
        ))
    return SweepResult(
        config=config,
        points=points,
        records=records,
        summaries=summaries,
        wall_seconds=time.monotonic() - start,
    )


def compare_to_limit(result: SweepResult) -> list[dict]:
    """Tabulate empirical frequency against the limit prediction per point."""
    spec, _ = parse_law_tag(result.config.theorem)
    rows = []
    for s in result.summaries:
        row = {
            "c": s.c,
            "empirical": s.frequency,
            "predicted": s.predicted,
            "gap": abs(s.frequency - s.predicted) if s.predicted is not None else None,
            "wilson_low": s.wilson_low,
            "wilson_high": s.wilson_high,
            "covered": (s.wilson_low <= s.predicted <= s.wilson_high)
            if s.predicted is not None else None,
            "a_n": s.a_n,
        }
        if spec.limit_style == "zero-one" and s.c < 0:
            row["note"] = (
                "zero-side prediction assumes the pair-share a_n stays in (0,1]; "
                f"planned a_n={s.a_n:.6g}")
        elif spec.limit_style == "zero-one" and s.c == 0:
            row["note"] = "no prediction at c=0 for a zero-one law"
        else:
            row["note"] = ""
        rows.append(row)
    return rows


# --- persistence ---------------------------------------------------------------


def render_results_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for r in result.records:
        point = result.points[r.point_index]
        writer.writerow([
            result.config.theorem,
            repr(point.c),
            point.n_vertices,
            result.config.m,
            r.trial,
            r.seed_word,
            r.outcome,
            1 if r.outcome == "unknown" else 0,
        ])
    return buf.getvalue()


def render_summary_json(result: SweepResult) -> str:
    doc = {
        "manifest": result.config.manifest(),
        "comparison": compare_to_limit(result),
        "points": [asdict(s) for s in result.summaries],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_limit_table(result: SweepResult) -> str:
    lines = ["# c empirical predicted"]
    for s in result.summaries:
        pred = repr(s.predicted) if s.predicted is not None else "nan"
        lines.append(f"{s.c!r} {s.frequency!r} {pred}")
    return "\n".join(lines) + "\n"


def render_timings_csv(result: SweepResult) -> str:
    """The sweep's wall time, then each trial stage's time summed over all
    trials, then the Hamiltonicity checker's effort summed over all trials."""
    totals = [math.fsum(r.stage_seconds[i] for r in result.records) for i in range(3)]
    effort = sum(r.hc_effort for r in result.records)
    return ("wall_seconds,sample_seconds,project_seconds,judge_seconds,hc_effort\n"
            + ",".join(map(repr, [result.wall_seconds, *totals, effort])) + "\n")


def emit_outputs(result: SweepResult, out_dir) -> list[str]:
    """Write results.csv, summary.json and a gnuplot-ready table.

    Wall-clock timing goes to timings.csv, which is intentionally outside
    the byte-reproducibility contract of the other three files.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in (
            ("results.csv", render_results_csv(result)),
            ("summary.json", render_summary_json(result)),
            ("limit_table.dat", render_limit_table(result)),
            ("timings.csv", render_timings_csv(result)),
        ):
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(str(path))
        return written
    except OSError as exc:
        raise OSError(f"cannot write sweep outputs under {out}: {exc}") from exc
