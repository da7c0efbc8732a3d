"""Seeded Monte Carlo sweeps along the c-axis of each threshold law.

A sweep targets one law (connectivity, k-connectivity, perfect matching,
Hamiltonicity, minimum degree, or one of the refined homogeneous displays),
plans model parameters for every grid value c, runs seeded trials, and
compares empirical frequencies against the limit prediction.

Determinism contract: a sweep is a pure function of (config, master seed).
Trials derive per-trial sub-seeds, so results are byte-identical at any
worker count.  Timing is written to a separate sidecar file that is
excluded from that contract.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import OutOfRangeError, PlanningError, ValidationError
from .graphs import SimpleGraph, project_rig
from .properties import (
    DEFAULT_HC_BUDGET,
    hamiltonicity,
    is_biconnected,
    is_connected,
    is_k_connected,
    has_perfect_matching,
    min_degree,
)
from .sampling import FeatureProbabilities, Seed, _encode_label, sample_rig
from .thresholds import (
    default_omega,
    homogeneous_p_for_target,
    limit_probability,
    per_feature_mass,
    refined_threshold_rhs,
    summary_stats,
)

RESULTS_HEADER = ("theorem", "c", "n", "m", "trial", "seed", "verdict", "unknown_flag")


@dataclass(frozen=True)
class LawSpec:
    """How one target law plans its model and judges a sample."""

    name: str
    needs_k: bool
    doubles_vertices: bool
    lnln_multiplier: int | None  # -1 encodes (k-1); None marks the refined displays
    refined_kind: str | None
    limit_style: str  # "f" (double-exponential law) or "zero-one"
    delta_level: int  # min-degree level implied by the property; 0 means "use k"


_LAWS = {
    "connectivity": LawSpec("connectivity", False, False, 0, None, "f", 1),
    "k-connectivity": LawSpec("k-connectivity", True, False, -1, None, "zero-one", 0),
    "perfect-matching": LawSpec("perfect-matching", False, True, 0, None, "f", 1),
    "hamiltonicity": LawSpec("hamiltonicity", False, False, 1, None, "zero-one", 2),
    "hamiltonicity-refined": LawSpec(
        "hamiltonicity-refined", False, False, None, "hamiltonicity", "zero-one", 2),
    "k-connectivity-refined": LawSpec(
        "k-connectivity-refined", True, False, None, "k-connectivity", "zero-one", 0),
    "min-degree": LawSpec("min-degree", False, False, 0, None, "f", 1),
    "min-degree-refined": LawSpec(
        "min-degree-refined", True, False, None, "min-degree", "zero-one", 0),
}

_TAG_RE = re.compile(r"^([a-z-]+?)(?:\((\d+)\))?$")


def parse_law_tag(tag: str) -> tuple[LawSpec, int]:
    """Split a law tag like "k-connectivity(3)" into its spec and k."""
    m = _TAG_RE.match(tag.strip())
    if not m or m.group(1) not in _LAWS:
        raise ValidationError(f"unknown law tag {tag!r}; known: {sorted(_LAWS)}")
    spec = _LAWS[m.group(1)]
    k = int(m.group(2)) if m.group(2) else 1
    if spec.needs_k and m.group(2) is None:
        raise ValidationError(f"law {spec.name!r} needs an explicit k, e.g. {spec.name}(2)")
    if not spec.needs_k and m.group(2) is not None:
        raise ValidationError(f"law {spec.name!r} does not take a k parameter")
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    return spec, k


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        if not isinstance(self.c_grid, (list, tuple)) or not all(map(_is_number, self.c_grid)):
            raise ValidationError(f"c_grid must be a list of numbers, got {self.c_grid!r}")
        if not isinstance(self.profile, dict):
            raise ValidationError(f"profile must be an object, got {self.profile!r}")
        if self.omega is not None:
            if not _is_number(self.omega) or not self.omega > 0:
                raise ValidationError(f"omega must be a positive number, got {self.omega!r}")
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
        grid = tuple(float(c) for c in self.c_grid)
        object.__setattr__(self, "c_grid", grid)
        if not grid:
            raise ValidationError("c_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("c_grid must be strictly increasing")
        if self.trials_per_point < 1:
            raise ValidationError("trials_per_point must be positive")
        kind = self.profile.get("kind")
        if kind not in ("homogeneous", "explicit"):
            raise ValidationError(f"profile kind must be homogeneous or explicit, got {kind!r}")
        if kind == "explicit":
            vals = self.profile.get("values")
            if not isinstance(vals, (list, tuple)) or len(vals) != self.m:
                raise ValidationError("explicit profile needs exactly m base values")
            if not all(map(_is_number, vals)):
                raise ValidationError(f"explicit profile values must be numbers, got {vals!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {
            "theorem", "n", "m", "c_grid", "trials_per_point", "master_seed",
            "profile", "omega", "hc_budget", "experiment_id",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {"theorem", "n", "m", "c_grid", "trials_per_point", "master_seed"} - set(doc)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        kwargs = dict(doc)
        if "profile" in kwargs and kwargs["profile"] is None:
            del kwargs["profile"]
        return cls(**kwargs)

    def manifest(self) -> dict:
        """Config echo with every default filled in."""
        spec, k = parse_law_tag(self.theorem)
        n_vertices = 2 * self.n if spec.doubles_vertices else self.n
        return {
            "theorem": self.theorem,
            "n": self.n,
            "m": self.m,
            "vertices_per_trial": n_vertices,
            "c_grid": list(self.c_grid),
            "trials_per_point": self.trials_per_point,
            "master_seed": self.master_seed,
            "profile": self.profile,
            "omega": self.omega if self.omega is not None else default_omega(n_vertices),
            "hc_budget": self.hc_budget,
            "experiment_id": self.experiment_id,
            "version": __version__,
        }


@dataclass(frozen=True)
class PlannedPoint:
    index: int
    c: float
    n_vertices: int
    m: int
    probabilities: FeatureProbabilities
    s1_target: float
    s1_achieved: float
    a_n: float
    predicted: float | None


@dataclass(frozen=True)
class TrialRecord:
    point_index: int
    c: float
    n_vertices: int
    m: int
    trial: int
    seed_word: int
    outcome: str  # "yes" | "no" | "unknown"
    min_degree: int


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


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at frequencies near 0 and 1."""
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


def _solve_refined(n: int, m: int, kind: str, k: int, c: float) -> float:
    """Solve m*g(p) = numerator(n, p) + c for p by bisection with sign search."""

    def h(p: float) -> float:
        return m * per_feature_mass(n, p) - refined_threshold_rhs(n, p, kind, k) - c

    lo, hi = 1e-15, 1.0 - 1e-15
    if h(lo) > 0 or h(hi) < 0:
        raise OutOfRangeError(
            f"refined target not bracketed on (0,1) at n={n}, m={m}, c={c}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(lo, 1e-300):
            break
    p = 0.5 * (lo + hi)
    target = (refined_threshold_rhs(n, p, kind, k) + c) / m
    if target <= 0 or abs(per_feature_mass(n, p) - target) / target > 1e-8:
        raise OutOfRangeError(f"refined solve residual too large at n={n}, m={m}, c={c}")
    return p


def _scale_explicit(n: int, base: tuple[float, ...], s1_target: float) -> FeatureProbabilities:
    """Scale a base profile by a scalar (entries clipped into (0,1)) to hit S1."""
    top = 1.0 - 1e-12

    def stats_for(scale: float):
        vals = tuple(min(top, max(1e-300, scale * b)) for b in base)
        return FeatureProbabilities(vals)

    def s1_of(scale: float) -> float:
        return summary_stats(n, stats_for(scale), t_max=2).S1

    hi = 1.0
    while s1_of(hi) < s1_target:
        hi *= 2.0
        if hi > 1e9:
            raise OutOfRangeError(f"explicit profile cannot reach S1 target {s1_target}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s1_of(mid) <= s1_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1e-300):
            break
    scale = 0.5 * (lo + hi)
    achieved = s1_of(scale)
    if abs(achieved - s1_target) / s1_target > 1e-8:
        raise OutOfRangeError(
            f"profile scaling residual {abs(achieved - s1_target) / s1_target:.2e} "
            f"exceeds 1e-8 for S1 target {s1_target}")
    return stats_for(scale)


def plan_point(config: ExperimentConfig, c: float, index: int = 0) -> PlannedPoint:
    """Resolve one grid value into a fully specified model."""
    spec, k = parse_law_tag(config.theorem)
    n = 2 * config.n if spec.doubles_vertices else config.n
    m = config.m
    try:
        if spec.refined_kind is not None:
            if config.profile.get("kind") != "homogeneous":
                raise ValidationError(
                    f"law {spec.name!r} is a homogeneous display; explicit profiles not supported")
            p_scalar = _solve_refined(n, m, spec.refined_kind, k, c)
            probs = FeatureProbabilities.homogeneous(m, p_scalar)
            s1_target = n * (refined_threshold_rhs(n, p_scalar, spec.refined_kind, k) + c)
        else:
            mult = spec.lnln_multiplier
            shift = (k - 1 if mult == -1 else mult) * math.log(math.log(n))
            s1_target = n * (math.log(n) + shift + c)
            if s1_target <= 0:
                raise OutOfRangeError(f"S1 target {s1_target} not positive")
            if config.profile.get("kind") == "homogeneous":
                rhs = s1_target / (n * m)
                p_scalar = homogeneous_p_for_target(n, m, rhs)
                probs = FeatureProbabilities.homogeneous(m, p_scalar)
            else:
                probs = _scale_explicit(n, tuple(config.profile["values"]), s1_target)
        st = summary_stats(n, probs, t_max=2)
        return PlannedPoint(
            index=index,
            c=float(c),
            n_vertices=n,
            m=m,
            probabilities=probs,
            s1_target=s1_target,
            s1_achieved=st.S1,
            a_n=st.a_n,
            predicted=_predicted_value(spec, float(c)),
        )
    except (OutOfRangeError, ValidationError) as exc:
        raise PlanningError(f"cannot plan {config.theorem} point c={c}: {exc}") from exc


def _judge(spec: LawSpec, k: int, g: SimpleGraph, hc_budget: int,
           trial_seed: Seed) -> tuple[str, int]:
    """Evaluate the law's property plus the implied min-degree consistency check."""
    deg = min_degree(g)
    name = spec.name
    if name == "connectivity":
        ok = is_connected(g)
        if ok and deg < 1:
            raise AssertionError("connected graph with an isolated vertex")
        return ("yes" if ok else "no"), deg
    if name in ("k-connectivity", "k-connectivity-refined"):
        ok = is_k_connected(g, k)
        if ok and deg < k:
            raise AssertionError(f"{k}-connected graph with min degree {deg}")
        return ("yes" if ok else "no"), deg
    if name == "perfect-matching":
        ok = has_perfect_matching(g)
        if ok and deg < 1:
            raise AssertionError("perfect matching with an isolated vertex")
        return ("yes" if ok else "no"), deg
    if name in ("hamiltonicity", "hamiltonicity-refined"):
        verdict = hamiltonicity(g, budget=hc_budget, seed=trial_seed.child("hc"))
        if verdict.verdict == "yes":
            if deg < 2 or not is_biconnected(g):
                raise AssertionError("Hamiltonian graph that is not 2-connected")
        return verdict.verdict, deg
    if name in ("min-degree", "min-degree-refined"):
        return ("yes" if deg >= k else "no"), deg
    raise AssertionError(f"unhandled law {name}")


def run_trial(config: ExperimentConfig, point: PlannedPoint, trial: int) -> TrialRecord:
    """One seeded trial; a pure function of (config, point, trial)."""
    spec, k = parse_law_tag(config.theorem)
    trial_seed = Seed(config.master_seed).child(config.experiment_id, point.index, trial)
    instance = sample_rig(point.n_vertices, point.probabilities, trial_seed.child("sample"))
    g = project_rig(instance)
    outcome, deg = _judge(spec, k, g, config.hc_budget, trial_seed)
    return TrialRecord(
        point_index=point.index,
        c=point.c,
        n_vertices=point.n_vertices,
        m=point.m,
        trial=trial,
        seed_word=trial_seed.state_word(),
        outcome=outcome,
        min_degree=deg,
    )


class SweepAborted(RuntimeError):
    """A trial failed; the successful records are attached as a partial result."""

    def __init__(self, cause: str, partial: "SweepResult"):
        super().__init__(f"sweep aborted: {cause}")
        self.partial = partial


def _trial_task(args):
    config, point, trial = args
    try:
        return run_trial(config, point, trial)
    except Exception as exc:  # noqa: BLE001 - reported with trial context
        return (point.index, trial, f"{type(exc).__name__}: {exc}")


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Plan every grid point, run all trials, and aggregate.

    Output is independent of `threads`; records are sorted by
    (point, trial) before aggregation.  A failing trial aborts the sweep
    with the completed records attached (SweepAborted.partial) so callers
    can flush them.
    """
    if threads < 1:
        raise ValidationError(f"threads must be positive, got {threads}")
    start = time.monotonic()
    spec, k = parse_law_tag(config.theorem)
    points = [plan_point(config, c, i) for i, c in enumerate(config.c_grid)]
    tasks = [(config, pt, t) for pt in points for t in range(config.trials_per_point)]
    if threads == 1:
        outcomes = [_trial_task(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_trial_task, tasks, chunksize=chunk))
    records = [r for r in outcomes if isinstance(r, TrialRecord)]
    failures = [r for r in outcomes if not isinstance(r, TrialRecord)]
    records.sort(key=lambda r: (r.point_index, r.trial))
    if failures:
        pidx, trial, cause = failures[0]
        partial = SweepResult(config=config, points=points, records=records,
                              summaries=[], wall_seconds=time.monotonic() - start)
        raise SweepAborted(f"point {pidx} trial {trial}: {cause}", partial)
    summaries = []
    for pt in points:
        rs = [r for r in records if r.point_index == pt.index]
        yes = sum(1 for r in rs if r.outcome == "yes")
        no = sum(1 for r in rs if r.outcome == "no")
        unknown = sum(1 for r in rs if r.outcome == "unknown")
        decided = yes + no
        freq = yes / decided if decided else 0.0
        low, high = wilson_interval(yes, decided)
        deg_level = k if spec.delta_level == 0 else spec.delta_level
        deg_ok = sum(1 for r in rs if r.min_degree >= deg_level)
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
        writer.writerow([
            result.config.theorem,
            repr(r.c),
            r.n_vertices,
            r.m,
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
        "points": [
            {
                "c": s.c,
                "trials": s.trials,
                "yes": s.yes,
                "no": s.no,
                "unknown": s.unknown,
                "frequency": s.frequency,
                "wilson_low": s.wilson_low,
                "wilson_high": s.wilson_high,
                "predicted": s.predicted,
                "unknown_rate": s.unknown_rate,
                "a_n": s.a_n,
                "min_degree_ok_frequency": s.min_degree_ok_frequency,
            }
            for s in result.summaries
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_limit_table(result: SweepResult) -> str:
    lines = ["# c empirical predicted"]
    for s in result.summaries:
        pred = repr(s.predicted) if s.predicted is not None else "nan"
        lines.append(f"{s.c!r} {s.frequency!r} {pred}")
    return "\n".join(lines) + "\n"


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
            ("timings.csv", f"wall_seconds\n{result.wall_seconds!r}\n"),
        ):
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(str(path))
        return written
    except OSError as exc:
        raise OSError(f"cannot write sweep outputs under {out}: {exc}") from exc
