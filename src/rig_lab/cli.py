"""Command line interface.

Subcommands:

* ``rig-lab gen``       sample one graph/hypergraph model, emit edge-list text
* ``rig-lab stats``     print the summary statistics and coupling parameters
* ``rig-lab check``     decide a property of an edge-list file
* ``rig-lab couple``    run coupling-chain trials, JSON lines plus a summary
* ``rig-lab collector`` run coupon-collector trials, JSON lines plus a summary
* ``rig-lab poisson-check`` paired test of the Poissonization identity
* ``rig-lab sweep``     run a configured Monte Carlo sweep into a directory

Exit codes: 0 success, 1 sweep aborted (partial outputs flushed),
2 planning/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import PlanningError, ValidationError
from .experiments import ExperimentConfig, SweepAborted, emit_outputs, run_sweep
from .coupling import coupon_collector_trial, poissonization_test, run_coupling_trial
from .graphs import graph_from_text, graph_to_text, hypergraph_to_text, project_hypergraph, project_rig
from .properties import (
    DEFAULT_HC_BUDGET,
    hamiltonicity,
    is_k_connected,
    min_degree,
    has_perfect_matching,
)
from .sampling import (
    FeatureProbabilities,
    Seed,
    sample_g_star,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from .thresholds import check_omega, coupling_parameters, default_omega, summary_stats

EXIT_OK = 0
EXIT_PLANNING = 2
EXIT_IO = 3


def _load_json(path: str, shape: tuple[type, ...], what: str):
    """The JSON document in `path`; ValidationError unless it parses to one of `shape`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, shape):
        expected = " or ".join(t.__name__ for t in shape)
        raise ValidationError(f"{what} {path} holds a JSON {type(doc).__name__}, not {expected}")
    return doc


def _load_probabilities(args, m_flag="m", p_flag="p", profile_flag="profile") -> FeatureProbabilities:
    profile_path = getattr(args, profile_flag, None)
    if profile_path:
        doc = _load_json(profile_path, (dict, list), "profile")
        values = doc.get("values") if isinstance(doc, dict) else doc
        if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ValidationError(f"profile {profile_path} needs a list of numbers, "
                                  f"bare or under a \"values\" key")
        return FeatureProbabilities(tuple(float(v) for v in values))
    m = getattr(args, m_flag)
    p = getattr(args, p_flag)
    if m is None or p is None:
        raise ValidationError("provide --m and --p, or --profile with a JSON value list")
    return FeatureProbabilities.homogeneous(m, p)


_GEN_MODELS = ("rig", "independent", "draws", "poisson")
_GEN_PARAMS = {"model": str, "n": int, "m": int, "p": float, "profile": str, "arity": int,
               "phat": float, "draws": int, "lam": float, "hypergraph": bool, "seed": int,
               "out": str}


def _merge_gen_config(args) -> None:
    """Fill parameters from a JSON config; explicit flags keep precedence."""
    if not args.config:
        if args.model is None or args.n is None:
            raise ValidationError("gen needs --model and --n (flags or --config)")
        return
    doc = _load_json(args.config, (dict,), "gen config")
    unknown = set(doc) - set(_GEN_PARAMS)
    if unknown:
        raise ValidationError(f"unknown gen config fields: {sorted(unknown)}")
    for key, value in doc.items():
        kind = _GEN_PARAMS[key]
        accepted = (int, float) if kind is float else kind
        if value is not None and (not isinstance(value, accepted)
                                  or isinstance(value, bool) and kind is not bool):
            raise ValidationError(f"gen config field {key!r} must be {kind.__name__}, "
                                  f"got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.model is None or args.n is None:
        raise ValidationError("gen needs model and n (flags or config)")
    if args.model not in _GEN_MODELS:
        raise ValidationError(f"gen config model must be one of {list(_GEN_MODELS)}, "
                              f"got {args.model!r}")


def _apply_gen_defaults(args) -> None:
    defaults = (("arity", 2), ("phat", 0.0), ("draws", 0), ("lam", 0.0),
                ("seed", 0), ("hypergraph", False))
    for key, default in defaults:
        if getattr(args, key) is None:
            setattr(args, key, default)


def _cmd_gen(args) -> int:
    _merge_gen_config(args)
    _apply_gen_defaults(args)
    seed = Seed(args.seed)
    if args.model == "rig":
        probs = _load_probabilities(args)
        inst = sample_rig(args.n, probs, seed.child("gen", "rig"))
        text = graph_to_text(project_rig(inst))
    elif args.model == "independent":
        h = sample_h_independent(args.n, args.arity, args.phat, seed.child("gen", "independent"))
        text = hypergraph_to_text(h) if args.hypergraph else graph_to_text(project_hypergraph(h))
    elif args.model == "draws":
        h = sample_g_star(args.n, args.arity, args.draws, seed.child("gen", "draws"))
        text = hypergraph_to_text(h) if args.hypergraph else graph_to_text(project_hypergraph(h))
    else:  # poisson
        h = sample_g_star_poisson(args.n, args.arity, args.lam, seed.child("gen", "poisson"))
        text = hypergraph_to_text(h) if args.hypergraph else graph_to_text(project_hypergraph(h))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_stats(args) -> int:
    probs = _load_probabilities(args)
    stats = summary_stats(args.n, probs, t_max=args.t_max)
    omega = args.omega if args.omega is not None else default_omega(args.n)
    params = coupling_parameters(stats, args.n, omega, variant=args.variant)
    doc = {
        "n": args.n,
        "m": probs.m,
        "S1": stats.S1,
        "S2": stats.S2,
        "S3": stats.S3,
        "S1t": list(stats.S1t),
        "a_n": stats.a_n,
        "p_hat": params.p_hat,
        "p_hat2": params.p_hat2,
        "p_hat3": params.p_hat3,
        "regime": params.regime,
        "omega": omega,
        "variant": params.variant,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        g = graph_from_text(fh.read())
    if args.property == "mindeg":
        doc = {"property": "mindeg", "min_degree": min_degree(g)}
    elif args.property == "kconn":
        doc = {"property": "kconn", "k": args.k, "verdict": is_k_connected(g, args.k)}
    elif args.property == "pm":
        doc = {"property": "pm", "verdict": has_perfect_matching(g)}
    else:  # hc
        verdict = hamiltonicity(g, budget=args.budget, seed=Seed(args.seed).child("check", "hc"))
        doc = {
            "property": "hc",
            "verdict": verdict.verdict,
            "certificate": list(verdict.certificate) if verdict.certificate else None,
            "effort": verdict.effort,
        }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _trial_run(args) -> tuple[FeatureProbabilities, float]:
    """Profile and omega of a couple or collector run, checked before any output."""
    probs = _load_probabilities(args)
    if args.trials < 0:
        raise ValidationError(f"--trials must be nonnegative, got {args.trials}")
    omega = args.omega if args.omega is not None else default_omega(args.n)
    check_omega(omega)
    return probs, omega


def _cmd_couple(args) -> int:
    probs, omega = _trial_run(args)
    seed = Seed(args.seed)
    all_guards = 0
    contained = 0
    for t in range(args.trials):
        report = run_coupling_trial(args.n, probs, omega, seed.child("couple", t))
        doc = _jsonable(report)
        doc["trial"] = t
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        if all(report.guard_events.values()):
            all_guards += 1
            contained += 1 if report.contained else 0
    summary = {
        "trials": args.trials,
        "omega": omega,
        "guards_all_ok": all_guards,
        "contained_given_guards": contained,
    }
    sys.stdout.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_collector(args) -> int:
    probs, omega = _trial_run(args)
    seed = Seed(args.seed)
    delta_ok = 0
    for t in range(args.trials):
        report = coupon_collector_trial(args.n, probs, omega, seed.child("collector", t))
        doc = _jsonable(report)
        doc["trial"] = t
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        delta_ok += 1 if report.delta_ge_1 else 0
    summary = {"trials": args.trials, "omega": omega, "delta_ge_1": delta_ok}
    sys.stdout.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_poisson_check(args) -> int:
    report = poissonization_test(args.n, args.arity, args.lam, args.trials,
                                 Seed(args.seed).child("poisson-check"))
    doc = _jsonable(report)
    doc.pop("histogram", None)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _load_json(args.config, (dict,), "sweep config")
    if args.seed is not None:
        doc["master_seed"] = args.seed
    config = ExperimentConfig.from_dict(doc)
    try:
        result = run_sweep(config, threads=args.threads)
    except SweepAborted as exc:
        emit_outputs(exc.partial, args.out)
        sys.stderr.write(f"error: {exc} (partial results flushed to {args.out})\n")
        return 1
    written = emit_outputs(result, args.out)
    for path in written:
        sys.stderr.write(f"wrote {path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rig-lab",
                                     description="Random intersection graph laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a model and emit edge-list text")
    gen.add_argument("--model", choices=_GEN_MODELS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--p", type=float)
    gen.add_argument("--profile", help="JSON file with explicit probability values")
    gen.add_argument("--arity", type=int, default=None)
    gen.add_argument("--phat", type=float, default=None)
    gen.add_argument("--draws", type=int, default=None)
    gen.add_argument("--lam", type=float, default=None)
    gen.add_argument("--hypergraph", action="store_const", const=True, default=None,
                     help="emit the hypergraph instead of its projection")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--config", help="JSON file supplying any of the flags above")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    stats = sub.add_parser("stats", help="print summary statistics as JSON")
    stats.add_argument("--n", type=int, required=True)
    stats.add_argument("--m", type=int)
    stats.add_argument("--p", type=float)
    stats.add_argument("--profile")
    stats.add_argument("--t-max", type=int, default=None)
    stats.add_argument("--omega", type=float, default=None)
    stats.add_argument("--variant", choices=["linear", "exponential"], default="linear")
    stats.set_defaults(func=_cmd_stats)

    check = sub.add_parser("check", help="decide a property of an edge-list file")
    check.add_argument("--property", choices=["mindeg", "kconn", "pm", "hc"], required=True)
    check.add_argument("--input", required=True)
    check.add_argument("--k", type=int, default=1)
    check.add_argument("--budget", type=int, default=DEFAULT_HC_BUDGET)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check)

    couple = sub.add_parser("couple", help="run coupling-chain trials")
    couple.add_argument("--n", type=int, required=True)
    couple.add_argument("--m", type=int)
    couple.add_argument("--p", type=float)
    couple.add_argument("--profile")
    couple.add_argument("--omega", type=float, default=None)
    couple.add_argument("--trials", type=int, default=10)
    couple.add_argument("--seed", type=int, default=0)
    couple.set_defaults(func=_cmd_couple)

    collector = sub.add_parser("collector", help="run coupon-collector trials")
    collector.add_argument("--n", type=int, required=True)
    collector.add_argument("--m", type=int)
    collector.add_argument("--p", type=float)
    collector.add_argument("--profile")
    collector.add_argument("--omega", type=float, default=None)
    collector.add_argument("--trials", type=int, default=10)
    collector.add_argument("--seed", type=int, default=0)
    collector.set_defaults(func=_cmd_collector)

    pz = sub.add_parser("poisson-check", help="paired test of the Poissonization identity")
    pz.add_argument("--n", type=int, required=True)
    pz.add_argument("--arity", type=int, default=3)
    pz.add_argument("--lam", type=float, required=True)
    pz.add_argument("--trials", type=int, default=20000)
    pz.add_argument("--seed", type=int, default=0)
    pz.set_defaults(func=_cmd_poisson_check)

    sweep = sub.add_parser("sweep", help="run a configured Monte Carlo sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the master seed in the config")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanningError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PLANNING
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
