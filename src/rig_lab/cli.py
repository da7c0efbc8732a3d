"""Command line interface.

Subcommands:

* ``rig-lab gen``       sample one graph/hypergraph model, emit edge-list text
* ``rig-lab stats``     print the summary statistics and the coupling chain's
                        sandwich law (``thresholds.sandwich_law``)
* ``rig-lab check``     decide a property of an edge-list file
* ``rig-lab couple``    run coupling-chain trials, JSON lines plus a summary
* ``rig-lab collector`` run coupon-collector trials, JSON lines plus a summary
* ``rig-lab poisson-check`` paired test of the Poissonization identity
* ``rig-lab sweep``     run a configured Monte Carlo sweep into a directory

Each input is declared once: gen's parameters in one table whose names are
both its flags and its ``--config`` keys (a flag wins over the config, a config
value over the default, and null means unset), and the model flags
``--n --m --p --profile --omega`` once for ``stats``, ``couple`` and
``collector``, the last two sharing one command body.

Exit codes: 0 success, 1 sweep aborted (partial outputs flushed),
2 planning/validation error (a count past the int64 keys or numpy's arrays
included) or out of memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import PlanningError, ValidationError
from .experiments import ExperimentConfig, SweepAborted, emit_outputs, run_sweep
from .coupling import (_chain_trial, _collector_trial, _plan_chain, _plan_collector,
                       poissonization_test)
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
from .thresholds import default_omega, poisson_hit_probability, sandwich_law, summary_stats

EXIT_OK = 0
EXIT_ABORTED = 1
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


def _load_probabilities(args) -> FeatureProbabilities:
    if args.profile:
        doc = _load_json(args.profile, (dict, list), "profile")
        values = doc.get("values") if isinstance(doc, dict) else doc
        if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ValidationError(f"profile {args.profile} needs a list of numbers, "
                                  f"bare or under a \"values\" key")
        return FeatureProbabilities(values)
    if args.m is None or args.p is None:
        raise ValidationError("provide --m and --p, or --profile with a JSON value list")
    return FeatureProbabilities.homogeneous(args.m, args.p)


_GEN_MODELS = ("rig", "independent", "draws", "poisson")
# gen's parameters, name: (type, default), each a flag and a --config key
_GEN_PARAMS = {"model": (str, None), "n": (int, None), "m": (int, None), "p": (float, None),
               "profile": (str, None), "arity": (int, 2), "phat": (float, 0.0),
               "draws": (int, 0), "lam": (float, 0.0), "hypergraph": (bool, False),
               "seed": (int, 0), "out": (str, None)}
_GEN_HELP = {"profile": "JSON file with explicit probability values",
             "hypergraph": "emit the hypergraph instead of its projection"}


def _resolve_gen_params(args) -> None:
    """Set every gen parameter that no flag gave from the config, else its default."""
    doc = _load_json(args.config, (dict,), "gen config") if args.config else {}
    unknown = set(doc) - set(_GEN_PARAMS)
    if unknown:
        raise ValidationError(f"unknown gen config fields: {sorted(unknown)}")
    for key, (kind, default) in _GEN_PARAMS.items():
        value = doc.get(key)
        accepted = (int, float) if kind is float else kind
        if value is not None and (not isinstance(value, accepted)
                                  or isinstance(value, bool) and kind is not bool):
            raise ValidationError(f"gen config field {key!r} must be {kind.__name__}, "
                                  f"got {value!r}")
        if not hasattr(args, key):  # no flag given
            setattr(args, key, default if value is None else value)
    if args.model is None or args.n is None:
        raise ValidationError("gen needs --model and --n (flags or --config)")
    if args.model not in _GEN_MODELS:
        raise ValidationError(f"gen config model must be one of {list(_GEN_MODELS)}, "
                              f"got {args.model!r}")


def _cmd_gen(args) -> int:
    _resolve_gen_params(args)
    seed = Seed(args.seed)
    if args.model == "rig":
        probs = _load_probabilities(args)
        inst = sample_rig(args.n, probs, seed.child("gen", "rig"))
        text = graph_to_text(project_rig(inst))
    elif args.model == "independent":
        h = sample_h_independent(args.n, args.arity, args.phat, seed.child("gen", "independent"))
    elif args.model == "draws":
        h = sample_g_star(args.n, args.arity, args.draws, seed.child("gen", "draws"))
    else:  # poisson
        h = sample_g_star_poisson(args.n, args.arity, args.lam, seed.child("gen", "poisson"))
    if args.model != "rig":
        text = hypergraph_to_text(h) if args.hypergraph else graph_to_text(project_hypergraph(h))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _print_json(doc: dict, sort_keys: bool = False) -> int:
    print(json.dumps(doc, indent=2, sort_keys=sort_keys))
    return EXIT_OK


def _cmd_stats(args) -> int:
    probs = _load_probabilities(args)
    stats = summary_stats(args.n, probs, t_max=args.t_max)
    omega = args.omega if args.omega is not None else default_omega(args.n)
    regime, pair_mean, triple_mean, _ = sandwich_law(stats, omega)
    doc = {
        "n": args.n,
        "m": probs.m,
        "S1": stats.S1,
        "S2": stats.S2,
        "S3": stats.S3,
        "S1t": list(stats.S1t),
        "a_n": stats.a_n,
        "pair_mean": pair_mean,
        "triple_mean": triple_mean,
        # the edge probabilities of the sandwich graph (criterion 2)
        "p_hat2": poisson_hit_probability(args.n, 2, pair_mean),
        "p_hat3": poisson_hit_probability(args.n, 3, triple_mean),
        "regime": regime,
        "omega": omega,
    }
    return _print_json(doc)


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
        doc = {"property": "hc", "verdict": verdict.verdict,
               "certificate": list(verdict.certificate) if verdict.certificate else None,
               "effort": verdict.effort}
    return _print_json(doc)


# command: (planner, trial on a plan, its summary counts: name -> whether a report counts)
_TRIAL_COMMANDS = {
    "couple": (_plan_chain, _chain_trial, {
        "guards_all_ok": lambda r: all(r.guard_events.values()),
        "contained_given_guards": lambda r: all(r.guard_events.values()) and r.contained,
    }),
    "collector": (_plan_collector, _collector_trial, {"delta_ge_1": lambda r: r.delta_ge_1}),
}


def _cmd_trials(args) -> int:
    """One JSON line per couple or collector trial, then a summary line."""
    planner, trial, counts = _TRIAL_COMMANDS[args.command]
    probs = _load_probabilities(args)
    if args.trials < 0:
        raise ValidationError(f"--trials must be nonnegative, got {args.trials}")
    omega = args.omega if args.omega is not None else default_omega(args.n)
    plan = planner(args.n, probs, omega)  # every model check, once, before any output
    seed = Seed(args.seed)
    summary = {"trials": args.trials, "omega": omega, **dict.fromkeys(counts, 0)}
    for t in range(args.trials):
        report = trial(plan, seed.child(args.command, t))
        print(json.dumps({**dataclasses.asdict(report), "trial": t}, sort_keys=True))
        for name, holds in counts.items():
            summary[name] += 1 if holds(report) else 0
    print(json.dumps({"summary": summary}, sort_keys=True))
    return EXIT_OK


def _cmd_poisson_check(args) -> int:
    report = poissonization_test(args.n, args.arity, args.lam, args.trials,
                                 Seed(args.seed).child("poisson-check"))
    doc = dataclasses.asdict(report)
    doc.pop("histogram", None)
    return _print_json(doc, sort_keys=True)


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
        return EXIT_ABORTED
    for path in emit_outputs(result, args.out):
        sys.stderr.write(f"wrote {path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rig-lab",
                                     description="Random intersection graph laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a model and emit edge-list text",
                         argument_default=argparse.SUPPRESS)  # an absent flag leaves no attribute
    for name, (kind, _) in _GEN_PARAMS.items():
        if kind is bool:
            gen.add_argument(f"--{name}", action="store_true", help=_GEN_HELP.get(name))
        else:
            gen.add_argument(f"--{name}", type=kind, help=_GEN_HELP.get(name),
                             choices=_GEN_MODELS if name == "model" else None)
    gen.add_argument("--config", default=None, help="JSON file supplying any of the flags above")
    gen.set_defaults(func=_cmd_gen)

    def model_command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        """A subcommand reading one model from --n and --m --p or --profile, with --omega."""
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--n", type=int, required=True)
        command.add_argument("--m", type=int)
        command.add_argument("--p", type=float)
        command.add_argument("--profile", help=_GEN_HELP["profile"])
        command.add_argument("--omega", type=float)
        command.set_defaults(func=func)
        return command

    stats = model_command("stats", _cmd_stats, "print summary statistics as JSON")
    stats.add_argument("--t-max", type=int)

    check = sub.add_parser("check", help="decide a property of an edge-list file")
    check.add_argument("--property", choices=["mindeg", "kconn", "pm", "hc"], required=True)
    check.add_argument("--input", required=True)
    check.add_argument("--k", type=int, default=1)
    check.add_argument("--budget", type=int, default=DEFAULT_HC_BUDGET)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check)

    for name, help_text in (("couple", "run coupling-chain trials"),
                            ("collector", "run coupon-collector trials")):
        trials = model_command(name, _cmd_trials, help_text)
        trials.add_argument("--trials", type=int, default=10)
        trials.add_argument("--seed", type=int, default=0)

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
    except MemoryError as exc:  # e.g. numpy refusing an array for a huge vertex count
        reason = f": {exc}" if str(exc) else ""  # numpy may raise a bare MemoryError()
        sys.stderr.write(f"error: out of memory{reason}\n")
        return EXIT_PLANNING
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
