"""Command-line entry point.

Subcommands: certify, experiment, deck, schmidt, hypergraph, oa,
counting-table.  Exit codes: 0 on success, 1 on domain errors, 2 on usage
errors.  With --json all machine output is a single JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .arrays import non_udp_witness, parse_array_text, qoa_state
from .certify import CrossCutSpec, Tolerances, certify_udp
from .experiments import ExperimentConfig, check_counting_table, run_experiment
from .hypergraph import is_connected, marginal_number_lower_bound
from .marginals import MarginalFamily, _deck_gap, compute_deck
from .schmidt import classify_genericity, schmidt_decompose
from .states import (_dumps, _text_integer, load_state, save_state,
                     state_to_json_dict)


def _emit(data: dict, as_json: bool, human: str | None = None) -> None:
    print(_dumps(data) if as_json or human is None else human)


def _genericity_json(report) -> dict:
    """A `GenericityReport` as JSON; an infinite `min_gap` (rank 1) is null."""
    gap = report.min_gap
    return {**asdict(report), "min_gap": gap if math.isfinite(gap) else None}


def _json_reals(text: str, flag: str, *, pairs: bool = False) -> list:
    """The JSON list a flag gives, of real numbers or, with `pairs`, also
    [re, im] pairs of them; anything else is a domain error.  The list
    comes back with its integers read as floats, so that one too large for
    a float is infinite."""
    what = "a real number or an [re, im] pair" if pairs else "a real number"
    values = json.loads(text)
    if not isinstance(values, list):
        raise ValueError(f"{flag} must be a JSON list, each entry {what}")
    for x in values:
        pair = pairs and isinstance(x, list) and len(x) == 2
        if not all(type(v) in (int, float) for v in (x if pair else [x])):
            raise ValueError(f"{flag} entry {json.dumps(x)} is not {what}")
    return json.loads(text, parse_int=float)


def _tolerance_flags(args) -> dict:
    """The tolerance flags given, by `Tolerances` field; every tolerance
    flag defaults to None, so an omitted one is told from a given one."""
    return {f.name: getattr(args, f.name) for f in fields(Tolerances)
            if getattr(args, f.name, None) is not None}


def _cmd_certify(args) -> int:
    tol = Tolerances(**_tolerance_flags(args))
    state = load_state(args.state)
    spec = CrossCutSpec.parse(args.blocks, state.structure.num_parties)
    family = None
    if args.family is not None:
        family = MarginalFamily.parse(state.structure.num_parties, args.family)
    verdict = certify_udp(state, spec, family, seed=args.seed, **asdict(tol))
    data = {
        "status": verdict.status.value,
        "null_dim": verdict.null_dim,
        "genericity": _genericity_json(verdict.genericity),
        "equation_counts": verdict.equation_counts,
        "notes": list(verdict.notes),
    }
    if verdict.witness is not None:
        data["witness"] = state_to_json_dict(verdict.witness)
        data["witness_deck_distance"] = verdict.witness_deck_distance
        data["witness_fidelity"] = verdict.witness_fidelity
        if args.out:
            save_state(verdict.witness, args.out)
    _emit(data, args.json,
          human=f"{verdict.status.value} (null_dim={verdict.null_dim}, "
                f"rank={verdict.genericity.rank}, "
                f"equations={verdict.equation_counts['complex_equations']}, "
                f"variables={verdict.equation_counts['complex_variables']})")
    return 0


def _cmd_experiment(args) -> int:
    flags = _tolerance_flags(args)
    tol = Tolerances(**flags)
    if args.config:
        # the file holds every other setting, so a flag it would drop is
        # refused instead
        dropped = [f"--{name.replace('_', '-')}"
                   for name in ("n", "d", "blocks", *flags)
                   if getattr(args, name) is not None]
        if dropped:
            raise ValueError(f"{', '.join(dropped)} cannot be combined with "
                             "--config; only --trials, --seed and --out "
                             "override the file")
        base = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
        overrides = {"output_path": args.out or None, "trials": args.trials,
                     "seed": args.seed}
        config = replace(base, **{name: value for name, value
                                  in overrides.items() if value is not None})
    else:
        for name in ("n", "d", "trials", "blocks"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required without --config")
        spec = CrossCutSpec.parse(args.blocks, args.n)
        config = ExperimentConfig(num_parties=args.n, local_dim=args.d,
                                  trials=args.trials,
                                  seed=args.seed if args.seed is not None else 0,
                                  blocks=spec, tolerances=tol,
                                  output_path=args.out)
    report = run_experiment(config, verbose=not args.json)
    if args.json:
        print(_dumps(report.to_json_dict()))
    return 0


def _cmd_deck_diff(args) -> int:
    tol = Tolerances(**_tolerance_flags(args)).deck_tol
    state_a = load_state(args.state_a)
    state_b = load_state(args.state_b)
    family = MarginalFamily.parse(state_a.structure.num_parties, args.family)
    dist = _deck_gap(state_a, state_b, family)
    equal = dist <= tol
    _emit({"distance": dist, "equal": equal, "tol": tol}, args.json,
          human=f"deck distance {dist:.3e} "
                f"({'equal' if equal else 'different'} at tol {tol:g})")
    return 0


def _cmd_deck_export(args) -> int:
    state = load_state(args.state)
    family = MarginalFamily.parse(state.structure.num_parties, args.family)
    text = _dumps(compute_deck(state, family).to_json_dict())
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def _cmd_schmidt(args) -> int:
    tol = Tolerances(**_tolerance_flags(args))
    state = load_state(args.state)
    cut = tuple(_text_integer(p, "party") for p in args.cut.split(","))
    dec = schmidt_decompose(state, cut)
    report = classify_genericity(dec, gap_tol=tol.gap_tol)
    data = {
        "cut": list(dec.left_parties),
        "complement": list(dec.right_parties),
        "rank": dec.rank,
        "lambdas": [float(x) for x in dec.lambdas],
        "genericity": _genericity_json(report),
    }
    print(_dumps(data))
    return 0


def _cmd_hypergraph(args) -> int:
    family = MarginalFamily.parse(args.n, args.family)
    connected = is_connected(family)
    sizes = {len(s) for s in family.subsets}
    lower_bound = None
    if len(sizes) == 1:
        k = sizes.pop()
        if k >= 2:
            lower_bound = marginal_number_lower_bound(args.n, k)
    _emit({"connected": connected, "lower_bound_for_k": lower_bound,
           "violation": not connected}, args.json,
          human=f"connected={connected} violation={not connected} "
                f"lower_bound_for_k={lower_bound}")
    return 0


def _cmd_oa(args) -> int:
    tol = Tolerances(**_tolerance_flags(args))
    text = Path(args.file).read_text()
    if args.action == "verify":
        array = parse_array_text(text)  # raises on violated properties
        data = {"kind": type(array).__name__, "rows": array.num_rows,
                "cols": array.num_cols, "levels": array.levels,
                "strength": array.strength}
        if hasattr(array, "index_lambda"):
            data["index_lambda"] = array.index_lambda
            data["irredundant"] = array.irredundant
        _emit(data, args.json,
              human=f"{data['kind']}({array.num_rows}, {array.num_cols}, "
                    f"{array.levels}, {array.strength}) verified")
        return 0
    array = parse_array_text(text)
    amps = None
    if args.amps:
        raw = args.amps
        if not raw.lstrip().startswith("["):
            raw = Path(raw).read_text()
        amps = np.array([complex(*x) if isinstance(x, list) else complex(x)
                         for x in _json_reals(raw, "--amps", pairs=True)])
    gstate = qoa_state(array, amps)
    if args.action == "state":
        if args.out:
            save_state(gstate.state, args.out)
        else:
            print(_dumps(state_to_json_dict(gstate.state)))
        return 0
    # witness
    if args.flip is not None and not 1 <= args.flip <= array.num_rows:
        raise ValueError(f"--flip {args.flip} outside 1..{array.num_rows}")
    phases = args.flip - 1 if args.flip is not None else \
        _json_reals(args.phases, "--phases") if args.phases else None
    if phases is None:
        raise ValueError("pass --flip ROW (1-based) or --phases '[...]'")
    result = non_udp_witness(gstate, phases, deck_tol=tol.deck_tol)
    data = {"verified": result.verified, "deck_distance": result.deck_distance,
            "fidelity": result.fidelity,
            "witness": state_to_json_dict(result.witness)}
    if args.out:
        save_state(result.witness, args.out)
        del data["witness"]
    _emit(data, args.json,
          human=f"witness verified={result.verified} "
                f"deck_distance={result.deck_distance:.3e} "
                f"fidelity={result.fidelity:.6f}")
    return 0


def _cmd_counting_table(args) -> int:
    table = check_counting_table(args.max_n, args.max_d)
    if args.json:
        print(_dumps(table.to_json_dict()))
        return 0
    print(f"{'n':>3} {'d':>3} {'|A|':>4} {'variables':>10} {'equations':>10} "
          f"{'surplus':>9} {'closed_form':>11} {'flag':>5}")
    for row in table.rows:
        closed = "" if row.closed_form_surplus is None else str(row.closed_form_surplus)
        match = ""
        if row.closed_form_matches is False:
            match = "MISMATCH"
        elif row.nonpositive_surplus:
            match = "<=0"
        print(f"{row.n:>3} {row.d:>3} {row.a_size:>4} {row.variables:>10} "
              f"{row.equations:>10} {row.surplus:>9} {closed:>11} {match:>5}")
    for summary in table.summaries:
        if not summary.min_at_extremes:
            print(f"WARNING: minimum for n={summary.n}, d={summary.d} "
                  f"not at an extreme split: {summary.minimizing_a_sizes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puredeck",
        description="Decide whether pure states are uniquely determined by "
                    "families of their reduced density matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p = sub.add_parser("certify", help="cross-cut uniqueness verdict for a state")
    p.add_argument("state", help="state JSON file (or inline JSON)")
    p.add_argument("--blocks", required=True,
                   help="block spec, e.g. 'A=1,2;B=3;C=4;D=5,6'")
    p.add_argument("--family", default=None,
                   help="marginal family the verdict is about: 'k=<int>' or "
                        "'1,2;3,4;...' (default: the four cut marginals); "
                        "certifying needs AB, CD, AC and BD each inside a "
                        "member, and witnesses are verified against it")
    p.add_argument("--svd-tol", type=float, default=None)
    p.add_argument("--deck-tol", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write any witness state here")
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("experiment", help="batch certification of Haar states")
    p.add_argument("--n", type=int, default=None, help="number of parties")
    p.add_argument("--d", type=int, default=None, help="local dimension")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--blocks", default=None)
    p.add_argument("--config", default=None,
                   help="JSON config file mirroring the experiment settings; "
                        "only --trials/--seed/--out override it")
    p.add_argument("--svd-tol", type=float, default=None)
    p.add_argument("--deck-tol", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    add_common(p)
    p.set_defaults(func=_cmd_experiment)

    # each action is its own parser, so argparse refuses a flag the action
    # would not use
    actions = sub.add_parser("deck", help="compare or export decks of "
                                          "marginals").add_subparsers(
        dest="action", required=True)

    def add_family(p):
        p.add_argument("--family", required=True,
                       help="'k=<int>' for the complete k-deck or "
                            "'1,2,3;4,5,6'")

    p = actions.add_parser("diff", help="largest Frobenius distance between "
                                        "two states' marginals")
    p.add_argument("state_a")
    p.add_argument("state_b")
    add_family(p)
    p.add_argument("--tol", type=float, default=None, dest="deck_tol",
                   metavar="TOL")
    add_common(p)
    p.set_defaults(func=_cmd_deck_diff)

    p = actions.add_parser("export", help="one state's marginals as JSON")
    p.add_argument("state")
    add_family(p)
    p.add_argument("--out", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_deck_export)

    p = sub.add_parser("schmidt", help="spectrum and genericity along a cut")
    p.add_argument("state")
    p.add_argument("--cut", required=True, help="left side, e.g. '1,2,3'")
    p.add_argument("--gap-tol", type=float, default=None)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("hypergraph",
                       help="connectivity check of a marginal family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_hypergraph)

    actions = sub.add_parser("oa", help="verify arrays, build states and "
                                        "witnesses").add_subparsers(
        dest="action", required=True)
    verify = actions.add_parser("verify", help="check the array's defining "
                                               "property")
    state = actions.add_parser("state", help="the state on the array's rows")
    witness = actions.add_parser("witness", help="a phase-twisted twin "
                                                 "sharing the complete "
                                                 "(N-k)-deck")
    for p in (verify, state, witness):
        p.add_argument("file", help="array text file: header 'OA r N d k' or "
                                    "'PA r N d k', one row per line")
        add_common(p)
        p.set_defaults(func=_cmd_oa)
    for p in (state, witness):
        p.add_argument("--amps", default=None,
                       help="JSON amplitude list (inline or a file path)")
        p.add_argument("--out", default=None)
    twist = witness.add_mutually_exclusive_group()
    twist.add_argument("--flip", type=int, default=None,
                       help="1-based row whose amplitude is negated")
    twist.add_argument("--phases", default=None, help="JSON list of row phases")
    witness.add_argument("--deck-tol", type=float, default=None)

    p = sub.add_parser("counting-table",
                       help="variables vs equations across splits")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-d", type=int, default=4)
    add_common(p)
    p.set_defaults(func=_cmd_counting_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
