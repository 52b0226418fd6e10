"""Command-line entry point.

Subcommands: run, analyze-order, bounds, search, worst-case, spne,
check-axioms, experiment. Inputs are JSON files (orders, profiles), outputs
are JSON on stdout (CSV for experiments). Exit codes: 0 success, 1 invalid
input (usage errors included) or execution failure, 2 capacity or budget
refusal; each failure prints one line on stderr and nothing on stdout, with
control characters escaped, over-long tokens cut and at most 300
characters.

Each output document, and the profile that ``worst-case --out`` writes, is
JSON indented by two spaces, byte for byte what ``json.dumps(doc, indent=2)``
prints; the ``--trace`` lines are compact ``json.dumps`` records, one a line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .adversarial import ConstructionError, _witness
from .axioms import (
    Exhaustive,
    Sampled,
    bossy_conditional_sd,
    check_all,
    non_neutral_conditional_sd,
    sd_direct,
    welfare_maximizer,
    worst_pick_sd,
)
from .bounds import search_orders, worst_case_report
from .domain import (
    Allocation,
    CapacityError,
    DomainShape,
    Profile,
    ValidationError,
    _REPR,
    allocation_to_json,
    profile_from_json,
    profile_to_json,
)
from .engine import _BEHAVIORS, ExecutionError, Scripted, run_csam
from .mallows import (
    DEFAULT_GRID,
    ExperimentConfig,
    MechanismConfig,
    results_to_csv,
    run_experiment,
)
from .orders import order_from_json, order_to_json
from .spne import DEFAULT_STATE_CAP, solve_spne, state_space_size


def _load_json(path: str):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a path holding NUL, which open refuses
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        with fh:
            return json.load(fh)
    except OSError as exc:  # a read that fails once the file is open
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except RecursionError:
        raise ValidationError(f"{path} is nested too deeply to read") from None
    except ValueError as exc:
        # a JSONDecodeError, a byte that is not UTF-8, or an integer over
        # the interpreter's digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    except ValueError as exc:  # a path holding NUL, which open refuses
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _parse_behaviors(text: str, n: int):
    tokens = text.split(",")
    if len(tokens) != n:
        raise ValidationError(
            f"behavior list {_REPR.repr(text)} has {len(tokens)} entries, expected {n}"
        )
    return [_behavior(tok.strip()) for tok in tokens]


def _behavior(tok: str):
    if tok in _BEHAVIORS:
        return _BEHAVIORS[tok]
    if tok.startswith("script:"):
        picks = _load_json(tok.split(":", 1)[1])
        if not isinstance(picks, list):
            raise ValidationError(
                f"script file for {_REPR.repr(tok)} must hold a JSON list of items"
            )
        return Scripted(tuple(picks))
    known = ", ".join(_BEHAVIORS)
    raise ValidationError(f"unknown behavior {_REPR.repr(tok)} (use {known}, or script:FILE)")


def _number(token: str, convert, flag: str):
    try:
        return convert(token)
    except ValueError:
        raise ValidationError(f"{flag} has a malformed entry {_REPR.repr(token)}") from None


def _parse_int_list(text: str) -> Sequence[int]:
    if ".." in text:
        lo, hi = (_number(x, int, "--n") for x in text.split("..", 1))
        # a lazy range: ExperimentConfig refuses the first oversized n
        # without building the rest
        return range(lo, hi + 1)
    return tuple(_number(x, int, "--n") for x in text.split(","))


def _key(key) -> str:
    """A dict key as the string json writes for it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dumps(doc, newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, without json's
    pure-Python encoder (CPython's C encoder ignores ``indent``): containers
    are walked here, scalars go through json's C encoder. ``newline`` is the
    line break and indent that precede ``doc``'s closing bracket."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = newline + "  "
        if set(map(type, doc)) == {int}:
            items = map(int.__repr__, doc)
        else:
            items = [_dumps(x, inner) for x in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(_key(k)) + ": " + _dumps(v, inner) for k, v in doc.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # any other scalar, or json's TypeError
    return json.dumps(doc)


def _print(doc) -> None:
    print(_dumps(doc))


def _ranks_doc(profile: Profile, allocation: Allocation) -> dict:
    """The allocation with each agent's rank of her bundle, read once, and
    their sum and maximum. The allocation is not checked again: the engine
    and the witness builder check theirs, and the solver's is one item
    permutation per category by construction."""
    ranks = [pref.rank_of(allocation[j]) for j, pref in enumerate(profile.preferences, 1)]
    return {
        "allocation": allocation_to_json(allocation),
        "ranks": {str(j): rank for j, rank in enumerate(ranks, 1)},
        "utilitarian": sum(ranks),
        "egalitarian": max(ranks),
    }


def _cmd_run(args) -> int:
    order = order_from_json(_load_json(args.order))
    profile = profile_from_json(_load_json(args.profile))
    behaviors = _parse_behaviors(args.behaviors, order.shape.n)
    allocation, trace = run_csam(order, profile, behaviors)
    if args.trace:
        for record in trace.rounds:
            print(json.dumps(record.to_json()))
    doc = _ranks_doc(profile, allocation)
    doc["message_count"] = trace.message_count
    _print(doc)
    return 0


def _cmd_analyze_order(args) -> int:
    order = order_from_json(_load_json(args.order))
    analytics = order.analytics
    shape = order.shape
    doc = {
        **order_to_json(order),
        "agents": [
            {
                "agent": j,
                "suborder": list(analytics.suborder(j)),
                "slacks": {str(i): analytics.slack(j, i) for i in shape.categories()},
                "uninterrupted_index": analytics.uninterrupted_index(j),
            }
            for j in shape.agents()
        ],
        "message_count": (1 + shape.n * shape.p) * shape.n,
    }
    _print(doc)
    return 0


def _cmd_bounds(args) -> int:
    order = order_from_json(_load_json(args.order))
    behaviors = _parse_behaviors(args.behaviors, order.shape.n)
    _print(worst_case_report(order, behaviors).to_json())
    return 0


def _cmd_search(args) -> int:
    behaviors = _parse_behaviors(args.behaviors, args.n)
    result = search_orders(
        args.n,
        args.p,
        behaviors,
        objective=args.objective,
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
    )
    _print(
        {
            "order": order_to_json(result.order),
            "score": result.score,
            "objective": args.objective,
            "evaluated": result.evaluated,
        }
    )
    return 0


def _cmd_worst_case(args) -> int:
    order = order_from_json(_load_json(args.order))
    behaviors = _parse_behaviors(args.behaviors, order.shape.n)
    profile, allocation, near, report = _witness(order, behaviors)
    doc = {
        "profile": profile_to_json(profile),
        "bounds": report.to_json(),
        "realized": _ranks_doc(profile, allocation),
        "near_optimal": _ranks_doc(profile, near),
    }
    if args.out:
        _write(args.out, _dumps(profile_to_json(profile)))
    _print(doc)
    return 0


def _cmd_spne(args) -> int:
    order = order_from_json(_load_json(args.order))
    profile = profile_from_json(_load_json(args.profile))
    allocation, trace = solve_spne(
        order, profile, state_cap=args.state_cap, collect_trace=args.trace
    )
    if args.trace:
        for step in trace:
            print(json.dumps(step.to_json()))
    doc = _ranks_doc(profile, allocation)
    if args.states:
        doc["state_space_size"] = state_space_size(order)
    _print(doc)
    return 0


_MECHANISMS = {
    "sd": lambda n: sd_direct(list(range(1, n + 1))),
    "welfare": lambda n: welfare_maximizer(),
    "bossy-sd": lambda n: bossy_conditional_sd(),
    "nonneutral-sd": lambda n: non_neutral_conditional_sd(),
    "worst-pick-sd": lambda n: worst_pick_sd(list(range(1, n + 1))),
}


def _cmd_check_axioms(args) -> int:
    shape = DomainShape(args.n, args.p)
    mechanism = _MECHANISMS[args.mechanism](args.n)
    # checks --count and --seed in exhaustive mode too, which reads neither
    sampled = Sampled(count=args.count, seed=args.seed)
    mode = Exhaustive(budget=args.budget) if args.mode == "exhaustive" else sampled
    verdicts = check_all(mechanism, shape, mode)
    _print({"mechanism": mechanism.name, "verdicts": [v.to_json() for v in verdicts]})
    return 0


def _cmd_experiment(args) -> int:
    mechanisms = DEFAULT_GRID
    if args.mechanisms is not None:
        entries = (tok.partition(":") for tok in args.mechanisms.split(","))
        mechanisms = tuple(MechanismConfig(f.strip(), b.strip()) for f, _, b in entries)
    config = ExperimentConfig(
        p=args.p,
        n_values=_parse_int_list(args.n),
        phis=tuple(_number(x, float, "--phi") for x in args.phi.split(",")),
        samples=args.samples,
        seed=args.seed,
        mechanisms=mechanisms,
        check_bounds=args.check_bounds,
    )
    csv_text = results_to_csv(run_experiment(config))
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: one line, exit 1.

    Every choice, the subcommand's included, is checked here, so its
    message quotes the value short whatever argparse's version. Long flags
    are spelled in full: an abbreviation such as ``--beh`` is an
    unrecognized argument, not ``--behaviors``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_REPR.repr(value)} (choose from {choices})"
            )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every ``main`` call shares, built on first use:
    ``parse_args`` leaves it unchanged and gives each call a fresh
    namespace, and no default is mutable."""
    parser = _Parser(
        prog="catdom",
        description="Sequential allocation on categorized domains: execution, "
        "worst-case analysis, equilibria, axioms, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a picking order against a profile")
    run.add_argument("--order", required=True)
    run.add_argument("--profile", required=True)
    run.add_argument("--behaviors", required=True, help="comma list: opt|pess|script:FILE")
    run.add_argument("--trace", action="store_true")
    run.set_defaults(handler=_cmd_run)

    ana = sub.add_parser("analyze-order", help="per-agent order analytics")
    ana.add_argument("--order", required=True)
    ana.set_defaults(handler=_cmd_analyze_order)

    bnd = sub.add_parser("bounds", help="worst-case rank bounds for an order")
    bnd.add_argument("--order", required=True)
    bnd.add_argument("--behaviors", required=True)
    bnd.set_defaults(handler=_cmd_bounds)

    srch = sub.add_parser("search", help="optimize worst-case bounds over orders")
    srch.add_argument("--n", type=int, required=True)
    srch.add_argument("--p", type=int, required=True)
    srch.add_argument("--behaviors", required=True)
    srch.add_argument("--objective", choices=("utilitarian", "egalitarian"), default="egalitarian")
    srch.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    srch.add_argument("--seed", type=int, default=0)
    srch.add_argument("--budget", type=int, default=200_000)
    srch.set_defaults(handler=_cmd_search)

    wc = sub.add_parser("worst-case", help="construct a tight adversarial profile")
    wc.add_argument("--order", required=True)
    wc.add_argument("--behaviors", required=True)
    wc.add_argument("--out", help="also write the profile JSON to this path")
    wc.set_defaults(handler=_cmd_worst_case)

    sp = sub.add_parser("spne", help="subgame-perfect equilibrium outcome")
    sp.add_argument("--order", required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--states", action="store_true", help="report reachable state count")
    sp.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    sp.set_defaults(handler=_cmd_spne)

    ax = sub.add_parser("check-axioms", help="audit a direct mechanism")
    ax.add_argument("--mechanism", choices=sorted(_MECHANISMS), required=True)
    ax.add_argument("--n", type=int, required=True)
    ax.add_argument("--p", type=int, required=True)
    ax.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    ax.add_argument("--count", type=int, default=1000, help="draws in sampled mode")
    ax.add_argument("--seed", type=int, default=0)
    ax.add_argument("--budget", type=int, default=10_000_000)
    ax.set_defaults(handler=_cmd_check_axioms)

    ex = sub.add_parser("experiment", help="Mallows expected-rank study, CSV output")
    ex.add_argument("--p", type=int, default=2)
    ex.add_argument("--n", required=True, help="range like 2..11 or comma list")
    ex.add_argument("--phi", required=True, help="comma list of dispersions in (0,1]")
    ex.add_argument("--samples", type=int, default=2000)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--out", help="CSV path (stdout when absent)")
    ex.add_argument("--mechanisms", help="comma list like sd:opt,balanced:pess")
    ex.add_argument("--check-bounds", action="store_true")
    ex.set_defaults(handler=_cmd_experiment)

    return parser


def _failure_line(line: str) -> str:
    """``line`` as one short stderr line: each character that ``repr``
    escapes escaped as it does, each run of over 100 non-blank characters
    cut to its first 13, ``...`` and its last 14 (the form ``_REPR`` gives a
    quoted string), and the whole cut to 300 characters. Argparse words its
    messages from the raw input and paths are printed as given, so the bound
    falls here, on every line ``main`` prints."""
    line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in line)
    line = re.sub(r"\S{101,}", lambda run: f"{run[0][:13]}...{run[0][-14:]}", line)
    return line if len(line) <= 300 else line[:297] + "..."


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValidationError, ExecutionError, ConstructionError) as exc:
        print(_failure_line(f"error: {exc}"), file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(_failure_line(f"refused: {exc}"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
