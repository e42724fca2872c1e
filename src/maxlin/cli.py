"""Command-line front end: load a DAG and a parameter table, emit lattices,
distributions, coordinate transforms, generators, and verification reports.

Identical configuration produces byte-identical output; every randomized
suite is driven by --seed and --trials alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable

from . import __version__
from .algebra import (
    check_pair_scan,
    evaluate_at_distribution,
    generator_arrays,
    generator_json,
    hilbert_check,
    parse_polynomial,
    verify_vanishing,
)
from .dag import Dag, parse_dag, transitive_closure
from .errors import MaxlinError, ParseError
from .model import (
    ParamTable,
    full_distribution,
    cbn_correspondence_check,
    integer_view,
    oracle_equivalence_check,
)
from .poset import DIGITS, StateLattice, ideal_lattice, order_preserving_maps, state_digits
from .report import Report
from .transforms import eq5_check, roundtrip_check, zeta_transform


def _load_dag(args: argparse.Namespace) -> Dag:
    dag = parse_dag(Path(args.dag).read_text(encoding="utf-8"))
    if args.k is not None:
        dag = dataclasses.replace(dag, k=args.k)
    return dag


def _load_theta(args: argparse.Namespace) -> ParamTable:
    if args.theta is None:
        raise MaxlinError(f"the {args.command} command needs --theta")
    try:
        data = json.loads(Path(args.theta).read_text(encoding="utf-8"))
    except RecursionError:  # nested deeper than the decoder's recursion allows
        raise ParseError(f"parameter file {args.theta} nests too deeply") from None
    return ParamTable.from_json_dict(data)


def _state_lattice(dag: Dag) -> StateLattice:
    return order_preserving_maps(transitive_closure(dag), dag.k)


def _emit(fmt: str, data, lines: Iterable[str]) -> None:
    """Print `data` as indented JSON, or `lines` one per line for the text
    format; `lines` is usually a lazy generator over `data`."""
    print(json.dumps(data, indent=2) if fmt == "json" else "\n".join(lines))


def _emit_states(lattice: StateLattice, fmt: str) -> None:
    """Print the states' digits as `_emit` lays them out: one join, one translate by
    `DIGITS` (no separator byte is below 10), the brackets printed apart, not copied in.
    No entry exceeds 9 when k <= 10; otherwise the top state's entries do."""
    if lattice.k > 10:
        list(map(state_digits, lattice.vectors))  # raises at the first state with such an entry
    sep, head, tail = (b"\n", "", "") if fmt == "text" else (b'",\n  "', '[\n  "', '"\n]')
    raw = sep.join(map(bytes, lattice.vectors))
    raw = raw.translate(DIGITS)  # frees the join
    print(head, raw.decode(), tail, sep="")


def _emit_value_map(lattice, values, denominator: int, prefix: str, fmt: str) -> None:
    """Print `values`, numerators over `denominator` aligned with `lattice.states`."""
    pairs = zip(lattice.states, values)
    data = {state_digits(g): str(Fraction(v, denominator)) for g, v in pairs}
    _emit(fmt, data, (f"{prefix}{g} = {v}" for g, v in data.items()))


# Format -> the template over a generator's four digit strings, from
# `generator_json`, split at its fields; the separator between generators;
# and how often the template reads the four. The text is the polynomial, and
# the JSON is one item of a list as json.dumps(..., indent=2) lays it out,
# which takes the four as fields and in the polynomial (no escaping).
_GENERATOR_JSON = "  " + json.dumps(generator_json(*["%s"] * 4), indent=2).replace("\n", "\n  ")
_GENERATOR_LAYOUT = {
    "text": (generator_json(*["%s"] * 4)["polynomial"].split("%s"), "\n", 1),
    "json": (_GENERATOR_JSON.split("%s"), ",\n", 2),
}


def _emit_generators(arrays, fmt: str) -> None:
    """The generators, each state rendered by `state_digits` once, as one join
    of the template pieces and the digit columns; the JSON brackets are
    printed apart, not copied in."""
    digits = [state_digits(g) for g in arrays.states]
    (first, *pieces), sep, reads = _GENERATOR_LAYOUT[fmt]
    # every generator after the first opens with the separator
    fields = [chain((first,), repeat(sep + first))]
    for column, piece in zip(arrays.columns() * reads, pieces):
        fields += map(digits.__getitem__, column), repeat(piece)
    body = "".join(chain.from_iterable(zip(*fields)))
    if fmt == "text":
        print(body)
    elif body:
        print("[\n", body, "\n]", sep="")
    else:
        print("[]")


def _vanishing_suite(dag: Dag, args: argparse.Namespace) -> Report:
    lattice = _state_lattice(dag)
    check_pair_scan(lattice, "the vanishing check needs")
    return verify_vanishing(generator_arrays(lattice), lattice)


# Suite name -> runner. The lambdas look the checks up when they run, so a
# check replaced in this module's namespace is the one that runs.
_SUITES = {
    "vanishing": _vanishing_suite,
    "theorem31": lambda dag, a: cbn_correspondence_check(dag, trials=a.trials, seed=a.seed),
    "oracle": lambda dag, a: oracle_equivalence_check(dag, trials=a.trials, seed=a.seed),
    "moebius": lambda dag, a: roundtrip_check(
        _state_lattice(dag), trials=a.trials, seed=a.seed
    ),
    "eq5": lambda dag, a: eq5_check(dag, trials=a.trials, seed=a.seed),
    "groebner": lambda dag, a: hilbert_check(_state_lattice(dag)),
}
VERIFY_SUITES = tuple(_SUITES)


def run(args: argparse.Namespace) -> int:
    """Execute one command, given the namespace the parser returns; prints
    the result and returns the exit status."""
    dag = _load_dag(args)
    if args.command == "lattice":
        _emit_states(_state_lattice(dag), args.format)
        return 0
    if args.command == "ideals":
        _emit_states(ideal_lattice(transitive_closure(dag)), args.format)
        return 0
    if args.command in ("distribution", "zeta", "eval"):
        view, denominator = integer_view(_load_theta(args))
        lattice = _state_lattice(dag)
        values = full_distribution(dag, view, lattice)
        if args.command == "zeta":
            values = zeta_transform(values, lattice)
        if args.command != "eval":
            prefix = "p" if args.command == "distribution" else "q"
            _emit_value_map(lattice, values, denominator, prefix, args.format)
            return 0
        p = dict(zip(lattice.states, values))
        q = None  # the zeta numerators by state, formed for the first q-variable
        data = []
        for raw in Path(args.poly).read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            poly = parse_polynomial(line)
            if q is None and any(v.family == "q" for v in poly.variables()):
                q = dict(zip(lattice.states, zeta_transform(values, lattice)))
            value = evaluate_at_distribution(poly, lattice, p, denominator, q)
            data.append({"polynomial": line, "value": str(value)})
        _emit(args.format, data, (f"{d['polynomial']} = {d['value']}" for d in data))
        return 0
    if args.command == "generators":
        if args.of == "ideals":
            lattice = ideal_lattice(transitive_closure(dag))
        else:
            lattice = _state_lattice(dag)
        check_pair_scan(lattice, "the generators need")
        _emit_generators(generator_arrays(lattice), args.format)
        return 0
    if args.command == "verify":
        report = _SUITES[args.suite](dag, args)
        _emit(args.format, report.to_json_dict(), [report.to_text()])
        return 0 if report.passed else 1
    raise MaxlinError(f"unknown command {args.command!r}")


def _trial_count(text: str) -> int:
    """The --trials value: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlin",
        description=(
            "State lattices, exact joint distributions, cumulative-coordinate "
            "transforms, and lattice-binomial verification for max-of-parents "
            "models on DAGs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, theta: bool = False) -> None:
        p.add_argument("--dag", required=True, help="DAG file: 'n k' then 'u v' edge lines")
        p.add_argument("--k", type=int, default=None, help="override the file's state count")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if theta:
            p.add_argument("--theta", help='JSON {"theta": [["1/2","1/2"], ...]}')

    common(sub.add_parser("lattice", help="emit the model's state lattice"))
    common(sub.add_parser("ideals", help="emit the order ideals of the reachability poset"))
    common(sub.add_parser("distribution", help="emit the factored joint"), theta=True)
    common(sub.add_parser("zeta", help="emit the cumulative coordinates"), theta=True)
    gen = sub.add_parser("generators", help="emit the lattice binomial generators")
    common(gen)
    gen.add_argument(
        "--of",
        choices=("states", "ideals"),
        default="states",
        help="which lattice to generate for (default: the state lattice)",
    )
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    common(verify)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=_trial_count, default=100)
    ev = sub.add_parser("eval", help="evaluate polynomials in p-variables at the joint")
    common(ev, theta=True)
    ev.add_argument("--poly", required=True, help="file with one polynomial per line")
    return parser


# Built once: building the parser costs far more than a parse.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return run(args)
    except (MaxlinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
