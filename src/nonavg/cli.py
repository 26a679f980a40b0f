"""Batch command-line front end.

Subcommands: generate (with resumable caches), discover, verify, bounds.
Exit codes: 0 success, 1 usage or malformed input, 2 budget exhausted
(partial results are flushed first).  The environment variable
NONAVG_NODE_BUDGET overrides the default solver node budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# The discovery, verification and bounds modules load inside their runners,
# so a generate call imports none of them.
from . import greedy
from .errors import BudgetExhausted, InvalidTuple
from .solver import AvoidanceRule, node_cap
from .tuples import CoefficientTuple, is_valid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
# Python converts ints of at most this many digits to and from text by default.
MAX_N_DIGITS = 4300


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; its ``subcommands`` maps
    each subcommand's name to that subcommand's own parser."""
    parser = argparse.ArgumentParser(prog="nonavg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    gen = sub.add_parser("generate", help="greedy sequence generation")
    gen.add_argument("--tuple", required=True, dest="tuple_text")
    gen.add_argument("--rule", default="distinct", choices=[r.value for r in AvoidanceRule])
    gen.add_argument("--max-terms", type=int, default=None)
    gen.add_argument("--max-value", type=int, default=None)
    gen.add_argument("--format", default="plain", choices=["json", "csv", "plain"])
    gen.add_argument("--header", action="store_true", help="emit a header row in csv format")
    gen.add_argument("--cache", default=None, help="resumable cache file path")
    gen.add_argument("--node-budget", type=int, default=None)

    disc = sub.add_parser("discover", help="closed-form discovery")
    disc.add_argument("--tuple", required=True, dest="tuple_text")
    disc.add_argument("--max-residues", type=int, default=64)
    disc.add_argument("--max-frontier", type=int, default=80000)
    disc.add_argument("--node-budget", type=int, default=None)

    ver = sub.add_parser("verify", help="structure checks")
    ver.add_argument("target", choices=["table1", "table2", "props"])
    ver.add_argument("--m", type=int, default=None)
    ver.add_argument("--rows", default=None, help="semicolon-separated coefficient lists")
    ver.add_argument("--tuple", dest="tuple_text", default=None)
    ver.add_argument("--n", type=str, default="65536")
    ver.add_argument("--max-frontier", type=int, default=80000)
    ver.add_argument("--node-budget", type=int, default=None)

    bnd = sub.add_parser("bounds", help="counting and growth bounds reports")
    bnd.add_argument("--tuple", dest="tuple_text", default=None)
    bnd.add_argument("--cf", default=None, help='closed form, e.g. "c=12 base=4 R=0,1,2,3,4"')
    bnd.add_argument("--n", type=str, default=None)
    bnd.add_argument("--section4", action="store_true",
                     help="include the dual-reading worked example comparison")
    return parser


def _node_budget(args) -> int | None:
    """--node-budget, else NONAVG_NODE_BUDGET, else None: ``solver.node_cap``
    reads the budget."""
    if args.node_budget is not None:
        return args.node_budget
    env = os.environ.get("NONAVG_NODE_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidTuple(f"bad NONAVG_NODE_BUDGET value {env!r}")
    return None


def _parse_n(text: str) -> int:
    """An exact integer: plain digits, or a form like 1e10 or 2.5e3 whose
    value is an integer of at most MAX_N_DIGITS digits."""
    try:
        return int(text)
    except ValueError:
        pass
    from decimal import Decimal, InvalidOperation

    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"n must be an integer, got {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ValueError(f"n must be an integer, got {text!r}")
    if value.adjusted() >= MAX_N_DIGITS:
        raise ValueError(f"n must have at most {MAX_N_DIGITS} digits, got {text!r}")
    return int(value)


def _store_and_emit(seq, cached, args, out):
    """Write seq to the cache, if any, and print it, from one decimal
    rendering of its terms: plain output is those lines, csv and json join
    them as ``json.dumps`` would."""
    seq = greedy.rendered(seq)
    # A cache never shrinks: store seq only past the frontier it already reaches.
    if args.cache and (cached is None or seq.frontier > cached.frontier):
        try:
            greedy.write_cache(args.cache, seq)
        except OSError as exc:  # its text names the temporary file, not the cache
            raise ValueError(f"cannot write cache {args.cache}: {exc.strerror}") from None
    lines = seq.lines[1]
    if args.format == "plain":
        out.write(lines)
    elif args.format == "csv":
        if args.header:
            print("term", file=out)
        print(lines[:-1].replace("\n", ","), file=out)
    else:
        head = json.dumps({"tuple": seq.coefficients.text(), "rule": seq.rule.value, "frontier": seq.frontier})
        terms = lines[:-1].replace("\n", ", ")
        print(f'{head[:-1]}, "terms": [{terms}]}}', file=out)


def _run_generate(args, out) -> int:
    coefficients = CoefficientTuple.from_text(args.tuple_text)
    rule = AvoidanceRule.from_text(args.rule)
    if args.max_terms is None and args.max_value is None:
        print("generate: need --max-terms or --max-value", file=sys.stderr)
        return EXIT_USAGE
    if args.max_terms is not None and args.max_terms <= 0:
        return EXIT_OK
    budget = _node_budget(args)

    cached = _read_cache(args.cache, coefficients, rule) if args.cache else None
    try:
        if cached is None:
            seq = greedy.generate(
                coefficients, rule, max_terms=args.max_terms, max_value=args.max_value, node_budget=budget
            )
        else:
            seq = greedy.extend(
                cached, max_terms=args.max_terms, max_value=args.max_value, node_budget=budget
            )
    except BudgetExhausted as exc:
        if exc.partial is not None:
            _store_and_emit(exc.partial, cached, args, out)
        raise
    _store_and_emit(seq, cached, args, out)
    return EXIT_OK


def _read_cache(path, coefficients, rule):
    """The cached sequence for (coefficients, rule), or None, with one stderr
    line when a cache file exists but cannot be used."""
    if not os.path.exists(path):
        return None
    try:
        cached = greedy.read_cache(path)
    except (ValueError, OSError) as exc:
        print(f"generate: ignoring cache {path}: {exc}", file=sys.stderr)
        return None
    if (cached.coefficients, cached.rule) != (coefficients, rule):
        print(
            f"generate: ignoring cache {path}: it holds tuple {cached.coefficients.text()} "
            f"rule {cached.rule.value}",
            file=sys.stderr,
        )
        return None
    return cached


def _run_discover(args, out) -> int:
    from . import theorems

    coefficients = CoefficientTuple.from_text(args.tuple_text)
    if not is_valid(coefficients):
        print(f"discover: {coefficients.text()} is not a valid tuple", file=sys.stderr)
        return EXIT_USAGE
    found = theorems.discover_closed_form(
        coefficients,
        max_residues=args.max_residues,
        max_frontier=args.max_frontier,
        node_budget=_node_budget(args),
    )
    if found is None:
        print(
            json.dumps(
                {
                    "tuple": coefficients.text(),
                    "found": False,
                    "max_residues": args.max_residues,
                    "max_frontier": args.max_frontier,
                }
            ),
            file=out,
        )
        return EXIT_BUDGET
    cf, report = found
    text = report.to_json()
    print(f'{text[:-1]}, "found": true, "closed_form": {json.dumps(cf.text())}}}', file=out)
    return EXIT_OK


def _check_line(out, name, passed) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}", file=out)
    return passed


def _run_verify(args, out) -> int:
    from . import closedform, theorems

    budget = _node_budget(args)
    all_ok = True
    if args.target == "table1":
        ms = [args.m] if args.m is not None else [3, 4, 5, 6, 7, 8, 9]
        for m in ms:
            scale, residues = theorems.uniform_family_parameters(m)
            ident = theorems.check_scale_identity(
                CoefficientTuple.uniform(m), residues, scale
            )
            all_ok &= _check_line(out, f"family scale identity m={m}", ident.passed)
            ok = theorems.verify_family_prefix(m, node_budget=budget)
            all_ok &= _check_line(out, f"family prefix m={m}", ok)
    elif args.target == "table2":
        if args.rows is not None:
            rows = [CoefficientTuple.from_text(r) for r in args.rows.split(";")]
        else:
            rows = [
                CoefficientTuple(coeffs)
                for coeffs in theorems.KNOWN_CLOSED_FORMS
                if theorems.KNOWN_CLOSED_FORMS[coeffs][0] <= 122
            ]
        for coefficients in rows:
            expected = theorems.KNOWN_CLOSED_FORMS.get(coefficients.coeffs)
            found = theorems.discover_closed_form(
                coefficients, max_frontier=args.max_frontier, node_budget=budget
            )
            if expected is None:
                ok = found is not None
                name = f"closed form exists for {coefficients.text()}"
            else:
                ok = found is not None and (found[0].scale, found[0].residues) == expected
                name = f"catalog row {coefficients.text()}"
            all_ok &= _check_line(out, name, ok)
    else:  # props
        if args.tuple_text is None:
            print("verify props: need --tuple", file=sys.stderr)
            return EXIT_USAGE
        coefficients = CoefficientTuple.from_text(args.tuple_text)
        limit = _parse_n(args.n)
        if limit < 0:
            raise ValueError(f"n must be nonnegative, got {args.n!r}")
        # One node per member checked: a limit past the cap would run out
        # of it at member cap, so stop before the loop.
        cap = node_cap(budget)
        if limit > cap:
            raise BudgetExhausted(cap + 1)
        # One pass: each law reads the n-th zero-one member once.
        d = coefficients.weight
        residue_ok = parity_ok = True
        for n, member in enumerate(closedform.zero_one_prefix(coefficients, limit)):
            residue_ok = residue_ok and n.bit_count() % d == member % d
            parity_ok = parity_ok and closedform.thue_morse_bit(n) == member % 2
        all_ok &= _check_line(out, f"popcount residue law n<{limit}", residue_ok)
        if coefficients.coeffs == (1, 1):
            all_ok &= _check_line(out, f"bit-parity sequence law n<{limit}", parity_ok)
    return EXIT_OK if all_ok else EXIT_USAGE


def _run_bounds(args, out) -> int:
    from . import asymptotics, closedform

    if args.section4:
        if args.tuple_text is not None or args.cf is not None:
            print("bounds: --section4 takes no --tuple or --cf", file=sys.stderr)
            return EXIT_USAGE
        n = _parse_n(args.n) if args.n is not None else asymptotics.REFERENCE_EXAMPLE_N
        print(json.dumps(asymptotics.compare_bound_readings(n)), file=out)
        return EXIT_OK
    if args.n is None:
        print("bounds: need --n", file=sys.stderr)
        return EXIT_USAGE
    n = _parse_n(args.n)
    coefficients = CoefficientTuple.from_text(args.tuple_text) if args.tuple_text is not None else None
    if args.cf is not None:
        cf = closedform.ClosedForm.from_text(args.cf, coefficients)
        report = asymptotics.closed_form_count_bounds(cf, n)
    elif coefficients is not None:
        report = asymptotics.zero_one_count_bounds(coefficients, n)
    else:
        print("bounds: need --tuple or --cf", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(report.to_json_dict()), file=out)
    return EXIT_OK


_RUNNERS = {
    "generate": _run_generate,
    "discover": _run_discover,
    "verify": _run_verify,
    "bounds": _run_bounds,
}


def _parse_args(argv):
    """argv parsed in one pass by the subcommand's own parser when argv[0]
    names one.  The top-level parser, which hands a subcommand's arguments to
    that same parser, takes every other call and any call that leaves
    arguments over, so help and usage errors read as before."""
    parser = _build_parser()
    if argv and argv[0] in parser.subcommands:
        args, rest = parser.subcommands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    out = sys.stdout
    try:
        return _RUNNERS[args.command](args, out)
    except BudgetExhausted as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError) as exc:  # InvalidTuple and UnsupportedM among them
        print(f"nonavg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
