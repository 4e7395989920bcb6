"""Command-line front end.

Verbs: solve, decide, verify, reduce, oracle, saturation, classify.
Input is JSON on stdin or from a positional path; output is a single JSON
object on stdout, newline-terminated.  Exit status 0 means the computation
completed (whatever the verdict), 2 an input error (InputError, or a payload
that cannot be read as JSON), 3 a capacity error (TooLargeError), 4 internal
retry exhaustion (RetryExhausted).  Any other exception is a bug, and ends
in a traceback with status 1.
"""

import argparse
import functools
import json
import sys

from . import core, dihedral, mat2, numtheory, perm, semidirect
from .core import (GroupSpec, SphericalEquation, Solution, InputError,
                   TooLargeError)
from .families import FAMILIES, _field, outside

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_RETRY = 4


def decode_group(obj) -> GroupSpec:
    return GroupSpec(_field(obj, "family"), n=obj.get("n"), p=obj.get("p"),
                     m=obj.get("m"), k=obj.get("k"), table=obj.get("table"))


def encode_group(spec: GroupSpec):
    out = {"family": spec.family}
    for key in ("n", "p", "m", "k"):
        val = getattr(spec, key)
        if val is not None:
            out[key] = val
    if spec.table is not None:
        out["table"] = [list(row) for row in spec.table]
    return out


def decode_element(spec: GroupSpec, obj):
    """The element obj names, which must lie in spec's group: every
    constant, rhs and conjugator enters through here."""
    family = FAMILIES[spec.family]
    el = family.decode(spec, obj)
    if not family.contains(spec, el):
        raise outside(spec, el)
    return el


def encode_element(spec: GroupSpec, el):
    return FAMILIES[spec.family].encode(el)


def _elements(spec, obj, key):
    """The elements listed in field key of obj."""
    objs = _field(obj, key)
    if type(objs) is not list:
        raise InputError(f"field {key!r} must be a list, not {objs!r}")
    return [decode_element(spec, x) for x in objs]


def decode_equation(obj) -> SphericalEquation:
    spec = decode_group(_field(obj, "group"))
    constants = _elements(spec, obj, "constants")
    rhs = obj.get("rhs")
    if rhs is not None:
        rhs = decode_element(spec, rhs)
    return SphericalEquation(spec, constants, rhs)


def encode_equation(eq: SphericalEquation):
    out = {"group": encode_group(eq.group),
           "constants": [encode_element(eq.group, c) for c in eq.constants]}
    if eq.rhs is not None:
        out["rhs"] = encode_element(eq.group, eq.rhs)
    return out


def _route(eq, force_oracle, rng):
    """(method name, decide function, solve function) for the equation."""
    if force_oracle:
        return "cayley-dp", core.decide_cayley, core.solve_brute
    return FAMILIES[eq.group.family].route(eq, rng)


def _cmd_decide(args, payload):
    eq = decode_equation(payload)
    rng = numtheory.Rng(args.seed)
    method, decide, _ = _route(eq, args.force_oracle, rng)
    return {"solvable": decide(eq), "method": method}


def _cmd_solve(args, payload):
    """solve, or with the oracle verb the oracle's solver.  Every solver
    checks its witness before it returns it, so it is printed as verified."""
    eq = decode_equation(payload)
    oracle = args.verb == "oracle"
    method, _, solve = _route(eq, args.force_oracle or oracle,
                              numtheory.Rng(args.seed))
    sol = solve(eq)
    report = {"solvable": sol is not None,
              "method": "brute" if oracle else method}
    if sol is not None:
        report.update(verified=True, conjugators=[
            encode_element(eq.group, z) for z in sol.conjugators])
    return report


def _cmd_verify(args, payload):
    eq = decode_equation(payload)
    sol = Solution(_elements(eq.group, payload, "conjugators"))
    return {"verified": core.verify(eq, sol)}


def _cmd_reduce(args, payload):
    if args.reduction == "3part":
        a = _field(payload, "a")
        if payload.get("alternating"):
            eq = perm.reduce_3partition_an(a)
        else:
            eq = perm.reduce_3partition(a)
    elif args.reduction == "partition":
        eq = dihedral.reduce_partition(_field(payload, "a"))
    else:  # xcover; argparse admits no other reduction
        eq = semidirect.reduce_xcover(_field(payload, "k"),
                                      _field(payload, "subsets"),
                                      _field(payload, "m"))
    return encode_equation(eq)


def _cmd_saturation(args, payload):
    spec = decode_group(payload)
    length = core.saturation_length(spec)
    return {"saturation_length": length if length is not None else "none"}


def _cmd_classify(args, payload):
    spec = decode_group({"family": "gl2p", "p": _field(payload, "p")})
    mat = decode_element(spec, payload)
    return {"type": mat2.classify(mat), "trace": mat.trace(),
            "det": mat.det(), "discriminant": mat2.discriminant(mat)}


_VERBS = {
    "decide": _cmd_decide,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "oracle": _cmd_solve,
    "saturation": _cmd_saturation,
    "classify": _cmd_classify,
}


@functools.cache
def build_parser():
    """The CLI's parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="spherical",
        description="Decide and solve spherical equations over finite groups.")
    parser.add_argument("verb", choices=sorted(_VERBS))
    parser.add_argument("input", nargs="?",
                        help="path to a JSON input (default: stdin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--from", dest="reduction",
                        choices=("3part", "partition", "xcover"),
                        help="reduction to generate (verb: reduce)")
    parser.add_argument("--force-oracle", action="store_true",
                        help="route through the brute-force oracle")
    parser.add_argument("--out", help="write output here instead of stdout")
    return parser


def _parse_args(argv):
    """Parse argv; the input path may come before or after the flags."""
    parser = build_parser()
    # argparse fills verb and the optional input from the first run of
    # positionals, so a path after a flag is left over; parse_intermixed_args
    # would take it, at several times the cost per call
    args, rest = parser.parse_known_args(argv)
    if args.input is None and len(rest) == 1 and not rest[0].startswith("-"):
        args.input = rest[0]
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.load(sys.stdin)
    # a missing file, bytes that are not UTF-8 JSON (JSONDecodeError and
    # UnicodeDecodeError are ValueErrors, and so is an integer literal over
    # the interpreter's digit limit), or arrays nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.verb == "reduce" and args.reduction is None:
        print("input error: reduce requires --from", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = _VERBS[args.verb](args, payload)
    except TooLargeError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except numtheory.RetryExhausted as exc:
        print(f"retry exhausted: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(report, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
