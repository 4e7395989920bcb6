"""Command-line front end.

Verbs: solve, decide, verify, reduce, oracle, saturation, classify.
Input is JSON on stdin or from a positional path; output is a single JSON
object on stdout, newline-terminated.  Exit status 0 means the computation
completed (whatever the verdict), 2 is an input error, 3 a capacity error,
4 internal retry exhaustion.
"""

import argparse
import functools
import json
import sys

from . import core, dihedral, highdim, mat2, numtheory, perm, semidirect
from .core import (GroupSpec, SphericalEquation, Solution, TooLargeError,
                   MalformedElementError, BadTableError, LengthMismatchError)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_RETRY = 4

_INPUT_ERRORS = (
    MalformedElementError, BadTableError, LengthMismatchError,
    perm.MalformedInstanceError, perm.InvalidCertificateError,
    perm.DegreeMismatchError, perm.NotConjugateError,
    mat2.ModulusMismatchError, mat2.NotConjugateError,
    mat2.SingularMatrixError, mat2.ScalarInputError,
    mat2.NotTriangularError, semidirect.UnsupportedShapeError,
    numtheory.InvalidModulusError, numtheory.PreconditionError,
    ValueError, KeyError, TypeError, json.JSONDecodeError,
)


def decode_group(obj) -> GroupSpec:
    if not isinstance(obj, dict):
        raise MalformedElementError("a group must be a JSON object")
    ints = {key: obj.get(key) for key in ("n", "p", "m", "k")}
    for key, val in ints.items():
        # bool is an int subclass, and a float p reaches pow() as a modulus
        if val is not None and type(val) is not int:
            raise MalformedElementError(
                f"group field {key!r} must be an integer, not {val!r}")
    return GroupSpec(obj["family"], table=obj.get("table"), **ints)


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
    f = spec.family
    if f == "cayley":
        return core.CayleyElement(obj["idx"], spec._cayley_table())
    if f in ("symmetric", "alternating"):
        return perm.Permutation(obj["images"])
    if f == "dihedral":
        return dihedral.DihedralElement(obj["k"], obj["delta"], spec.n)
    if f == "et2n":
        return dihedral.Et2Element(obj["e1"], obj["b"], obj["e2"], spec.n)
    if f in ("gl2p", "sl2p", "tl2p"):
        (a, b), (c, d) = obj["rows"]
        return mat2.Mat2(spec.p, a, b, c, d)
    if f == "heisenberg":
        return highdim.HeisenbergElement(obj["alpha1"], obj["a2"],
                                         obj["alpha3"], spec.n, spec.p)
    if f == "ut4p":
        return highdim.UT4Element(spec.p, obj["entries"])
    if f == "semidirect":
        if len(obj["vec"]) != spec.k:
            raise MalformedElementError(
                f"vec has length {len(obj['vec'])}, the group has k = {spec.k}")
        return semidirect.SemidirectElement(obj["vec"], obj["sign"], spec.m)
    raise MalformedElementError(f)


def encode_element(spec: GroupSpec, el):
    f = spec.family
    if f == "cayley":
        return {"idx": el.idx}
    if f in ("symmetric", "alternating"):
        return {"n": el.n, "images": list(el.images)}
    if f == "dihedral":
        return {"k": el.k, "delta": el.delta}
    if f == "et2n":
        return {"e1": el.e1, "b": el.b, "e2": el.e2}
    if f in ("gl2p", "sl2p", "tl2p"):
        return {"p": el.p, "rows": [[el.a, el.b], [el.c, el.d]]}
    if f == "heisenberg":
        return {"alpha1": list(el.a1), "a2": el.a2, "alpha3": list(el.a3)}
    if f == "ut4p":
        return {"entries": list(el.e)}
    if f == "semidirect":
        return {"vec": list(el.vec), "sign": el.sign}
    raise MalformedElementError(f)


def decode_equation(obj) -> SphericalEquation:
    spec = decode_group(obj["group"])
    constants = [decode_element(spec, c) for c in obj["constants"]]
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


def _gl2_method(eq):
    k = len(core.normalize(eq).constants)
    if k <= 1:
        return "gl2-scalar"
    if k == 2:
        return "gl2-k2-conjugacy"
    if k == 3:
        return "gl2-k3-trace"
    return "gl2-k4-fold"


def _route(eq, force_oracle, rng):
    """(method name, decide function, solve function) for the equation."""
    f = eq.group.family
    # sl2p has no closed form here: the GL(2,p) one ignores how SL(2,p)
    # splits classes, so it goes to the oracle, which raises a capacity
    # error above CAP rather than give a GL(2,p) answer
    if force_oracle or f in ("cayley", "symmetric", "alternating", "et2n",
                             "sl2p"):
        return "cayley-dp", core.decide_cayley, core.solve_brute
    if f == "dihedral":
        return "dihedral-criterion", dihedral.decide_dn, dihedral.solve_dn
    if f == "gl2p":
        return (_gl2_method(eq), mat2.decide_gl2,
                lambda e: mat2.solve_gl2(e, rng))
    if f == "tl2p":
        return "tl2-closed-form", mat2.decide_tl2, mat2.solve_tl2
    if f == "heisenberg":
        return ("heisenberg-closed-form", highdim.decide_heisenberg,
                highdim.solve_heisenberg)
    if f == "ut4p":
        return "ut4-closed-form", highdim.decide_ut4, highdim.solve_ut4
    if f == "semidirect":
        if all(c.sign == 1 for c in eq.constants) and (
                eq.rhs is None or eq.rhs.sign == 1):
            return ("semidirect-signvector", semidirect.decide_signvector,
                    None)
        return "cayley-dp", core.decide_cayley, core.solve_brute
    raise MalformedElementError(f)


def _cmd_decide(args, payload):
    eq = decode_equation(payload)
    rng = numtheory.Rng(args.seed)
    method, decide, _ = _route(eq, args.force_oracle, rng)
    return {"solvable": decide(eq), "method": method}


def _cmd_solve(args, payload):
    eq = decode_equation(payload)
    rng = numtheory.Rng(args.seed)
    method, decide, solve = _route(eq, args.force_oracle, rng)
    if solve is None:  # decision-only procedure: fall back for a witness
        if decide(eq):
            method, solve = "brute", core.solve_brute
        else:
            return {"solvable": False, "method": method}
    sol = solve(eq)
    if sol is None:
        return {"solvable": False, "method": method}
    if not core.verify(eq, sol):
        raise RuntimeError(f"{method} witness fails verification")
    return {"solvable": True, "method": method, "verified": True,
            "conjugators": [encode_element(eq.group, z)
                            for z in sol.conjugators]}


def _cmd_verify(args, payload):
    eq = decode_equation(payload)
    sol = Solution([decode_element(eq.group, z)
                    for z in payload["conjugators"]])
    return {"verified": core.verify(eq, sol)}


def _cmd_reduce(args, payload):
    if args.reduction == "3part":
        if payload.get("alternating"):
            eq = perm.reduce_3partition_an(payload["a"])
        else:
            eq = perm.reduce_3partition(payload["a"])
    elif args.reduction == "partition":
        eq = dihedral.reduce_partition(payload["a"])
    elif args.reduction == "xcover":
        eq = semidirect.reduce_xcover(payload["k"], payload["subsets"],
                                      payload["m"])
    else:
        raise ValueError(f"unknown reduction {args.reduction!r}")
    return encode_equation(eq)


def _cmd_oracle(args, payload):
    eq = decode_equation(payload)
    sol = core.solve_brute(eq)
    if sol is None:
        return {"solvable": False, "method": "brute"}
    return {"solvable": True, "method": "brute", "verified": True,
            "conjugators": [encode_element(eq.group, z)
                            for z in sol.conjugators]}


def _cmd_saturation(args, payload):
    spec = decode_group(payload)
    length = core.saturation_length(spec)
    return {"saturation_length": length if length is not None else "none"}


def _cmd_classify(args, payload):
    (a, b), (c, d) = payload["rows"]
    mat = mat2.Mat2(payload["p"], a, b, c, d)
    return {"type": mat2.classify(mat), "trace": mat.trace(),
            "det": mat.det(), "discriminant": mat2.discriminant(mat)}


_VERBS = {
    "decide": _cmd_decide,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "oracle": _cmd_oracle,
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
        if args.verb == "reduce" and args.reduction is None:
            print("reduce requires --from", file=sys.stderr)
            return EXIT_INPUT
        report = _VERBS[args.verb](args, payload)
    except TooLargeError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except numtheory.RetryExhausted as exc:
        print(f"retry exhausted: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(report, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
