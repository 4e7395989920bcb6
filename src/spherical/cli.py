"""Command-line front end.

Verbs: solve, decide, verify, reduce, oracle, saturation, classify.
Input is JSON on stdin or from a positional path; output is a single JSON
object on stdout, newline-terminated.  Exit status 0 means the computation
completed (whatever the verdict), 2 an input error (InputError, or a payload
that cannot be read as JSON), 3 a capacity error (TooLargeError: a group
past the oracle's cap, or any other work past its budget).  Any other
exception is a bug, and ends in a traceback with status 1.  No solver draws
random numbers, so output depends on the input alone: --seed is parsed, for
old callers, and ignored.
"""

import json
import re
import sys
from types import SimpleNamespace

from . import core, dihedral, mat2, perm, semidirect
from .core import (GroupSpec, SphericalEquation, Solution, InputError,
                   TooLargeError)
from .families import FAMILIES, _field, outside

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3


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


def _route(eq, force_oracle):
    """(method name, decide function, solve function) for the equation."""
    if force_oracle:
        return "cayley-dp", core.decide_cayley, core.solve_brute
    return FAMILIES[eq.group.family].route(eq)


def _cmd_decide(args, payload):
    eq = decode_equation(payload)
    method, decide, _ = _route(eq, args.force_oracle)
    return {"solvable": decide(eq), "method": method}


def _cmd_solve(args, payload):
    """solve, or with the oracle verb the oracle's solver.  Every solver
    checks its witness before it returns it, so it is printed as verified."""
    eq = decode_equation(payload)
    oracle = args.verb == "oracle"
    method, _, solve = _route(eq, args.force_oracle or oracle)
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
    else:  # xcover; the parser admits no other reduction
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


# The argv grammar, by argparse's rules for these arguments (argparse itself
# costs more per call than most closed-form kernels): a verb, an optional
# input path before or after the flags, long flags as `--flag value` or
# `--flag=value` or a unique prefix of either, and `--` to end the options.
# Two departures: every argument after the first `--` is taken as written,
# a later `--` too, and so is a flag's value `--seed=--` (argparse dropped
# the `--` from both, leaving no input path or a seed of [])
_USAGE = """\
usage: spherical [-h] [--seed SEED] [--from {3part,partition,xcover}]
                 [--force-oracle] [--out OUT]
                 {classify,decide,oracle,reduce,saturation,solve,verify}
                 [input]
"""
_HELP = _USAGE + """
Decide and solve spherical equations over finite groups.

positional arguments:
  {classify,decide,oracle,reduce,saturation,solve,verify}
  input                 path to a JSON input (default: stdin)

options:
  -h, --help            show this help message and exit
  --seed SEED
  --from {3part,partition,xcover}
                        reduction to generate (verb: reduce)
  --force-oracle        route through the brute-force oracle
  --out OUT             write output here instead of stdout
"""
# option string -> field; prefixes match in this order
_OPTIONS = {"-h": "help", "--help": "help", "--seed": "seed",
            "--from": "reduction", "--force-oracle": "force_oracle",
            "--out": "out"}
_REDUCTIONS = ("3part", "partition", "xcover")


def _choices(values):
    return ", ".join(map(repr, values))


class Parser:
    """The CLI's command-line parser; it keeps no state between calls."""

    def error(self, message):
        sys.stderr.write(f"{_USAGE}spherical: error: {message}\n")
        raise SystemExit(EXIT_INPUT)

    def _option(self, arg):
        """(option string, explicit value or None) for an argument that
        reads as an option (the string is arg itself if no option has that
        name), None for a positional."""
        if arg[:1] != "-" or arg == "-":
            return None
        if arg in _OPTIONS:
            return arg, None
        name, eq, value = arg.partition("=")
        if eq and name in _OPTIONS:
            return name, value
        if arg[1] == "-":
            matches = [o for o in _OPTIONS if o.startswith(name)]
            if len(matches) > 1:
                self.error(f"ambiguous option: {arg} could match "
                           f"{', '.join(matches)}")
            if matches:
                return matches[0], value if eq else None
        elif arg[1] == "h":
            return "-h", arg[2:]
        if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:
            return None  # a negative number, or a path with a space
        return arg, None

    def parse_args(self, argv=None):
        args = sys.argv[1:] if argv is None else list(argv)
        cut = args.index("--") if "--" in args else len(args)
        # every option is read before any is acted on, so an ambiguous
        # prefix is reported first, wherever it stands
        opts = [self._option(arg) for arg in args[:cut]]
        opts.append(None)
        verb = path = reduction = out = None
        seed, force_oracle = 0, False
        extras = []
        # The first run of positionals between options holds the verb and
        # the input path; later ones are left over, and a single left-over
        # path becomes the input.  state 0: no verb yet; 1: verb taken;
        # 2: input taken just now; 3: that run has ended
        state = 0
        i, n = 0, len(args)
        while i < n:
            arg, opt = args[i], opts[min(i, cut)]
            i += 1
            if opt is None:
                if i - 1 == cut:  # the `--` that ends the options; it is
                    if state == 3:  # left over only past verb and input
                        extras.append(arg)
                elif state == 0:
                    if arg not in _VERBS:
                        self.error(f"argument verb: invalid choice: {arg!r} "
                                   f"(choose from {_choices(sorted(_VERBS))})")
                    verb, state = arg, 1
                elif state == 1:
                    path, state = arg, 2
                else:
                    extras.append(arg)
                    state = 3
                continue
            if state:
                state = 3
            name, value = opt
            field = _OPTIONS.get(name)
            if field is None:
                extras.append(arg)
            elif field == "help":
                if value is not None:
                    # -hh is -h -h; --help takes no value at all
                    rest = value.lstrip("h") if name == "-h" else value
                    if rest or not value:
                        self.error("argument -h/--help: ignored explicit "
                                   f"argument {rest!r}")
                sys.stdout.write(_HELP)
                raise SystemExit(EXIT_OK)
            elif field == "force_oracle":
                if value is not None:
                    self.error("argument --force-oracle: ignored explicit "
                               f"argument {value!r}")
                force_oracle = True
            else:
                if value is None:
                    if i >= cut or opts[i] is not None:
                        self.error(f"argument {name}: expected one argument")
                    value = args[i]
                    i += 1
                if field == "seed":
                    try:
                        seed = int(value)
                    except ValueError:
                        self.error(f"argument --seed: invalid int value: "
                                   f"{value!r}")
                elif field == "out":
                    out = value
                elif value in _REDUCTIONS:
                    reduction = value
                else:
                    self.error(f"argument --from: invalid choice: {value!r} "
                               f"(choose from {_choices(_REDUCTIONS)})")
        if state == 0:
            self.error("the following arguments are required: verb")
        if extras:
            if path is None and len(extras) == 1 \
                    and not extras[0].startswith("-"):
                path = extras[0]
            else:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(verb=verb, input=path, seed=seed,
                               reduction=reduction, force_oracle=force_oracle,
                               out=out)


_PARSER = Parser()


def build_parser():
    """The CLI's parser, made once at import."""
    return _PARSER


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
