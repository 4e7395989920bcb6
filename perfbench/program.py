"""Loading the program under test and driving its CLI in-process.

The program is imported from `src/` of the checkout this file sits in, and
from nowhere else.  `load()` drops every `spherical` module first, so each
call is a fresh import with empty caches, as a new process would see.
"""

import gc
import importlib
import io
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # set-ups per run; setup_s is their median


class ProgramMissing(Exception):
    pass


class Program:
    """The freshly imported modules of one load."""

    def __init__(self):
        mods = {}
        for name in ("cli", "core", "dihedral", "highdim", "mat2",
                     "numtheory", "perm", "semidirect"):
            mods[name] = sys.modules["spherical." + name]
        self.__dict__.update(mods)


def require():
    if not os.path.isfile(os.path.join(SRC, "spherical", "cli.py")):
        raise ProgramMissing(f"no spherical package under {SRC}")


def load():
    """Import spherical.cli afresh; returns (Program, seconds taken)."""
    require()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "spherical" or m.startswith("spherical.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    importlib.import_module("spherical.cli")
    dt = time.perf_counter() - t0
    pkg = sys.modules["spherical"]
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"spherical was imported from {pkg.__file__}")
    return Program(), dt


def call(prog, argv, text):
    """One `spherical.cli.main(argv)` call with `text` on stdin.

    Returns (exit code, stdout text, seconds).  A traceback is printed and
    reported as exit code 1, as the console script would exit.
    """
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(text)
    sys.stdout = buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = prog.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the program is a failed request
        rc = 1
        traceback.print_exc(file=sys.stderr)
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout = stdin, stdout
    return rc, buf.getvalue(), dt


def execute(prog, req):
    """Run one request untraced.  Returns (ok, outputs, sent, seconds):
    ok is False when a call exited non-zero."""
    rc, out, elapsed = call(prog, req.argv, req.text)
    if rc != 0:
        return False, None, None, elapsed
    outputs = [json.loads(out)]
    sent = None
    if req.then is not None:
        sent = dict(outputs[0])
        if req.cert is not None:
            t0 = time.perf_counter()
            sol = prog.perm.certificate_to_solution(
                req.cert[0], req.cert[1], alternating=req.cert[2])
            elapsed += time.perf_counter() - t0
            sent["conjugators"] = [{"images": list(z.images)}
                                   for z in sol.conjugators]
        elif req.conjugators is not None:
            sent["conjugators"] = req.conjugators
        rc, out, dt = call(prog, req.then, json.dumps(sent))
        elapsed += dt
        if rc != 0:
            return False, None, None, elapsed
        outputs.append(json.loads(out))
    return True, outputs, sent, elapsed


def prepare(prog, workload):
    """The one-time structures the workload's groups need, built through
    public calls as the first requests would build them: the Cayley table
    validation (timed alone) and the conjugacy class tables.  Returns the
    seconds spent on each, and the group sizes."""
    cli, core = prog.cli, prog.core
    out = {"cayley_s": 0.0, "classes_s": 0.0, "sizes": {}}
    for g in getattr(workload, "groups", ()):
        spec = cli.decode_group(g.group.spec())
        if spec.family == "cayley":
            t0 = time.perf_counter()
            cli.decode_element(spec, {"idx": 0})
            out["cayley_s"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        tab = core.conjugacy_classes(spec)
        out["classes_s"] += time.perf_counter() - t0
        out["sizes"][g.name] = (len(tab.elems), len(tab.classes))
    return out


def set_up(workload):
    """Load and prepare the program SETUPS times; every load is a fresh
    import with empty caches.  Returns the last Program and the per-set-up
    timings."""
    records = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        prog, import_s = load()
        rec = prepare(prog, workload)
        rec["setup_s"] = time.perf_counter() - t0
        rec["import_s"] = import_s
        records.append(rec)
    return prog, records
