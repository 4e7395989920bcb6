"""The traced run: per-layer metrics.

After the untraced pass, the program is loaded afresh (so its caches start
as cold as they did for that pass) and the same requests are replayed.  This
time the benchmark does what `spherical.cli.main` does itself, one public
call at a time, and times each call as a span:

    cli.argparse     build_parser().parse_args
    cli.parse        json.loads and cli.decode_equation (or decode_group)
    core.normalize   core.normalize
    <kernel>         the decide, solve, reduce or saturation function that
                     the CLI routes the request to, e.g. mat2.solve_gl2
    core.verify      core.verify on a solve's witness, or the verify verb
    cli.encode       cli.encode_element / encode_equation and json.dumps

Spans are kept in memory and written to `perfbench/out/` at the end.  Each
per-layer metric is the mean over its spans, in ms per call.  A metric that
the workload's own requests never reach (a kernel of another workload) is
taken from one traced round of the workload that reaches it, so that every
figure is a measurement.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time

import program
import workloads

ORACLE_GROUPS = ("S5", "S6", "A6", "GL2_7", "T120")

SPAN_METRICS = (
    "cli.argparse", "cli.parse", "cli.encode", "core.normalize",
    "core.verify", "core.decide_cayley", "core.solve_brute",
    "core.saturation_length", "mat2.decide_gl2", "mat2.solve_gl2",
    "mat2.decide_tl2", "mat2.solve_tl2", "highdim.decide_heisenberg",
    "highdim.solve_heisenberg", "highdim.decide_ut4", "highdim.solve_ut4",
    "dihedral.decide_dn", "dihedral.solve_dn", "dihedral.reduce_partition",
    "semidirect.reduce_xcover", "semidirect.decide_signvector",
    "perm.reduce_3partition", "perm.certificate_to_solution",
)
# the metric name of a span, where it is not the span name plus _ms
RENAMED = {"core.saturation_length": "core.saturation_ms",
           "perm.certificate_to_solution": "perm.certificate_ms"}
NUMTHEORY = ("sqrt_mod", "solve_bivariate", "solve_weighted_trace")


class Tracer:
    def __init__(self):
        self.spans = []  # (request id, name, start, end)
        self.request = 0
        self.numtheory_calls = 0
        self.calls_in_solve_gl2 = 0
        self.signatures = set()
        self.sign_vectors = 0

    def timed(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.request, name, t0, time.perf_counter()))

    def count_numtheory(self, module):
        """Count calls into the number-theory solvers as `module` binds
        them."""
        for name in NUMTHEORY:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, **kwargs):
                self.numtheory_calls += 1
                return _fn(*args, **kwargs)
            setattr(module, name, counted)


def kernels(prog, eq, force_oracle, rng):
    """((name, decide), (name, solve)) for an equation, routed as the CLI
    routes it."""
    core, f = prog.core, eq.group.family
    cayley = (("core.decide_cayley", core.decide_cayley),
              ("core.solve_brute", core.solve_brute))
    if force_oracle or f in ("cayley", "symmetric", "alternating", "et2n"):
        return cayley
    if f == "dihedral":
        return (("dihedral.decide_dn", prog.dihedral.decide_dn),
                ("dihedral.solve_dn", prog.dihedral.solve_dn))
    if f in ("gl2p", "sl2p"):
        return (("mat2.decide_gl2", prog.mat2.decide_gl2),
                ("mat2.solve_gl2", lambda e: prog.mat2.solve_gl2(e, rng)))
    if f == "tl2p":
        return (("mat2.decide_tl2", prog.mat2.decide_tl2),
                ("mat2.solve_tl2", prog.mat2.solve_tl2))
    if f == "heisenberg":
        return (("highdim.decide_heisenberg", prog.highdim.decide_heisenberg),
                ("highdim.solve_heisenberg", prog.highdim.solve_heisenberg))
    if f == "ut4p":
        return (("highdim.decide_ut4", prog.highdim.decide_ut4),
                ("highdim.solve_ut4", prog.highdim.solve_ut4))
    if f == "semidirect" and all(c.sign == 1 for c in eq.constants) and (
            eq.rhs is None or eq.rhs.sign == 1):
        return (("semidirect.decide_signvector",
                 prog.semidirect.decide_signvector), (None, None))
    if f == "semidirect":
        return cayley
    raise ValueError(f"no kernel for family {f!r}")


def _reduce(prog, args, payload):
    if args.reduction == "3part":
        fn = (prog.perm.reduce_3partition_an if payload.get("alternating")
              else prog.perm.reduce_3partition)
        return "perm.reduce_3partition", fn, (payload["a"],)
    if args.reduction == "partition":
        return ("dihedral.reduce_partition", prog.dihedral.reduce_partition,
                (payload["a"],))
    return ("semidirect.reduce_xcover", prog.semidirect.reduce_xcover,
            (payload["k"], payload["subsets"], payload["m"]))


def traced_call(prog, tr, argv, text):
    """One CLI call, layer by layer.  Returns the reply as a dict."""
    cli, core = prog.cli, prog.core
    args = tr.timed("cli.argparse",
                    lambda: cli.build_parser().parse_args(argv))
    verb = args.verb
    if verb == "reduce":
        payload = tr.timed("cli.parse", json.loads, text)
        name, fn, fargs = _reduce(prog, args, payload)
        eq = tr.timed(name, fn, *fargs)
        return json.loads(tr.timed(
            "cli.encode",
            lambda: json.dumps(cli.encode_equation(eq), sort_keys=True)))
    if verb == "saturation":
        spec = tr.timed("cli.parse", lambda: cli.decode_group(json.loads(text)))
        length = tr.timed("core.saturation_length", core.saturation_length,
                          spec)
        report = {"saturation_length": "none" if length is None else length}
        tr.timed("cli.encode", json.dumps, report)
        return report
    if verb == "verify":
        def parse():
            payload = json.loads(text)
            eq = cli.decode_equation(payload)
            return eq, core.Solution([cli.decode_element(eq.group, z)
                                      for z in payload["conjugators"]])
        eq, sol = tr.timed("cli.parse", parse)
        report = {"verified": tr.timed("core.verify", core.verify, eq, sol)}
        tr.timed("cli.encode", json.dumps, report)
        return report
    eq = tr.timed("cli.parse", lambda: cli.decode_equation(json.loads(text)))
    tr.timed("core.normalize", core.normalize, eq)
    rng = prog.numtheory.Rng(args.seed)
    (dname, decide), (sname, solve) = kernels(prog, eq, args.force_oracle, rng)
    if verb == "decide":
        report = {"solvable": tr.timed(dname, decide, eq)}
        tr.timed("cli.encode", json.dumps, report)
        if dname == "core.decide_cayley":
            tab = core.conjugacy_classes(eq.group)
            tr.signatures.add((id(tab), tuple(sorted(
                tab.class_of[tab.index[c]]
                for c in core.normalize(eq).constants))))
        return report
    if solve is None:
        raise ValueError(f"{dname} has no solver")
    before = tr.numtheory_calls
    sol = tr.timed(sname, solve, eq)
    if sname == "mat2.solve_gl2":
        tr.calls_in_solve_gl2 += tr.numtheory_calls - before
    report = {"solvable": sol is not None}
    if sol is not None:
        report["verified"] = tr.timed("core.verify", core.verify, eq, sol)

    def encode():
        if sol is not None:
            report["conjugators"] = [cli.encode_element(eq.group, z)
                                     for z in sol.conjugators]
        return json.dumps(report, sort_keys=True)
    tr.timed("cli.encode", encode)
    return report


def execute(prog, tr, req):
    """One request, traced.  Returns (ok, outputs, sent, seconds)."""
    t0 = time.perf_counter()
    try:
        outputs = [traced_call(prog, tr, req.argv, req.text)]
        sent = None
        if req.then is not None:
            sent = dict(outputs[0])
            if req.cert is not None:
                sol = tr.timed("perm.certificate_to_solution",
                               prog.perm.certificate_to_solution,
                               req.cert[0], req.cert[1], req.cert[2])
                sent["conjugators"] = [{"images": list(z.images)}
                                       for z in sol.conjugators]
            elif req.conjugators is not None:
                sent["conjugators"] = req.conjugators
            outputs.append(traced_call(prog, tr, req.then, json.dumps(sent)))
            if req.then == ["decide"] and outputs[1]["solvable"] is False:
                tr.sign_vectors += 1 << len(outputs[0]["constants"])
    except Exception as exc:  # the CLI would have exited non-zero
        print(f"traced request failed: {req.label}: {exc!r}", file=sys.stderr)
        return False, None, None, time.perf_counter() - t0
    finally:
        tr.request += 1
    return True, outputs, sent, time.perf_counter() - t0


def replay(workload, seed, count, tally):
    """Load the program afresh, prepare it, and replay the first `count`
    requests of the seed's stream traced.  Returns (tracer, seconds)."""
    prog, _ = program.load()
    program.prepare(prog, workload)
    tr = Tracer()
    tr.count_numtheory(prog.mat2)
    total = 0.0
    done = 0
    gc.collect()
    for batch in workload.rounds(seed):
        for req in batch:
            if done == count:
                return tr, total
            ok, outputs, sent, elapsed = execute(prog, tr, req)
            total += elapsed
            done += ok
            tally.record(req, ok, outputs, sent)


def _from_tracer(tr):
    out = {}
    by_name = {}
    for _, name, t0, t1 in tr.spans:
        by_name.setdefault(name, []).append(t1 - t0)
    for name in SPAN_METRICS:
        spans = by_name.get(name)
        metric = RENAMED.get(name, name + "_ms")
        out[metric] = (statistics.fmean(spans) * 1000 if spans else None, "ms")
    solves = len(by_name.get("mat2.solve_gl2", ()))
    out["numtheory.calls_per_solve"] = (
        tr.calls_in_solve_gl2 / solves if solves else None, "count")
    out["core.distinct_signatures"] = (len(tr.signatures) or None, "count")
    out["semidirect.sign_vectors"] = (tr.sign_vectors or None, "count")
    return out


def _from_setup(records):
    def med(key):
        vals = [r.get(key, 0.0) * 1000 for r in records]
        return statistics.median(vals) if any(vals) else None
    out = {"cli.import_ms": (med("import_s"), "ms"),
           "core.cayley_table_ms": (med("cayley_s"), "ms"),
           "core.class_table_ms": (med("classes_s"), "ms")}
    sizes = records[-1]["sizes"]
    for g in ORACLE_GROUPS:
        order, classes = sizes.get(g, (None, None))
        out[f"core.group_order.{g}"] = (order, "count")
        out[f"core.class_count.{g}"] = (classes, "count")
    return out


def process_start_ms(tally, runs=3):
    """Wall time of a cold `python -m spherical.cli decide` on a trivial
    payload, median of `runs`."""
    payload = json.dumps({"group": {"family": "dihedral", "n": 3},
                          "constants": [{"k": 1, "delta": -1},
                                        {"k": 2, "delta": -1}]})
    env = dict(os.environ)
    env["PYTHONPATH"] = program.SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "spherical.cli", "decide"], input=payload,
            capture_output=True, text=True, env=env, cwd=program.ROOT,
            check=False)
        times.append((time.perf_counter() - t0) * 1000)
        tally.attempted += 1
        if proc.returncode != 0:
            tally.failed += 1
        elif json.loads(proc.stdout).get("solvable") is not True:
            tally.mismatches += 1
    return statistics.median(times)


def write_spans(name, seed, tr):
    out_dir = os.path.join(program.ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("request\tname\tstart_us\tend_us\n")
        for req, span, t0, t1 in tr.spans:
            fh.write(f"{req}\t{span}\t{t0 * 1e6:.1f}\t{t1 * 1e6:.1f}\n")


def per_layer(workload, seed, count, untraced_s, records, tally):
    """The per-layer metrics of a traced run; `count` requests took
    `untraced_s` seconds in the untraced pass."""
    tr, traced_s = replay(workload, seed, count, tally)
    write_spans(workload.name, seed, tr)
    metrics = {**_from_setup(records), **_from_tracer(tr)}
    for other in workloads.WORKLOADS.values():
        missing = [m for m, (v, _) in metrics.items() if v is None]
        if not missing or other.name == workload.name:
            continue
        census = other()
        prog, _ = program.load()
        rec = program.prepare(prog, census)
        census_tr = Tracer()
        census_tr.count_numtheory(prog.mat2)
        for req in next(census.rounds(seed)):
            ok, outputs, sent, _ = execute(prog, census_tr, req)
            tally.record(req, ok, outputs, sent)
        found = {**_from_setup([rec]), **_from_tracer(census_tr)}
        for m in missing:
            metrics[m] = found[m]
    metrics["cli.process_start_ms"] = (process_start_ms(tally), "ms")
    metrics["trace.untraced_ops_per_s"] = (count / untraced_s, "1/s")
    metrics["trace.ops_per_s"] = (count / traced_s, "1/s")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    missing = [m for m, (v, _) in metrics.items() if v is None]
    if missing:
        raise RuntimeError(f"no workload reaches {missing}")
    return metrics
