"""End-to-end benchmark of the spherical CLI.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Each run sets the program up several times, then sends one workload's
seeded stream of requests through `spherical.cli.main` in this process,
whole rounds at a time, until the timed requests add up to `--seconds`.
Every reply is checked by `check`.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and the metrics, the end-to-end
ones with `--trace 0` and the per-layer ones with `--trace 1`.  Host
figures go to stderr on a line starting `bench-info`.

    --workload all        one run of each workload, as a table
    --steady N            N runs on seeds seed..seed+N-1, with each
                          metric's median and quartile spread next to its
                          bound in BENCHMARK.json
    --selftest            show that the checker rejects corrupted replies
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import program
import workloads
from arith import CheckError

MAX_REPORTED_MISMATCHES = 5


class Tally:
    """attempted / failed / mismatched counts of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def record(self, req, ok, outputs, sent):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {req.label}", file=sys.stderr)
            return
        try:
            req.check(outputs, sent)
        # a reply missing a key or holding a value of the wrong type is
        # as wrong as one with the wrong verdict
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            self.mismatches += 1
            if self.mismatches <= MAX_REPORTED_MISMATCHES:
                print(f"wrong output: {req.label}: {exc!r}", file=sys.stderr)


def timed_pass(prog, workload, seed, seconds, tally):
    """Whole rounds until the timed requests add up to `seconds`.
    Returns the latencies of the completed requests and the round count."""
    latencies = []
    total = 0.0
    rounds = 0
    gc.collect()  # garbage left by the set-ups should not be timed
    for batch in workload.rounds(seed):
        rounds += 1
        for req in batch:
            ok, outputs, sent, elapsed = program.execute(prog, req)
            total += elapsed
            if ok:
                latencies.append(elapsed)
            tally.record(req, ok, outputs, sent)
        if total >= seconds:
            return latencies, rounds


def reference_loop():
    """Seconds for a fixed pure-Python loop, to tell host drift apart from a
    change in the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def end_to_end(latencies, records):
    ms = sorted(x * 1000 for x in latencies)
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def run_once(args):
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    prog, records = program.set_up(workload)
    tally = Tally()
    latencies, rounds = timed_pass(prog, workload, args.seed, args.seconds,
                                   tally)
    if args.trace:
        import layers
        metrics = layers.per_layer(workload, args.seed, len(latencies),
                                  sum(latencies), records, tally)
    else:
        metrics = end_to_end(latencies, records)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "requests": len(latencies), "ref_loop_s": reference_loop(),
            "wall_s": time.perf_counter() - started}
    print("bench-info " + json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# --------------------------------------------------------------------------
# modes that run the benchmark in child processes


def child(workload, seed, seconds, trace):
    """One run in a fresh process; returns (result, host info)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=program.ROOT, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run {cmd} exited {proc.returncode}")
    info = next(json.loads(line[len("bench-info "):])
                for line in proc.stderr.splitlines()
                if line.startswith("bench-info "))
    return json.loads(proc.stdout.splitlines()[-1]), info


def bench_config():
    with open(os.path.join(program.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def all_workloads(args):
    for name in workloads.WORKLOADS:
        res, info = child(name, args.seed, args.seconds, args.trace)
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']} rounds={info['rounds']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    return 0


def steady(args):
    bounds = {m["name"]: m["bound"] for m in bench_config()["end_to_end"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    worst = 0.0
    for name in names:
        values, refs, failed = {}, [], set()
        for seed in range(args.seed, args.seed + args.steady):
            res, info = child(name, seed, args.seconds, 0)
            refs.append(info["ref_loop_s"])
            failed.add((res["failed"], res["attempted"], res["correct"]))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed={seed} rounds={info['rounds']} "
                  f"wall_s={info['wall_s']:.1f} "
                  f"ref_loop_s={info['ref_loop_s']:.4f} "
                  + " ".join(f"{m}={v['value']:.6g}"
                             for m, v in res["metrics"].items()),
                  flush=True)
        print(f"{name}: (failed, attempted, correct) per run: "
              f"{sorted(failed)}")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric)
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {metric:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g}"
                  f" spread={spread:.4f} bound={bound} "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}")
        q1, med, q3 = statistics.quantiles(refs, n=4)
        print(f"  {'ref_loop_s':12s} median={med:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} spread={(q3 - q1) / med:.4f}")
    print(f"widest spread as a share of its bound: {worst:.3f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        program.require()
        if args.selftest:
            import selftest
            return selftest.main()
        if args.steady:
            return steady(args)
        if args.workload == "all":
            return all_workloads(args)
        return run_once(args)
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
