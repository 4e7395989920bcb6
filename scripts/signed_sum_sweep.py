"""Time and peak memory of the signed-sum meet in the middle over a grid.

For each (free count, dim, bits(m)) the search runs in a fresh process on
dense random vectors, which the presolve cannot shorten, and a random
target, which is almost never reached, so both halves are built in full.
The process reports its own wall time for the search and its peak RSS
(resource.getrusage, ru_maxrss).  A row with count 0 is the bare import.

half_bits is 2^ceil(count/2) * dim * (bits + 1), what core.SIGN_BUDGET
bounds; points above twice the budget are skipped, not run, since one of
them can take gigabytes.

    PYTHONPATH=src python scripts/signed_sum_sweep.py
    PYTHONPATH=src python scripts/signed_sum_sweep.py --counts 8 --dims 2 --bits 8
"""

import argparse
import os
import random
import resource
import subprocess
import sys
import time

from spherical import core


def half_bits(count, dim, bits):
    return (1 << (count + 1) // 2) * dim * (bits + 1)


def run_point(count, dim, bits):
    """Run one search in this process; print seconds and peak RSS in MB."""
    m = (1 << bits) - 1
    r = random.Random(count * 1000003 + dim * 101 + bits)
    vecs = [[r.randrange(1, m) for _ in range(dim)] for _ in range(count)]
    target = [r.randrange(m) for _ in range(dim)]
    start = time.perf_counter()
    if count:
        core._meet_in_the_middle(vecs, target, m)
    seconds = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{seconds:.4f} {rss_kb / 1024:.1f}")


def sweep(counts, dims, bits_list):
    budget = core.SIGN_BUDGET
    print(f"SIGN_BUDGET = {budget} bits")
    print(f"{'count':>5} {'dim':>5} {'bits':>4} {'half_bits':>12} "
          f"{'within':>6} {'seconds':>8} {'peak_MB':>8}")
    points = [(0, 1, 8)] + [(c, d, b) for c in counts for d in dims
                            for b in bits_list]
    for count, dim, bits in points:
        hb = half_bits(count, dim, bits) if count else 0
        head = (f"{count:>5} {dim:>5} {bits:>4} {hb:>12} "
                f"{'yes' if hb <= budget else 'no':>6}")
        if hb > 2 * budget:
            print(f"{head} {'skipped':>8}")
            continue
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--point",
             str(count), str(dim), str(bits)],
            capture_output=True, text=True, check=True)
        seconds, peak = proc.stdout.split()
        print(f"{head} {seconds:>8} {peak:>8}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--counts", type=int, nargs="+",
                        default=[16, 20, 24, 28, 32])
    parser.add_argument("--dims", type=int, nargs="+",
                        default=[1, 16, 256, 2000])
    parser.add_argument("--bits", type=int, nargs="+", default=[8, 32, 62])
    parser.add_argument("--point", type=int, nargs=3,
                        metavar=("COUNT", "DIM", "BITS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        run_point(*args.point)
    else:
        sweep(args.counts, args.dims, args.bits)


if __name__ == "__main__":
    main()
