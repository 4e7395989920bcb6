"""Generate hardness-reduction instances and check them end to end.

Three reductions are exercised: Partition -> dihedral equations,
3-Partition -> symmetric-group equations, and exact set cover ->
semidirect-product equations.  For each random source instance we build the
equation, decide it with the specialized procedure, and cross-check against a
direct combinatorial search on the source problem.
"""

import argparse
import itertools
import random

from spherical.core import InputError, verify
from spherical.dihedral import decide_dn, reduce_partition
from spherical.perm import reduce_3partition, certificate_to_solution
from spherical.semidirect import (reduce_xcover, decide_signvector,
                                  certificate_to_solution as cover_solution)


def partition_answer(a):
    total = sum(a)
    if total % 2:
        return False
    reach = {0}
    for x in a:
        reach |= {r + x for r in reach}
    return total // 2 in reach


def brute_cover(k, subsets):
    for size in range(len(subsets) + 1):
        for pick in itertools.combinations(range(1, len(subsets) + 1), size):
            cov = [j for i in pick for j in subsets[i - 1]]
            if len(cov) == len(set(cov)) and set(cov) == set(range(1, k + 1)):
                return set(pick)
    return None


def run_partition(r, trials):
    agree = positive = 0
    for _ in range(trials):
        a = [r.randrange(1, 9) for _ in range(r.randrange(1, 10))]
        eq = reduce_partition(a)
        got = decide_dn(eq)
        assert got == partition_answer(a), a
        agree += 1
        positive += got
    print(f"partition: {agree} instances agree, {positive} solvable")


def run_3partition(r, trials):
    checked = 0
    for _ in range(trials):
        # sample a positive instance by gluing k valid triples
        k = r.randrange(1, 3)
        base = r.randrange(2, 5)
        triple = [base, base, base]
        a = triple * k
        try:
            eq = reduce_3partition(a)
        except InputError:
            continue
        cert = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)]
        assert verify(eq, certificate_to_solution(a, cert))
        checked += 1
    print(f"3-partition: {checked} positive instances verified")


def run_xcover(r, trials):
    agree = positive = 0
    for _ in range(trials):
        k = r.randrange(1, 7)
        universe = [frozenset(s) for size in (1, 2, 3)
                    for s in itertools.combinations(range(1, k + 1), size)]
        ell = r.randrange(1, min(5, len(universe) + 1))
        subs = [set(s) for s in r.sample(universe, ell)]
        m = r.choice((3, 5))
        try:
            eq = reduce_xcover(k, subs, m)
        except InputError:
            continue
        want = brute_cover(k, subs)
        got = decide_signvector(eq)
        assert got == (want is not None), (k, subs)
        if want is not None:
            assert verify(eq, cover_solution(k, subs, m, want))
            positive += 1
        agree += 1
    print(f"exact cover: {agree} instances agree, {positive} solvable")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    r = random.Random(args.seed)
    run_partition(r, args.trials)
    run_3partition(r, args.trials)
    run_xcover(r, args.trials)


if __name__ == "__main__":
    main()
