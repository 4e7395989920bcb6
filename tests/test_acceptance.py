"""End-to-end acceptance sweep.

Each test prints a single PASS/FAIL line for one criterion; the whole file is
the release gate.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete.
"""

import contextlib
import itertools
import random

from conftest import cyclic_table, q8_mul_table

from spherical import numtheory
from spherical.core import (GroupSpec, InputError, SphericalEquation,
                            conjugacy_classes, decide_cayley, solve_brute,
                            saturation_length, verify)
from spherical.dihedral import decide_dn, solve_dn, reduce_partition
from spherical.highdim import (HeisenbergElement, UT4Element,
                               decide_heisenberg, solve_heisenberg,
                               decide_ut4, solve_ut4)
from spherical.mat2 import (Mat2, TYPE3, classify, discriminant, decide_gl2,
                            solve_gl2, decide_tl2, solve_tl2, trace_reachable,
                            trace_target)
from spherical.numtheory import (Rng, legendre, sqrt_mod,
                                 solve_weighted_trace)
from spherical.perm import (Permutation, reduce_3partition,
                            reduce_3partition_an, certificate_to_solution,
                            sign)
from spherical import semidirect


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({desc}): FAIL")
        raise
    print(f"criterion {num:2d} ({desc}): PASS")


def exhaustive_match(spec, decide, solve, kmax):
    els = spec.elements()
    for k in range(1, kmax + 1):
        for cs in itertools.product(els, repeat=k):
            eq = SphericalEquation(spec, list(cs))
            got = decide(eq)
            assert got == decide_cayley(eq), (spec, cs)
            if got and solve is not None:
                sol = solve(eq)
                assert sol is not None and verify(eq, sol), (spec, cs)


def test_criterion_1_oracle_equivalence_fixed_groups():
    with criterion(1, "oracle equivalence on fixed groups, k <= 3"):
        specs = [GroupSpec("symmetric", n=3), GroupSpec("symmetric", n=4),
                 GroupSpec("dihedral", n=4), GroupSpec("dihedral", n=6),
                 GroupSpec("cayley", table=cyclic_table(6)),
                 GroupSpec("cayley", table=q8_mul_table())]
        for spec in specs:
            els = spec.elements()
            for k in (1, 2, 3):
                for cs in itertools.product(els, repeat=k):
                    eq = SphericalEquation(spec, list(cs))
                    sol = solve_brute(eq)
                    assert decide_cayley(eq) == (sol is not None), (spec, cs)
                    if sol is not None:
                        assert verify(eq, sol)


def test_criterion_2_dihedral_criterion():
    with criterion(2, "dihedral parity/sum criterion vs oracle, n in 3..8"):
        for n in range(3, 9):
            exhaustive_match(GroupSpec("dihedral", n=n), decide_dn,
                             solve_dn, 3)


def test_criterion_3_partition_reduction():
    def partition_answer(a):
        total = sum(a)
        if total % 2:
            return False
        reach = {0}
        for x in a:
            reach |= {r + x for r in reach}
        return total // 2 in reach

    with criterion(3, "dihedral reduction equals Partition answer"):
        count = 0
        for k in range(1, 9):
            for a in itertools.combinations_with_replacement(range(1, 7), k):
                eq = reduce_partition(list(a))
                assert decide_dn(eq) == partition_answer(a), a
                count += 1
        assert count > 2500


def test_criterion_4_sn_reduction():
    def small_instances():
        for total in range(4, 13):
            lo, hi = total // 4 + 1, (total - 1) // 2
            for a in itertools.combinations_with_replacement(
                    range(lo, hi + 1), 3):
                if sum(a) == total:
                    yield list(a)

    with criterion(4, "3-Partition reduction certificates, degree <= 13"):
        seen = 0
        for a in small_instances():
            eq = reduce_3partition(a)
            assert eq.group.n == sum(a) + 1 <= 13
            sol = certificate_to_solution(a, [(0, 1, 2)])
            assert verify(eq, sol), a
            if eq.group.n <= 7:
                brute = solve_brute(eq)
                assert brute is not None and verify(eq, brute)
            eqa = reduce_3partition_an(a)
            assert eqa.group.family == "alternating"
            assert all(sign(c) == 1 for c in eqa.constants)
            assert sign(eqa.rhs) == 1
            sola = certificate_to_solution(a, [(0, 1, 2)], alternating=True)
            assert all(sign(z) == 1 for z in sola.conjugators)
            assert verify(eqa, sola), a
            seen += 1
        assert seen >= 5
        # a k = 2 positive instance for good measure
        a = [3, 3, 3, 3, 3, 3]
        assert verify(reduce_3partition(a),
                      certificate_to_solution(a, [(0, 1, 2), (3, 4, 5)]))


def rand_inv(p, r):
    while True:
        m = Mat2(p, r.randrange(p), r.randrange(p), r.randrange(p),
                 r.randrange(p))
        if m.det() != 0:
            return m


def test_criterion_5_gl2():
    g = Rng(0)
    with criterion(5, "GL(2,p) decision vs oracle and verified solves"):
        exhaustive_match(GroupSpec("gl2p", p=3), decide_gl2,
                         lambda e: solve_gl2(e, g), 3)
        r = random.Random(0)
        spec5 = GroupSpec("gl2p", p=5)
        els5 = spec5.elements()
        for _ in range(1000):
            cs = [els5[r.randrange(len(els5))] for _ in range(3)]
            eq = SphericalEquation(spec5, cs)
            got = decide_gl2(eq)
            assert got == decide_cayley(eq), cs
            if got:
                assert verify(eq, solve_gl2(eq, g))
        for p in (5, 7, 101, 1009):
            spec = GroupSpec("gl2p", p=p)
            solved = 0
            for i in range(1000):
                k = 2 + i % 7
                cs = [rand_inv(p, r) for _ in range(k - 1)]
                det = 1
                for c in cs:
                    det = det * c.det() % p
                while True:
                    last = rand_inv(p, r)
                    if last.det() == pow(det, p - 2, p):
                        break
                cs.append(last)
                eq = SphericalEquation(spec, cs)
                if decide_gl2(eq):
                    assert verify(eq, solve_gl2(eq, g)), (p, cs)
                    solved += 1
            assert solved > 500, p


def test_criterion_6_tl2():
    with criterion(6, "TL(2,p) closed form vs oracle, p in {3,5}"):
        for p in (3, 5):
            exhaustive_match(GroupSpec("tl2p", p=p), decide_tl2,
                             solve_tl2, 3)


def test_criterion_7_trace_sets():
    r = random.Random(1)
    p = 7
    spec = GroupSpec("gl2p", p=p)
    els = spec.elements()

    def true_set(a, b):
        return {(a * z.inverse() * b * z).trace() for z in els}

    with criterion(7, "trace-set coverage and type-3 excluded point, p=7"):
        done = 0
        while done < 100:
            a, b = rand_inv(p, r), rand_inv(p, r)
            if a.is_scalar() or b.is_scalar():
                continue
            if classify(a) == TYPE3 or classify(b) == TYPE3:
                continue
            assert true_set(a, b) == set(range(p)), (a, b)
            for k in range(p):
                assert trace_reachable(a, b, k)
                z = trace_target(a, b, k)
                assert (a * b.conj_by(z)).trace() == k
            done += 1
        done = 0
        while done < 100:
            a, b = rand_inv(p, r), rand_inv(p, r)
            if a.is_scalar() or classify(b) != TYPE3:
                continue
            s = b.trace() * (p + 1) // 2 % p  # the repeated eigenvalue
            excluded = s * a.trace() % p
            want = set(range(p))
            if legendre(discriminant(a), p) == -1:
                want.discard(excluded)
            assert true_set(a, b) == want, (a, b)
            for k in range(p):
                assert trace_reachable(a, b, k) == (k in want)
                z = trace_target(a, b, k)
                assert (z is not None) == (k in want)
                if z is not None:
                    assert (a * b.conj_by(z)).trace() == k
            done += 1


def test_criterion_8_heisenberg():
    with criterion(8, "Heisenberg closed form vs oracle and large primes"):
        for p in (2, 3):
            exhaustive_match(GroupSpec("heisenberg", n=3, p=p),
                             decide_heisenberg, solve_heisenberg, 3)
        r = random.Random(2)
        for n, p in ((5, 101), (8, 1009)):
            spec = GroupSpec("heisenberg", n=n, p=p)
            d = n - 2
            solved = 0
            for i in range(1000):
                k = 1 + i % 5
                cs = [HeisenbergElement([r.randrange(p) for _ in range(d)],
                                        r.randrange(p),
                                        [r.randrange(p) for _ in range(d)],
                                        n, p) for _ in range(k)]
                if i % 2 and k >= 2:
                    a1 = [-sum(c.a1[j] for c in cs[:-1]) for j in range(d)]
                    a3 = [-sum(c.a3[j] for c in cs[:-1]) for j in range(d)]
                    cs[-1] = HeisenbergElement(a1, cs[-1].a2, a3, n, p)
                eq = SphericalEquation(spec, cs)
                sol = solve_heisenberg(eq)
                assert (sol is not None) == decide_heisenberg(eq)
                if sol is not None:
                    assert verify(eq, sol)
                    solved += 1
            assert solved > 100, (n, p)


def test_criterion_9_ut4():
    with criterion(9, "UT(4,p) closed form vs oracle and random positives"):
        exhaustive_match(GroupSpec("ut4p", p=2), decide_ut4, solve_ut4, 2)
        r = random.Random(3)
        for p in (3, 5, 101):
            spec = GroupSpec("ut4p", p=p)
            for i in range(1000):
                k = 1 + i % 6
                xs = [UT4Element(p, [r.randrange(p) for _ in range(6)])
                      for _ in range(k)]
                cs = [UT4Element(p, [r.randrange(p) for _ in range(6)])
                      for _ in range(k - 1)]
                prod = None
                for x, c in zip(xs, cs):
                    t = x * c * x.inverse()
                    prod = t if prod is None else prod * t
                inv = prod.inverse() if prod else UT4Element(p, (0,) * 6)
                cs.append(xs[-1].inverse() * inv * xs[-1])
                eq = SphericalEquation(spec, cs)
                sol = solve_ut4(eq)
                assert sol is not None and verify(eq, sol), (p, cs)


def test_criterion_10_xcover_reduction():
    def brute_cover(k, subsets):
        for size in range(len(subsets) + 1):
            for pick in itertools.combinations(range(1, len(subsets) + 1),
                                               size):
                cov = [j for i in pick for j in subsets[i - 1]]
                if len(cov) == len(set(cov)) \
                        and set(cov) == set(range(1, k + 1)):
                    return set(pick)
        return None

    with criterion(10, "exact-cover reduction vs brute cover answer"):
        count = 0
        for k in range(1, 7):
            universe = [frozenset(s) for size in (1, 2, 3)
                        for s in itertools.combinations(range(1, k + 1),
                                                        size)]
            for ell in range(1, 5):
                for subs in itertools.combinations(universe, ell):
                    subs = [set(s) for s in subs]
                    for m in (3, 5):
                        try:
                            eq = semidirect.reduce_xcover(k, subs, m)
                        except InputError:
                            continue
                        want = brute_cover(k, subs)
                        got = semidirect.decide_signvector(eq)
                        assert got == (want is not None), (k, subs, m)
                        if want is not None:
                            sol = semidirect.certificate_to_solution(
                                k, subs, m, want)
                            assert verify(eq, sol)
                        count += 1
        assert count > 10**5


def test_criterion_11_saturation():
    with criterion(11, "saturation length of A5 and non-saturating groups"):
        spec = GroupSpec("alternating", n=5)
        ell = saturation_length(spec)
        assert ell is not None and 1 <= ell <= 60**3 - 60 + 1
        tab = conjugacy_classes(spec)
        ident = spec.identity()
        nontrivial = [g for g in tab.elems if g != ident]
        r = random.Random(4)
        for _ in range(1000):
            cs = [nontrivial[r.randrange(len(nontrivial))]
                  for _ in range(ell)]
            assert decide_cayley(SphericalEquation(spec, cs))
        assert saturation_length(GroupSpec("cayley",
                                           table=cyclic_table(2))) is None
        assert saturation_length(GroupSpec("symmetric", n=3)) is None


def test_criterion_12_number_theory():
    primes = [3, 5, 7, 101, 1009, 65537, 2**31 - 1, 2**61 - 1]
    with criterion(12, "number-theory kernels by substitution, 10^4 trials"):
        r = random.Random(5)
        for i in range(10**4):
            p = primes[i % len(primes)]
            a = r.randrange(1, p)
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1
                                      else -1)
            sq = a * a % p
            root = sqrt_mod(sq, p)
            assert root * root % p == sq
            if i % 10 == 0:
                t = b = None
                while t is None or legendre(t, p) != -1:
                    t = r.randrange(1, p)
                while b is None or legendre(b, p) != -1:
                    b = r.randrange(1, p)
                kk = r.randrange(p)
                u, x = solve_weighted_trace(kk, t, b, p)
                assert u != 0
                assert (u * b + (t - x * x) * pow(u, p - 2, p) - kk) % p == 0
