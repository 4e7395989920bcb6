import itertools
import random

import pytest

from spherical.core import (GroupSpec, SphericalEquation, TooLargeError,
                            conjugacy_classes, decide_cayley, solve_brute,
                            verify)
from spherical import core, semidirect
from spherical.dihedral import (decide_dn, decide_et2, solve_dn, solve_et2,
                                reduce_partition, embed_et2)
from spherical.mat2 import Mat2
from spherical.semidirect import SemidirectElement


def d(k, delta, n):
    """(k, delta) in D_n, the k = 1 case of Z_n^k x| C_2."""
    return SemidirectElement((k,), delta, n)


def test_group_laws():
    r = random.Random(0)
    for n in (3, 4, 7, 12):
        for _ in range(300):
            a = d(r.randrange(n), r.choice((1, -1)), n)
            b = d(r.randrange(n), r.choice((1, -1)), n)
            c = d(r.randrange(n), r.choice((1, -1)), n)
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == d(0, 1, n)


def test_decide_examples():
    assert decide_dn(SphericalEquation(GroupSpec("dihedral", n=3),
                                       [d(1, 1, 3), d(1, 1, 3)]))
    assert not decide_dn(SphericalEquation(GroupSpec("dihedral", n=4),
                                           [d(1, -1, 4), d(0, -1, 4)]))
    spec5 = GroupSpec("dihedral", n=5)
    assert decide_dn(SphericalEquation(
        spec5, [d(1, -1, 5), d(2, -1, 5), d(0, 1, 5), d(0, 1, 5)]))
    # odd product of reflection signs is never solvable
    assert not decide_dn(SphericalEquation(spec5, [d(1, -1, 5)]))


def test_solve_examples():
    eq = SphericalEquation(GroupSpec("dihedral", n=3), [d(1, 1, 3), d(1, 1, 3)])
    sol = solve_dn(eq)
    assert verify(eq, sol)
    spec6 = GroupSpec("dihedral", n=6)
    eq = SphericalEquation(spec6, [d(2, -1, 6), d(2, -1, 6), d(2, 1, 6)])
    sol = solve_dn(eq)
    assert sol is not None and verify(eq, sol)
    # all-identity constants
    eq = SphericalEquation(spec6, [d(0, 1, 6)])
    assert verify(eq, solve_dn(eq))


def test_matches_oracle_exhaustive():
    # D_1 and D_2 are Z_1 x| C_2 and Z_2 x| C_2; semidirect needs m >= 2
    for n in range(1, 9):
        spec = GroupSpec("dihedral", n=n)
        els = spec.elements()
        for k in (1, 2, 3):
            for cs in itertools.product(els, repeat=k):
                eq = SphericalEquation(spec, list(cs))
                got = decide_dn(eq)
                assert got == decide_cayley(eq), (n, cs)
                if got:
                    assert verify(eq, solve_dn(eq))


def test_solve_with_rhs():
    r = random.Random(1)
    for n in (3, 4, 6, 9):
        spec = GroupSpec("dihedral", n=n)
        for _ in range(300):
            k = r.randrange(1, 5)
            cs = [d(r.randrange(n), r.choice((1, -1)), n) for _ in range(k)]
            rhs = d(r.randrange(n), r.choice((1, -1)), n)
            eq = SphericalEquation(spec, cs, rhs)
            sol = solve_dn(eq)
            assert (sol is not None) == decide_dn(eq)
            if sol is not None:
                assert verify(eq, sol)


def test_conjugacy_class_counts():
    for n in range(3, 13):
        classes = conjugacy_classes(GroupSpec("dihedral", n=n)).classes
        want = (n + 1) // 2 + 1 if n % 2 else n // 2 + 3
        assert len(classes) == want, n


def test_reduce_partition_examples():
    eq = reduce_partition([1, 1])
    assert eq.group.n == 3 and eq.constants == [d(1, 1, 3), d(1, 1, 3)]
    assert decide_dn(eq)
    eq = reduce_partition([1, 2])
    assert eq.group.n == 4 and not decide_dn(eq)
    eq = reduce_partition([3, 1, 2])
    assert eq.group.n == 7 and decide_dn(eq)
    assert verify(eq, solve_dn(eq))


def test_reduce_partition_matches_partition_answer():
    def has_even_split(a):
        total = sum(a)
        if total % 2:
            return False
        reach = {0}
        for x in a:
            reach |= {r + x for r in reach}
        return total // 2 in reach

    r = random.Random(2)
    for _ in range(500):
        a = [r.randrange(1, 7) for _ in range(r.randrange(1, 9))]
        assert decide_dn(reduce_partition(a)) == has_even_split(a)


def test_embed_et2():
    assert embed_et2(d(1, 1, 5)) == Mat2(5, 1, 1, 0, 1)
    assert embed_et2(d(0, -1, 5)) == Mat2(5, 1, 0, 0, -1)
    assert embed_et2(d(2, -1, 5)) == Mat2(5, 1, -2, 0, -1)
    r = random.Random(3)
    for n in list(range(3, 13)) + [25, 50]:
        seen = set()
        for _ in range(200):
            a = d(r.randrange(n), r.choice((1, -1)), n)
            b = d(r.randrange(n), r.choice((1, -1)), n)
            assert embed_et2(a * b) == embed_et2(a) * embed_et2(b)
            seen.add(embed_et2(a))
        if n <= 12:
            assert len({embed_et2(d(k, s, n)) for k in range(n)
                        for s in (1, -1)}) == 2 * n  # injective


@pytest.mark.parametrize("n, counts, bitset", [
    (7, range(9), True),               # small dense n: always the bitset
    (10**6, range(7), False),          # large n, few values
    (512, (5,), False),                # 2^(5/2) * 64 < 512
    (512, (6, 7), True),               # 2^(6/2) * 64 = 512
    (513, (6,), False),
    (513, (7,), True),
    # dense by that rule, but 32 * n bits are above CAP^2: meet in the middle
    (4 * 10**6, (32,), False),
    # above CAP^2 bits and above SIGN_CAP values: neither search runs
    (4 * 10**6, (33,), None),
    (10**10, (60,), None),
])
def test_signed_sum_dp_both_sides_of_the_switch(n, counts, bitset,
                                                 monkeypatch):
    # rotations (v, 1) of D_n: core.signed_sum_signs in one coordinate
    calls = []
    real = core._meet_in_the_middle
    monkeypatch.setattr(core, "_meet_in_the_middle",
                        lambda *args: calls.append(args) or real(*args))
    r = random.Random(n)
    for count in counts:
        if bitset is None:
            with pytest.raises(TooLargeError, match="too many"):
                core.signed_sum_signs(
                    [(r.randrange(n),) for _ in range(count)], (0,), n)
            assert not calls
            continue
        # past 12 values only the planted sums are checked, not by brute force
        for trial in range(40 if count <= 12 else 4):
            vals = [r.randrange(n) for _ in range(count)]
            if trial % 2 and count:  # plant a zero sum
                vals[-1] = sum(r.choice((1, -1)) * v for v in vals[:-1]) % n
            calls.clear()
            got = core.signed_sum_signs([(v,) for v in vals], (0,), n)
            assert bool(calls) != bitset, (n, count)
            if count <= 12:
                want = any(sum(e * v for e, v in zip(signs, vals)) % n == 0
                           for signs in itertools.product((1, -1),
                                                          repeat=count))
                assert (got is not None) == want, (n, vals)
            elif trial % 2:
                assert got is not None, (n, vals)
            if got is not None:
                assert len(got) == count
                assert sum(e * v for e, v in zip(got, vals)) % n == 0


def test_solve_dn_runs_one_signed_sum(monkeypatch):
    calls = []
    real = semidirect.signed_sum_signs
    monkeypatch.setattr(semidirect, "signed_sum_signs",
                        lambda *args: calls.append(args) or real(*args))
    eq = reduce_partition([3, 1, 2, 4])
    assert verify(eq, solve_dn(eq)) and len(calls) == 1
    calls.clear()
    assert solve_dn(reduce_partition([1, 2])) is None and len(calls) == 1


def test_et2n_matches_oracle_exhaustive():
    for n in range(3, 9):
        spec = GroupSpec("et2n", n=n)
        els = spec.elements()
        for k in (1, 2, 3):
            for cs in itertools.product(els, repeat=k):
                eq = SphericalEquation(spec, list(cs))
                got = decide_et2(eq)
                assert got == decide_cayley(eq), (n, cs)
                sol = solve_et2(eq)
                assert (sol is not None) == got, (n, cs)
                if got:
                    assert verify(eq, sol)


def test_et2n_solve_with_rhs():
    r = random.Random(4)

    def rand_el(n):
        return Mat2(n, r.choice((1, -1)), r.randrange(n), 0,
                    r.choice((1, -1)))

    for n in (3, 4, 6, 9, 2501):
        spec = GroupSpec("et2n", n=n)
        for _ in range(200):
            cs = [rand_el(n) for _ in range(r.randrange(1, 5))]
            rhs = rand_el(n)
            eq = SphericalEquation(spec, cs, rhs)
            sol = solve_et2(eq)
            assert (sol is not None) == decide_et2(eq)
            if n < 10:
                assert decide_et2(eq) == decide_cayley(eq)
            if sol is not None:
                assert verify(eq, sol)
