import itertools
import random

import pytest

from spherical.core import (GroupSpec, InputError, SphericalEquation,
                            TooLargeError, decide_cayley, verify)
from spherical import core
from spherical.semidirect import (SemidirectElement, reduce_xcover, decide_signvector,
                                  solve_signvector, certificate_to_solution)


def rand_el(r, m, k):
    return SemidirectElement(tuple([r.randrange(m) for _ in range(k)]),
                             r.choice((1, -1)), m)


def test_group_laws():
    r = random.Random(0)
    for m in (3, 5, 7):
        for _ in range(1200):
            k = r.randrange(1, 7)
            a, b, c = (rand_el(r, m, k) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == SemidirectElement((0,) * k, 1, m)


def test_reduce_xcover_examples():
    eq = reduce_xcover(2, [{1, 2}], 3)
    assert eq.group.m == 3 and eq.group.k == 3
    assert len(eq.constants) == 2
    assert eq.rhs == SemidirectElement((2, 2, 1), 1, 3)
    assert decide_signvector(eq)
    sol = certificate_to_solution(2, [{1, 2}], 3, {1})
    assert verify(eq, sol)
    assert not decide_signvector(reduce_xcover(2, [{1}], 3))
    with pytest.raises(InputError, match="m must be 3 or at least 5"):
        reduce_xcover(2, [{1, 2}], 4)
    with pytest.raises(InputError, match="m must be 3 or at least 5"):
        reduce_xcover(2, [{1, 2}], 2)
    with pytest.raises(InputError, match="more than 3 subsets"):
        reduce_xcover(2, [{1}, {1}, {1}, {1}], 3)  # occurrence bound
    with pytest.raises(InputError, match="bad subset"):
        reduce_xcover(2, [{1, 2, 3}], 3)  # subset leaves the ground set


def test_decide_signvector_examples():
    spec = GroupSpec("semidirect", m=5, k=2)
    e1 = SemidirectElement((1, 0), 1, 5)
    e1n = SemidirectElement((4, 0), 1, 5)
    assert decide_signvector(SphericalEquation(spec, [e1, e1n]))
    assert decide_signvector(SphericalEquation(spec, [e1, e1]))  # signs (1,-1)
    assert not decide_signvector(SphericalEquation(spec, [e1]))
    # the conjugates all have sign +1, so an rhs of sign -1 is out of reach
    eq = SphericalEquation(spec, [e1, e1n], SemidirectElement((0, 0), -1, 5))
    assert not decide_signvector(eq) and solve_signvector(eq) is None
    # one reflection: an odd number of sign -1 factors
    eq = SphericalEquation(spec, [SemidirectElement((1, 0), -1, 5)])
    assert not decide_signvector(eq) and solve_signvector(eq) is None
    # two: m = 5 is odd, so 2h = (1, 0) + (2, 3) has a solution h
    eq = SphericalEquation(spec, [SemidirectElement((1, 0), -1, 5),
                                  SemidirectElement((2, 3), -1, 5)])
    assert decide_signvector(eq) and verify(eq, solve_signvector(eq))
    # m = 4 is even: the vectors must sum to 0 mod 2 in every coordinate
    spec = GroupSpec("semidirect", m=4, k=2)
    for vec, want in (((1, 2), True), ((2, 2), False), ((1, 1), False)):
        eq = SphericalEquation(spec, [SemidirectElement((1, 0), -1, 4),
                                      SemidirectElement(vec, -1, 4)])
        assert decide_signvector(eq) == want == decide_cayley(eq)


def test_sign_cap_is_checked_before_any_search(monkeypatch):
    # k = 1 is D_3, whose 33 rotations the bitset takes in one coordinate
    eq = SphericalEquation(GroupSpec("semidirect", m=3, k=1),
                           [SemidirectElement((1,), 1, 3)] * 33)
    assert decide_signvector(eq) and verify(eq, solve_signvector(eq))

    def search(*args):
        raise AssertionError("searched past the cap")

    monkeypatch.setattr(core, "_bitset_signs", search)
    monkeypatch.setattr(core, "_meet_in_the_middle", search)
    assert core.SIGN_CAP == 32
    eq = SphericalEquation(GroupSpec("semidirect", m=3, k=2),
                           [SemidirectElement((1, 0), 1, 3)] * 33)
    for fn in (decide_signvector, solve_signvector):
        with pytest.raises(TooLargeError):
            fn(eq)


def test_kernel_matches_oracle_exhaustive():
    # every ordered tuple of 1-3 constants, reflections included; the
    # oracle's verdict does not depend on the order, so it runs once per
    # multiset
    for m in range(2, 7):
        for k in (1, 2):
            spec = GroupSpec("semidirect", m=m, k=k)
            els = spec.elements()
            verdicts = {}
            for count in (1, 2, 3):
                for idx in itertools.product(range(len(els)), repeat=count):
                    cs = [els[i] for i in idx]
                    eq = SphericalEquation(spec, cs)
                    key = tuple(sorted(idx))
                    if key not in verdicts:
                        verdicts[key] = decide_cayley(eq)
                    want = verdicts[key]
                    assert decide_signvector(eq) == want, (m, k, cs)
                    # a witness returns only through core.checked's verify
                    sol = solve_signvector(eq)
                    assert (sol is not None) == want, (m, k, cs)


def test_signvector_matches_oracle():
    r = random.Random(1)
    for m in (3, 5):
        spec = GroupSpec("semidirect", m=m, k=2)
        plus = [SemidirectElement(v, 1, m)
                for v in itertools.product(range(m), repeat=2)]
        for _ in range(500):
            cs = [plus[r.randrange(len(plus))]
                  for _ in range(r.randrange(1, 5))]
            rhs = plus[r.randrange(len(plus))] if r.random() < 0.5 else None
            eq = SphericalEquation(spec, cs, rhs)
            want = decide_cayley(eq)
            assert decide_signvector(eq) == want
            sol = solve_signvector(eq)
            assert (sol is not None) == want
            if sol is not None:
                assert verify(eq, sol)


def brute_cover(k, subsets):
    for size in range(len(subsets) + 1):
        for pick in itertools.combinations(range(1, len(subsets) + 1), size):
            cov = [j for i in pick for j in subsets[i - 1]]
            if len(cov) == len(set(cov)) and set(cov) == set(range(1, k + 1)):
                return set(pick)
    return None


def test_reduction_soundness_exhaustive_small():
    for k in (1, 2, 3, 4):
        universe = [frozenset(s) for size in (1, 2, 3)
                    for s in itertools.combinations(range(1, k + 1), size)]
        for ell in (1, 2, 3):
            for subs in itertools.combinations(universe, ell):
                subs = [set(s) for s in subs]
                try:
                    eq = reduce_xcover(k, subs, 3)
                except InputError:
                    continue
                want = brute_cover(k, subs)
                assert decide_signvector(eq) == (want is not None)
                sol = solve_signvector(eq)
                assert (sol is not None) == (want is not None)
                if want is not None:
                    assert verify(eq, sol)
                    assert verify(eq, certificate_to_solution(k, subs, 3, want))


def test_xcover_with_26_constants():
    # ground set 1..12: a planted cover by four triples and nine other
    # subsets, each element in at most three subsets
    cover = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}]
    others = [{1, 4, 7}, {2, 5, 8}, {3, 6, 9}, {1, 10}, {2, 11}, {4, 12},
              {5, 7}, {3, 8}, {6, 9, 10}]
    # {11, 12} in place of {10, 11, 12} leaves no exact cover
    missed = cover[:3] + others + [{11, 12}]
    for subs, m in ((cover + others, 3), (missed, 5)):
        assert len(subs) == 13
        eq = reduce_xcover(12, subs, m)
        assert len(eq.constants) == 26
        want = brute_cover(12, subs)
        assert decide_signvector(eq) == (want is not None)
        sol = solve_signvector(eq)
        assert (sol is not None) == (want is not None)
        if sol is not None:
            assert verify(eq, sol)
    assert brute_cover(12, cover + others) is not None
    assert brute_cover(12, missed) is None


def test_certificate_errors():
    with pytest.raises(ValueError, match="selected subsets overlap"):
        certificate_to_solution(3, [{1, 2}, {2, 3}], 3, {1, 2})  # overlap
    with pytest.raises(ValueError, match="do not cover"):
        certificate_to_solution(3, [{1, 2}], 3, {1})  # does not cover
    with pytest.raises(ValueError, match="unknown subsets"):
        certificate_to_solution(2, [{1, 2}], 3, {2})  # unknown subset
    # two disjoint covering sets, both selected
    sol = certificate_to_solution(4, [{1, 2}, {3, 4}], 5, {1, 2})
    assert verify(reduce_xcover(4, [{1, 2}, {3, 4}], 5), sol)


def test_products_match_the_group_law():
    for m in (3, 5):
        for k in (1, 2, 3):
            els = GroupSpec("semidirect", m=m, k=k).elements()
            assert els == [SemidirectElement(v, sign, m) for sign in (1, -1)
                           for v in itertools.product(range(m), repeat=k)]
            ident = SemidirectElement((0,) * k, 1, m)
            for a in els:
                inv = a.inverse()
                assert inv == SemidirectElement(
                    tuple([-a.sign * x % m for x in a.vec]), a.sign, m)
                assert a * inv == ident
                for b in els:
                    assert a * b == SemidirectElement(
                        tuple([(x + a.sign * y) % m
                               for x, y in zip(a.vec, b.vec)]),
                        a.sign * b.sign, m)


def test_certificate_gate_is_not_an_assert(monkeypatch):
    monkeypatch.setattr(core, "verify", lambda eq, sol: False)
    with pytest.raises(RuntimeError, match="witness fails verification"):
        certificate_to_solution(2, [{1, 2}], 3, {1})
