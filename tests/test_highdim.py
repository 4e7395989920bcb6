import itertools
import random

from spherical.core import (GroupSpec, SphericalEquation, decide_cayley,
                            solve_brute, verify)
from spherical.highdim import (HeisenbergElement, UT4Element,
                               decide_heisenberg,
                               solve_heisenberg, decide_ut4, solve_ut4)


def rand_heis(r, n, p):
    d = n - 2
    return HeisenbergElement([r.randrange(p) for _ in range(d)],
                             r.randrange(p),
                             [r.randrange(p) for _ in range(d)], n, p)


def rand_ut4(r, p):
    return UT4Element(p, [r.randrange(p) for _ in range(6)])


def test_heisenberg_laws():
    r = random.Random(0)
    for n, p in ((3, 3), (4, 5), (6, 7)):
        ident = HeisenbergElement((0,) * (n - 2), 0, (0,) * (n - 2), n, p)
        for _ in range(300):
            a, b, c = (rand_heis(r, n, p) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == ident


def test_ut4_laws():
    r = random.Random(1)
    for p in (2, 3, 101):
        ident = UT4Element(p, (0,) * 6)
        for _ in range(300):
            a, b, c = (rand_ut4(r, p) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == ident


def test_heisenberg_product_formula():
    # scalar part of a product of conjugates matches the closed form
    r = random.Random(2)
    for n, p in ((3, 3), (4, 5), (6, 101)):
        d = n - 2
        for _ in range(500):
            k = r.randrange(1, 5)
            cs = [rand_heis(r, n, p) for _ in range(k)]
            xs = [rand_heis(r, n, p) for _ in range(k)]
            prod = None
            for x, c in zip(xs, cs):
                t = x * c * x.inverse()
                prod = t if prod is None else prod * t
            a = sum(sum(x.a1[j] * c.a3[j] - c.a1[j] * x.a3[j]
                        for j in range(d))
                    for x, c in zip(xs, cs))
            a += sum(sum(cs[h].a1[j] * cs[i].a3[j] for j in range(d))
                     for i in range(k) for h in range(i))
            a += sum(c.a2 for c in cs)
            assert prod.a2 == a % p
            assert prod.a1 == tuple(sum(c.a1[j] for c in cs) % p
                                    for j in range(d))
            assert prod.a3 == tuple(sum(c.a3[j] for c in cs) % p
                                    for j in range(d))


def test_heisenberg_examples():
    spec = GroupSpec("heisenberg", n=3, p=5)
    central = lambda v: HeisenbergElement((0,), v, (0,), 3, 5)
    eq = SphericalEquation(spec, [central(2), central(3)])
    assert decide_heisenberg(eq)
    sol = solve_heisenberg(eq)
    assert verify(eq, sol)
    assert all(z == spec.identity() for z in sol.conjugators)
    assert not decide_heisenberg(SphericalEquation(spec, [central(2),
                                                          central(4)]))
    c1 = HeisenbergElement((1,), 3, (0,), 3, 5)
    c2 = HeisenbergElement((4,), 2, (0,), 3, 5)
    eq = SphericalEquation(spec, [c1, c2])
    assert verify(eq, solve_heisenberg(eq))


def test_heisenberg_matches_oracle_exhaustive():
    for p in (2, 3):
        spec = GroupSpec("heisenberg", n=3, p=p)
        els = spec.elements()
        for k in (1, 2, 3):
            if len(els) ** k > 25000:
                # sample the largest grid instead of full product
                r = random.Random(p * k)
                grids = ([els[r.randrange(len(els))] for _ in range(k)]
                         for _ in range(3000))
            else:
                grids = itertools.product(els, repeat=k)
            for cs in grids:
                eq = SphericalEquation(spec, list(cs))
                got = decide_heisenberg(eq)
                assert got == decide_cayley(eq), (p, cs)
                if got:
                    assert verify(eq, solve_heisenberg(eq))


def test_heisenberg_random_large():
    r = random.Random(3)
    for n, p in ((5, 101), (8, 1009)):
        spec = GroupSpec("heisenberg", n=n, p=p)
        solved = 0
        for _ in range(300):
            k = r.randrange(1, 6)
            cs = [rand_heis(r, n, p) for _ in range(k)]
            # half the time, zero-balance the vector parts so the
            # necessary conditions hold
            if r.random() < 0.5 and k >= 2:
                d = n - 2
                a1 = [-sum(c.a1[j] for c in cs[:-1]) for j in range(d)]
                a3 = [-sum(c.a3[j] for c in cs[:-1]) for j in range(d)]
                cs[-1] = HeisenbergElement(a1, cs[-1].a2, a3, n, p)
            eq = SphericalEquation(spec, cs)
            sol = solve_heisenberg(eq)
            assert (sol is not None) == decide_heisenberg(eq)
            if sol is not None:
                assert verify(eq, sol)
                solved += 1
        assert solved > 0


def _conjugates(cs, xs):
    prod = None
    for x, c in zip(xs, cs):
        t = x * c * x.inverse()
        prod = t if prod is None else prod * t
    return prod


def test_ut4_entry3_formula():
    # the written-down form solve_ut4 uses when every c1 and c6 is 0,
    # against real products of X_i C_i X_i^-1 with X_i = (x_i,0,0,0,0,y_i)
    r = random.Random(4)
    for p in (2, 3, 5, 101):
        for _ in range(300):
            k = r.randrange(1, 6)
            cs = [UT4Element(p, [0] + [r.randrange(p) for _ in range(4)] + [0])
                  for _ in range(k)]
            x = [r.randrange(p) for _ in range(k)]
            y = [r.randrange(p) for _ in range(k)]
            xs = [UT4Element(p, (x[i], 0, 0, 0, 0, y[i])) for i in range(k)]
            for c, xi, yi, t in zip(cs, x, y, xs):
                _, c2, c3, c4, c5, _ = c.e
                assert (t * c * t.inverse()).e == tuple(
                    v % p for v in (0, c2 + xi * c4,
                                    c3 + xi * c5 - yi * c2 - xi * yi * c4,
                                    c4, c5 - yi * c4, 0))
            _, c2, c3, c4, c5, _ = zip(*(c.e for c in cs))
            f = sum(c3[i] + c5[i] * x[i] - c2[i] * y[i] - c4[i] * x[i] * y[i]
                    for i in range(k))
            assert _conjugates(cs, xs).e == tuple(v % p for v in (
                0, sum(c2) + sum(a * b for a, b in zip(c4, x)), f, sum(c4),
                sum(c5) - sum(a * b for a, b in zip(c4, y)), 0))


def _ut4_inner(p):
    """UT(4,p)'s elements with e1 = e6 = 0."""
    return [UT4Element(p, (0,) + e + (0,))
            for e in itertools.product(range(p), repeat=4)]


def test_ut4_inner_matches_oracle_exhaustive():
    spec = GroupSpec("ut4p", p=2)
    inner = _ut4_inner(2)
    for k in (1, 2, 3):
        for cs in itertools.product(inner, repeat=k):
            eq = SphericalEquation(spec, list(cs))
            sol = solve_ut4(eq)
            assert (sol is not None) == decide_cayley(eq), cs
            if sol is not None:
                assert verify(eq, sol)


def test_ut4_matches_oracle_sampled_p3():
    spec = GroupSpec("ut4p", p=3)
    els = spec.elements()
    inner = _ut4_inner(3)
    r = random.Random(8)
    for trial in range(3000):
        k = r.randrange(1, 6)
        cs = [r.choice(inner if trial % 3 else els) for _ in range(k)]
        if trial % 2 and k >= 2:
            # balance entries (1), (4) and (6) so the verdict is not a sum test
            e = list(cs[-1].e)
            for j in (0, 3, 5):
                e[j] = -sum(c.e[j] for c in cs[:-1])
            cs[-1] = UT4Element(3, e)
        eq = SphericalEquation(spec, cs)
        sol = solve_ut4(eq)
        assert (sol is not None) == decide_cayley(eq), cs
        if sol is not None:
            assert verify(eq, sol)
    # every c4 = 0 and every (c1, c6) on one line through 0: entries (2)
    # and (5) then ask whether (r2, r5) lies on that line too
    verdicts = set()
    for trial in range(1000):
        k = r.randrange(2, 6)
        a, b = r.choice([(1, 0), (0, 1), (1, 1), (1, 2)])
        lam = [r.randrange(3) for _ in range(k - 1)]
        lam.append(-sum(lam) % 3 if trial % 4 else r.randrange(1, 3))
        cs = [UT4Element(3, (l * a, r.randrange(3), r.randrange(3), 0,
                             r.randrange(3), l * b)) for l in lam]
        eq = SphericalEquation(spec, cs)
        sol = solve_ut4(eq)
        assert (sol is not None) == decide_cayley(eq), cs
        if sol is not None:
            assert verify(eq, sol)
        if any(lam) and not sum(lam) % 3:
            verdicts.add(sol is not None)
    assert verdicts == {True, False}


def test_ut4_inner_cases():
    # one equation or more per case of the written-down form over UT(4,3);
    # each entry is (c2, c3, c4, c5), with c1 = c6 = 0
    p = 3
    spec = GroupSpec("ut4p", p=p)

    def eq(*entries):
        return SphericalEquation(spec, [UT4Element(p, (0,) + e + (0,))
                                        for e in entries])

    unsolvable = [
        eq((1, 0, 0, 0), (1, 0, 0, 0)),                 # 1: no c4, a != 0
        eq((0, 0, 0, 1), (0, 1, 0, 0)),                 # 1: no c4, b != 0
        eq((0, 1, 0, 0), (0, 1, 0, 0)),                 # no c4, F = 2
        eq((0, 1, 1, 0), (0, 0, 2, 0)),                 # 5: |S| = 2, F = 1
        eq((2, 2, 1, 0), (0, 0, 2, 1)),                 # 5: a, b != 0
    ]
    solvable = [
        eq((1, 0, 1, 0), (0, 0, 2, 0)),                 # 2: x_t = 2
        eq((1, 2, 2, 2), (0, 2, 1, 1)),                 # 2: x_t, y_t != 0
        eq((0, 1, 0, 1), (0, 0, 0, 2)),                 # 3, no c4: x_j
        eq((0, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0)),   # 3, no c4: y_j
        eq((0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 0, 1),
           (0, 0, 0, 2)),                               # 3: x_j
        eq((0, 1, 1, 0), (0, 0, 2, 0), (1, 0, 0, 0),
           (2, 0, 0, 0)),                               # 3: y_j
        eq((0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)),   # 4: g = 0
        eq((1, 1, 1, 0), (0, 0, 1, 0), (2, 0, 1, 0)),   # 4: g != 0
    ]
    for e in unsolvable:
        assert solve_ut4(e) is None and not decide_cayley(e), e.constants
    for e in solvable:
        sol = solve_ut4(e)
        assert sol is not None and verify(e, sol), e.constants
        assert decide_cayley(e)


def test_ut4_examples():
    spec = GroupSpec("ut4p", p=5)
    ident = UT4Element(5, (0,) * 6)
    eq = SphericalEquation(spec, [ident, ident])
    assert verify(eq, solve_ut4(eq))
    bad = UT4Element(5, (0, 0, 0, 1, 0, 0))
    assert not decide_ut4(SphericalEquation(spec, [bad]))


def test_ut4_matches_oracle_exhaustive():
    spec = GroupSpec("ut4p", p=2)
    els = spec.elements()
    for k in (1, 2):
        for cs in itertools.product(els, repeat=k):
            eq = SphericalEquation(spec, list(cs))
            got = decide_ut4(eq)
            assert got == decide_cayley(eq), cs
            if got:
                assert verify(eq, solve_ut4(eq))


def test_ut4_constructed_positives():
    r = random.Random(5)
    for p in (3, 5, 101):
        spec = GroupSpec("ut4p", p=p)
        for _ in range(200):
            k = r.randrange(1, 7)
            xs = [rand_ut4(r, p) for _ in range(k)]
            cs = [rand_ut4(r, p) for _ in range(k - 1)]
            prod = None
            for x, c in zip(xs, cs):
                t = x * c * x.inverse()
                prod = t if prod is None else prod * t
            inv = prod.inverse() if prod else UT4Element(p, (0,) * 6)
            cs.append(xs[-1].inverse() * inv * xs[-1])
            eq = SphericalEquation(spec, cs)
            assert decide_ut4(eq)
            assert verify(eq, solve_ut4(eq))


def test_ut4_case_branches():
    r = random.Random(6)
    for p in (7, 101):
        spec = GroupSpec("ut4p", p=p)
        pos = neg = 0
        for _ in range(300):
            k = r.randrange(2, 6)
            cs = [rand_ut4(r, p) for _ in range(k - 1)]
            sums = [(-sum(c.e[j] for c in cs)) % p for j in (0, 3, 5)]
            cs.append(UT4Element(p, (sums[0], r.randrange(p), r.randrange(p),
                                     sums[1], r.randrange(p), sums[2])))
            mode = r.randrange(4)
            if mode == 1:  # bilinear branch: c1 = c6 = 0
                cs = [UT4Element(p, (0,) + c.e[1:5] + (0,)) for c in cs]
            elif mode == 2:  # fully linear branch: c1 = c4 = c6 = 0
                cs = [UT4Element(p, (0, c.e[1], c.e[2], 0, c.e[4], 0))
                      for c in cs]
            elif mode == 3:  # linear-system branch: c4 = 0
                cs = [UT4Element(p, c.e[:3] + (0,) + c.e[4:]) for c in cs]
            eq = SphericalEquation(spec, cs)
            sol = solve_ut4(eq)
            if sol is None:
                neg += 1
            else:
                assert verify(eq, sol)
                pos += 1
        assert pos > 0 and neg > 0


def test_ut4_with_rhs():
    r = random.Random(7)
    spec = GroupSpec("ut4p", p=3)
    for _ in range(300):
        k = r.randrange(1, 5)
        cs = [rand_ut4(r, 3) for _ in range(k)]
        rhs = rand_ut4(r, 3)
        eq = SphericalEquation(spec, cs, rhs)
        sol = solve_ut4(eq)
        assert (sol is not None) == decide_cayley(eq)
        if sol is not None:
            assert verify(eq, sol)
