import itertools
import random

from spherical.core import (GroupSpec, SphericalEquation, decide_cayley,
                            solve_brute, verify)
from spherical.highdim import (HeisenbergElement, UT4Element,
                               decide_heisenberg,
                               solve_heisenberg, decide_ut4, solve_ut4,
                               linsolve_modp, solve_bilinear)


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


def test_linsolve_modp():
    sol = linsolve_modp([{0: 1, 1: 1}, {0: 1, 1: -1}], [0, 2], 2, 5)
    x, y = sol
    assert (x + y) % 5 == 0 and (x - y) % 5 == 2
    assert linsolve_modp([{}], [1], 2, 5) is None
    assert linsolve_modp([], [], 0, 5) == []


def test_solve_bilinear_examples():
    assert solve_bilinear([[0]], [1], [0], 3, 5) == ([2], [0])
    xs, ys = solve_bilinear([[1]], [0], [0], -1, 5)
    assert (xs[0] * ys[0] - 1) % 5 == 0
    assert solve_bilinear([[0]], [0], [0], 0, 5) == ([0], [0])
    assert solve_bilinear([[0]], [0], [0], 2, 5) is None
    # random instances verify by substitution
    r = random.Random(4)
    for p in (5, 101):
        for _ in range(300):
            n = r.randrange(1, 5)
            alpha = [[r.randrange(p) for _ in range(n)] for _ in range(n)]
            beta = [r.randrange(p) for _ in range(n)]
            delta = [r.randrange(p) for _ in range(n)]
            zeta = r.randrange(p)
            root = solve_bilinear(alpha, beta, delta, zeta, p)
            if root is None:
                assert all(x == 0 for row in alpha for x in row)
                assert all(x % p == 0 for x in beta + delta)
                assert zeta % p != 0
                continue
            xs, ys = root
            val = sum(alpha[i][j] * xs[i] * ys[j]
                      for i in range(n) for j in range(n))
            val += sum(beta[i] * xs[i] + delta[i] * ys[i] for i in range(n))
            assert (val + zeta) % p == 0


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
