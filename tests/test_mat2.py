import itertools
import random

import pytest

from spherical.core import (GroupSpec, SphericalEquation, decide_cayley,
                            solve_brute, verify)
from spherical.mat2 import (Mat2, SCALAR, TYPE1, TYPE2, TYPE3, classify,
                            discriminant, conjugate_check, conjugator,
                            canonicalize, trace_reachable, trace_target,
                            type3_type3_solve, decide_tl2, solve_tl2,
                            decide_gl2, solve_gl2)
from spherical.numtheory import legendre


def rand_inv(p, r):
    while True:
        m = Mat2(p, r.randrange(p), r.randrange(p), r.randrange(p),
                 r.randrange(p))
        if m.det() != 0:
            return m


def test_classify_examples():
    assert classify(Mat2(5, 2, 0, 0, 2)) == SCALAR
    assert classify(Mat2(5, 1, 1, 0, 1)) == TYPE3
    assert classify(Mat2(5, 0, 2, 1, 0)) == TYPE2
    assert classify(Mat2(5, 2, 0, 0, 3)) == TYPE1
    with pytest.raises(ValueError, match="singular matrix"):
        classify(Mat2(5, 1, 1, 1, 1))


def test_classify_conjugation_invariant():
    r = random.Random(0)
    for p in (5, 7, 101):
        for _ in range(500):
            a = rand_inv(p, r)
            z = rand_inv(p, r)
            assert classify(a) == classify(a.conj_by(z))


def test_conjugate_check_examples():
    a = Mat2(5, 1, 2, 3, 4)
    assert conjugate_check(a, a)
    assert not conjugate_check(Mat2(5, 1, 1, 0, 1), Mat2(5, 1, 0, 0, 1))
    assert conjugate_check(Mat2(5, 2, 0, 0, 3), Mat2(5, 3, 0, 0, 2))


def test_conjugator_verifies():
    r = random.Random(1)
    for p in (3, 5, 7, 101, 1009):
        for _ in range(200):
            a = rand_inv(p, r)
            z = rand_inv(p, r)
            b = z * a * z.inverse()
            w = conjugator(a, b)
            assert w.inverse() * b * w == a
    with pytest.raises(ValueError, match="are not conjugate"):
        conjugator(Mat2(5, 1, 1, 0, 1), Mat2(5, 1, 0, 0, 1))


def test_canonicalize():
    r = random.Random(2)
    for p in (5, 7, 101):
        for _ in range(300):
            a = rand_inv(p, r)
            if a.is_scalar():
                continue
            j, q = canonicalize(a)
            assert q.inverse() * a * q == j
            t = classify(a)
            if t == TYPE1:
                assert j.b == 0 and j.c == 0
            elif t == TYPE2:
                assert j.c == 1
            else:
                assert j.b == 1 and j.c == 0 and j.a == j.d


def test_trace_target_exhaustive_small():
    p = 5
    spec = GroupSpec("gl2p", p=p)
    els = spec.elements()
    r = random.Random(3)
    for _ in range(40):
        a, b = rand_inv(p, r), rand_inv(p, r)
        if a.is_scalar() or b.is_scalar():
            continue
        true_set = {(a * z.inverse() * b * z).trace() for z in els}
        for k in range(p):
            assert trace_reachable(a, b, k) == (k in true_set)
            z = trace_target(a, b, k)
            assert (z is not None) == (k in true_set)
            if z is not None:
                assert (a * b.conj_by(z)).trace() == k


def test_trace_target_type3_excluded_point():
    # B type3 with s=1; A with nonresidue discriminant mod 7
    b = Mat2(7, 1, 1, 0, 1)
    for a in (Mat2(7, 2, 1, 3, 3), Mat2(7, 0, 1, 3, 0), Mat2(7, 1, 3, 1, 2)):
        if legendre(discriminant(a), 7) != -1:
            continue
        excluded = a.trace() % 7  # s * tr(A) with s = 1
        assert trace_target(a, b, excluded) is None
        for k in range(7):
            if k != excluded:
                z = trace_target(a, b, k)
                assert (a * b.conj_by(z)).trace() == k


def test_trace_target_scalar_rejected():
    with pytest.raises(ValueError, match="trace target needs non-scalar"):
        trace_target(Mat2(5, 2, 0, 0, 2), Mat2(5, 1, 1, 0, 1), 0)


def test_type3_type3_solve_examples():
    for a, s, sgn, p in ((1, 1, -1, 5), (1, 1, 1, 5), (2, 3, -1, 7),
                         (4, 2, 1, 13), (5, 5, -1, 101)):
        z2, z3 = type3_type3_solve(a, s, sgn, p)
        lhs = Mat2(p, a, 1, 0, a) * Mat2(p, s, 1, 0, s).conj_by(z2)
        e = sgn * a * s % p
        assert lhs == Mat2(p, e, 1, 0, e).conj_by(z3)


def test_decide_tl2_examples():
    spec = GroupSpec("tl2p", p=5)
    c1 = Mat2(5, 2, 1, 0, 2)
    c2 = Mat2(5, 3, 0, 0, 3)
    assert not decide_tl2(SphericalEquation(spec, [c1, c2]))
    assert decide_tl2(SphericalEquation(spec, [Mat2(5, 2, 0, 0, 2),
                                               Mat2(5, 3, 0, 0, 3)]))
    assert decide_tl2(SphericalEquation(spec, [Mat2(5, 2, 1, 0, 3),
                                               Mat2(5, 3, 0, 0, 2)]))
    with pytest.raises(ValueError, match="is not upper triangular"):
        decide_tl2(SphericalEquation(GroupSpec("gl2p", p=5),
                                     [Mat2(5, 0, 1, 1, 0)]))


def test_tl2_matches_oracle_exhaustive():
    for p in (3, 5):
        spec = GroupSpec("tl2p", p=p)
        els = spec.elements()
        for k in (1, 2):
            for cs in itertools.product(els, repeat=k):
                eq = SphericalEquation(spec, list(cs))
                got = decide_tl2(eq)
                assert got == decide_cayley(eq), (p, cs)
                if got:
                    assert verify(eq, solve_tl2(eq))


def test_tl2_two_nonzero_b_case():
    r = random.Random(4)
    for p in (7, 101):
        spec = GroupSpec("tl2p", p=p)
        for _ in range(300):
            k = r.randrange(2, 6)
            # same diagonal everywhere, products 1, several nonzero b
            diag = [r.randrange(1, p) for _ in range(k - 1)]
            last = pow(1, 1, p)
            inv = 1
            for x in diag:
                inv = inv * pow(x, p - 2, p) % p
            diag.append(inv)
            cs = [Mat2(p, x, r.randrange(p), 0, x) for x in diag]
            eq = SphericalEquation(spec, cs)
            nonzero = sum(1 for c in cs if c.b)
            want = nonzero != 1
            assert decide_tl2(eq) == want
            if want:
                assert verify(eq, solve_tl2(eq))


def test_gl2_examples():
    spec = GroupSpec("gl2p", p=7)
    c = Mat2(7, 1, 2, 3, 4)
    eq = SphericalEquation(spec, [c, c.inverse()])
    assert decide_gl2(eq)
    assert verify(eq, solve_gl2(eq))
    assert not decide_gl2(SphericalEquation(spec, [c]))


def test_gl2_matches_oracle_gl23_sample():
    r = random.Random(5)
    spec = GroupSpec("gl2p", p=3)
    els = spec.elements()
    for _ in range(500):
        k = r.randrange(1, 4)
        cs = [els[r.randrange(48)] for _ in range(k)]
        eq = SphericalEquation(spec, cs)
        got = decide_gl2(eq)
        assert got == decide_cayley(eq), cs
        if got:
            assert verify(eq, solve_gl2(eq))


def test_gl2_matches_oracle_gl25_random():
    r = random.Random(6)
    spec = GroupSpec("gl2p", p=5)
    els = spec.elements()
    for _ in range(400):
        k = r.randrange(1, 4)
        cs = [els[r.randrange(len(els))] for _ in range(k)]
        eq = SphericalEquation(spec, cs)
        got = decide_gl2(eq)
        assert got == decide_cayley(eq), cs
        if got:
            assert verify(eq, solve_gl2(eq))


def test_gl2_long_random_solves():
    r = random.Random(7)
    for p in (5, 7, 101, 1009):
        spec = GroupSpec("gl2p", p=p)
        for k in (2, 3, 4, 6, 8):
            for _ in range(10):
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
                    assert verify(eq, solve_gl2(eq))


def test_sl2_routed_like_gl2():
    spec = GroupSpec("sl2p", p=7)
    c = Mat2(7, 1, 1, 0, 1)
    eq = SphericalEquation(spec, [c, c.inverse()])
    assert decide_gl2(eq)
    assert verify(eq, solve_gl2(eq))


def test_gl2_with_rhs():
    r = random.Random(8)
    spec = GroupSpec("gl2p", p=11)
    for _ in range(200):
        k = r.randrange(1, 5)
        cs = [rand_inv(11, r) for _ in range(k)]
        rhs = rand_inv(11, r)
        eq = SphericalEquation(spec, cs, rhs)
        if decide_gl2(eq):
            assert verify(eq, solve_gl2(eq))


def class_reps(p):
    """The canonical representative of every non-scalar GL(2,p) class:
    one for each (trace, det), read off the companion matrix."""
    return [canonicalize(Mat2(p, 0, -d, 1, t))[0]
            for t in range(p) for d in range(1, p)]


@pytest.mark.parametrize("p", [5, 7])
def test_gl2_decide_matches_oracle_on_class_tuples(p):
    # every ordered triple and every 4-multiset of class representatives,
    # scalars included
    spec = GroupSpec("gl2p", p=p)
    reps = class_reps(p) + [Mat2(p, lam, 0, 0, lam) for lam in range(1, p)]
    assert len(reps) == p * p - 1
    for cs in itertools.chain(itertools.product(reps, repeat=3),
                              itertools.combinations_with_replacement(reps, 4)):
        eq = SphericalEquation(spec, list(cs))
        assert decide_gl2(eq) == decide_cayley(eq), cs


def test_gl2_fold_gl25_exhaustive():
    # every ordered 4-tuple of non-scalar class representatives with det
    # product 1 (20^4 / 4 of them); k = 4 is always solvable, and where the
    # fold with no conjugation has a scalar head or an unsolvable triple,
    # the solver must find a head trace t instead
    p = 5
    spec = GroupSpec("gl2p", p=p)
    reps = class_reps(p)
    chosen = total = 0
    for c1, c2, c3 in itertools.product(reps, repeat=3):
        head = c1 * c2
        det = head.det() * c3.det() % p
        for c4 in reps:
            if det * c4.det() % p != 1:
                continue
            eq = SphericalEquation(spec, [c1, c2, c3, c4])
            assert decide_gl2(eq)
            assert verify(eq, solve_gl2(eq)), (c1, c2, c3, c4)
            total += 1
            chosen += head.is_scalar() or not decide_gl2(
                SphericalEquation(spec, [head, c3, c4]))
    assert total == 40000 and chosen > 0


def test_gl2_fold_past_a_scalar_prefix_gl27():
    # (C, lam C^-1, X, Y): the first fold with no conjugation is lam I, for
    # every non-scalar class C and scalar lam; X and Y run over one
    # representative per (det, type), type-3 and type-2 among them.  With
    # the det-1 constant E between them, that fold is not the last one
    p = 7
    spec = GroupSpec("gl2p", p=p)
    reps = class_reps(p)
    by_det_type = {}
    for rep in reps:
        by_det_type.setdefault((rep.det(), classify(rep)), rep)
    for c in reps:
        for lam in range(1, p):
            c2 = Mat2(p, lam, 0, 0, lam) * c.inverse()
            for x in by_det_type.values():
                need = pow(lam * lam * x.det(), -1, p)
                for y in (by_det_type.get((need, kind))
                          for kind in (TYPE1, TYPE2, TYPE3)):
                    if y is None:
                        continue
                    for mid in ([], [Mat2(p, 1, 1, 0, 1)]):
                        cs = [c, c2, *mid, x, y]
                        eq = SphericalEquation(spec, cs)
                        assert verify(eq, solve_gl2(eq)), cs
