import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spherical.core import GroupSpec, Solution, SphericalEquation, \
    decide_cayley, solve_brute, verify
from spherical.perm import (Permutation, cycle_decompose, parity, sign,
                            cycle_type, conjugate_check, conjugator,
                            reduce_3partition, reduce_3partition_an,
                            certificate_to_solution)
from spherical.core import InputError


def from_cycle(points, n):
    """The cycle (points[0] points[1] ...) in S_n."""
    if len(set(points)) < len(points) or any(
            p < 1 or p > n for p in points):
        raise ValueError(f"{points} is not a cycle on 1..{n}")
    images = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b
    return Permutation(images)


def rand_perm(r, n):
    images = list(range(1, n + 1))
    r.shuffle(images)
    return Permutation(images)


def test_cycle_decompose_examples():
    assert cycle_decompose(Permutation.identity(5)) == []
    assert cycle_decompose(Permutation((2, 3, 1, 5, 4))) == [(1, 2, 3), (4, 5)]
    assert cycle_decompose(Permutation((2, 1, 3, 4))) == [(1, 2)]


def test_sign_examples():
    assert sign(Permutation.identity(4)) == 1
    assert sign(Permutation((2, 1, 3, 4))) == -1
    assert sign(Permutation((2, 3, 1, 5, 4))) == -1


def _cycle_parity(s):
    even = sum(1 for c in cycle_decompose(s) if len(c) % 2 == 0)
    return -1 if even % 2 else 1


def _inversions(images):
    """The number of pairs i < j with images[i] > images[j], by a Fenwick
    tree over the values seen so far."""
    tree = [0] * (len(images) + 1)
    count = 0
    for seen, v in enumerate(images):
        i = v
        while i > 0:  # values <= v seen so far
            count -= tree[i]
            i -= i & -i
        count += seen
        i = v
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return count


def test_sign_matches_cycle_parity():
    perms = [Permutation(images) for n in range(1, 7)
             for images in itertools.permutations(range(1, n + 1))]
    r = random.Random(0)
    perms += [rand_perm(r, r.randrange(1, 1001)) for _ in range(200)]
    for s in perms:
        assert sign(s) == _cycle_parity(s)
        # the walk's parity is that of the inversion count
        assert parity(s.images) is (_inversions(s.images) % 2 == 1)


def test_conjugate_check_examples():
    assert conjugate_check(Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
    assert not conjugate_check(Permutation((2, 3, 1)), Permutation((2, 1, 3)))
    s = from_cycle((1, 2), 4) * from_cycle((3, 4), 4)
    t = from_cycle((1, 3), 4) * from_cycle((2, 4), 4)
    assert conjugate_check(s, t)
    with pytest.raises(ValueError, match="degrees differ"):
        conjugate_check(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_conjugator_examples():
    s = Permutation((2, 1, 3, 4))
    assert conjugator(s, s) == Permutation.identity(4)
    t = Permutation((1, 2, 4, 3))
    x = conjugator(s, t)
    assert x.inverse() * s * x == t
    a = from_cycle((1, 2, 3), 4)
    b = from_cycle((2, 3, 4), 4)
    x = conjugator(a, b)
    assert x.inverse() * a * x == b
    with pytest.raises(ValueError, match="are not conjugate"):
        conjugator(Permutation((2, 3, 1)), Permutation((2, 1, 3)))


def test_conjugator_random():
    r = random.Random(0)
    for _ in range(500):
        n = r.randrange(2, 10)
        s = rand_perm(r, n)
        z = rand_perm(r, n)
        t = z.inverse() * s * z
        x = conjugator(s, t)
        assert x.inverse() * s * x == t


def test_mov_bound_property():
    def mov(s):
        return {i for i in range(1, s.n + 1) if s(i) != i}

    r = random.Random(1)
    for _ in range(10**4):
        n = r.randrange(2, 13)
        s, t = rand_perm(r, n), rand_perm(r, n)
        smov = len(mov(s)) + len(mov(t))
        assert len(mov(s * t)) <= smov
        if mov(s) & mov(t):
            pass  # intersection permits but does not force strictness
        else:
            assert len(mov(s * t)) == smov


def test_sign_homomorphism():
    r = random.Random(2)
    for _ in range(2000):
        n = r.randrange(1, 10)
        s, t = rand_perm(r, n), rand_perm(r, n)
        assert sign(s * t) == sign(s) * sign(t)


def test_reduce_3partition_example():
    eq = reduce_3partition([2, 2, 2])
    assert eq.group.family == "symmetric" and eq.group.n == 7
    c = from_cycle((1, 2, 3), 7)
    assert eq.constants == [c, c, c]
    assert eq.rhs == from_cycle(tuple(range(1, 8)), 7)


def test_reduce_3partition_validation():
    with pytest.raises(InputError, match="need 3k positive integers"):
        reduce_3partition([1, 2])  # not 3k values
    with pytest.raises(InputError, match="outside"):
        reduce_3partition([1, 2, 3])  # 1 <= L/4 violated
    with pytest.raises(InputError, match="sum must be divisible by k"):
        reduce_3partition([2, 2, 2, 2, 2, 2, 2, 2, 1])  # sum not divisible


def test_reduce_3partition_an_example():
    eq = reduce_3partition_an([2, 2, 2])
    assert eq.group.family == "alternating" and eq.group.n == 15
    assert all(sign(c) == 1 for c in eq.constants)
    assert cycle_type(eq.constants[0]) == (5,)
    assert sign(eq.rhs) == 1


def test_certificate_roundtrip_sn():
    eq = reduce_3partition([2, 2, 2])
    sol = certificate_to_solution([2, 2, 2], [(0, 1, 2)])
    assert verify(eq, sol)
    with pytest.raises(ValueError,
                       match="certificate must partition the indices"):
        certificate_to_solution([2, 2, 2], [(0, 0, 1)])


def test_certificate_roundtrip_k2():
    # k=2: values (3,3,3,3,3,3) -> L=9, but 3 = L/3 violates L/4 < a < L/2?
    # 9/4 = 2.25 < 3 < 4.5 fine
    a = [3, 3, 3, 3, 3, 3]
    eq = reduce_3partition(a)
    assert eq.group.n == 2 * 10
    for cert in ([(0, 1, 2), (3, 4, 5)], [(5, 1, 3), (0, 2, 4)],
                 [(3, 4, 5), (0, 1, 2)]):
        sol = certificate_to_solution(a, cert)
        assert verify(eq, sol)


def test_certificate_roundtrip_an():
    a = [2, 2, 2]
    eq = reduce_3partition_an(a)
    sol = certificate_to_solution(a, [(0, 1, 2)], alternating=True)
    assert verify(eq, sol)
    assert all(sign(z) == 1 for z in sol.conjugators)


def test_oracle_agreement_small():
    # k=1 instances are positive by definition; the only degree within the
    # oracle's reach is n=7
    eq = reduce_3partition([2, 2, 2])
    sol = solve_brute(eq)
    assert sol is not None and verify(eq, sol)


def test_unbalanced_triple_rejected():
    a = [4, 4, 3, 3, 3, 3]  # L = 10; triples must be {4,3,3}
    with pytest.raises(ValueError, match="does not sum to L"):
        certificate_to_solution(a, [(0, 1, 2), (3, 4, 5)])
    eq = reduce_3partition(a)
    sol = certificate_to_solution(a, [(0, 2, 3), (1, 4, 5)])
    assert verify(eq, sol)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=300, deadline=None)
def test_perm_group_laws(n, data):
    imgs = data.draw(st.permutations(list(range(1, n + 1))))
    imgs2 = data.draw(st.permutations(list(range(1, n + 1))))
    s, t = Permutation(imgs), Permutation(imgs2)
    assert (s * t).inverse() == t.inverse() * s.inverse()
    assert s * Permutation.identity(n) == s
    assert s * s.inverse() == Permutation.identity(n)
    # conjugation preserves cycle type
    assert cycle_type(t.inverse() * s * t) == cycle_type(s)


def _checked_product(s, t):
    return Permutation([s.images[j - 1] for j in t.images])


def _checked_inverse(s):
    inv = [0] * s.n
    for i, j in enumerate(s.images, start=1):
        inv[j - 1] = i
    return Permutation(inv)


def _reference_cycles(s):
    """cycle_decompose by calling s point by point."""
    seen = set()
    cycles = []
    for start in range(1, s.n + 1):
        if start in seen or s(start) == start:
            continue
        cyc = []
        i = start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = s(i)
        cycles.append(tuple(cyc))
    return cycles


def _reference_conjugator(s, t):
    """conjugator by sorted cycles, then sorted fixed-point sets."""
    cs = sorted(_reference_cycles(s), key=len)
    ct = sorted(_reference_cycles(t), key=len)
    images = [0] * s.n
    for a, b in zip(ct, cs):
        for pa, pb in zip(a, b):
            images[pa - 1] = pb
    points = set(range(1, s.n + 1))
    fixed_t = sorted(points - {p for c in ct for p in c})
    fixed_s = sorted(points - {p for c in cs for p in c})
    for pa, pb in zip(fixed_t, fixed_s):
        images[pa - 1] = pb
    return Permutation(images)


def _pairs():
    """Every pair in S_1..S_5, then 200 random pairs of degree up to 1000."""
    for n in range(1, 6):
        perms = [Permutation(p)
                 for p in itertools.permutations(range(1, n + 1))]
        yield from itertools.product(perms, repeat=2)
    r = random.Random(3)
    for _ in range(200):
        n = r.randrange(1, 1001)
        yield rand_perm(r, n), rand_perm(r, n)


def test_unchecked_products_match_the_checked_constructor():
    for s, t in _pairs():
        st = s * t
        assert type(st.images) is tuple and st == _checked_product(s, t)
        inv = s.inverse()
        assert type(inv.images) is tuple and inv == _checked_inverse(s)
        assert s * inv == Permutation(range(1, s.n + 1))
        assert Permutation.identity(s.n) == Permutation(range(1, s.n + 1))


def test_cycles_and_conjugator_match_the_reference():
    for s, z in _pairs():
        assert cycle_decompose(s) == _reference_cycles(s)
        t = z.inverse() * s * z
        x = conjugator(s, t)
        assert x == _reference_conjugator(s, t)
        assert x.inverse() * s * x == t


def test_enumerated_permutations_match_the_checked_constructor():
    for n in range(1, 6):
        want = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        assert GroupSpec("symmetric", n=n).elements() == want
        assert GroupSpec("alternating", n=n).elements() == [
            s for s in want if sign(s) == 1]


def test_from_cycle():
    assert from_cycle((2, 4, 3), 5) == Permutation((1, 4, 2, 3, 5))
    assert from_cycle((), 3) == Permutation.identity(3)
    for points in ((1, 1), (2, 3, 2), (0, 1), (3, 4)):
        with pytest.raises(ValueError, match="is not a cycle on 1..3"):
            from_cycle(points, 3)


def test_non_bijections_raise_instead_of_hanging():
    # walks that do not stop at a point already seen loop forever on a map
    # that is not a bijection, so a regression must time out in a
    # subprocess, not hang the test run
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = """
import itertools
from spherical.perm import Permutation, cycle_decompose, parity, sign
wrong = 0
for n in range(5):
    for images in itertools.product(range(-2 * n - 3, 2 * n + 4), repeat=n):
        bijection = sorted(images) == list(range(1, n + 1))
        wrong += (parity(images) is None) == bijection
        wrong += (parity(list(images)) is None) == bijection
wrong += parity([2, 10**30, 1]) is not None
wrong += parity([2, -10**30, 1]) is not None
print(wrong)
for images in ([1, 1, 3], [2, 3, 3], [0, 1], [2, 3, 4]):
    x = Permutation(images)
    print(repr(x))
    for walk in (cycle_decompose, sign):
        try:
            walk(x)
        except ValueError as exc:
            print(exc)
        else:
            print("no error")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=10, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "0"
    assert len(lines) == 13 and "no error" not in lines
    assert lines[1:4] == ["Permutation([1, 1, 3])"] + [
        "images [1, 1, 3] are not a bijection on 1..3"] * 2


def _yes_instance(r, k, ell):
    """3k values in (L/4, L/2) with a planted certificate; L >= 9, so that
    three values in that range can sum to L."""
    lo, hi = ell // 4 + 1, (ell - 1) // 2
    while True:
        a, cert = [], []
        for _ in range(k):
            x, y = r.randint(lo, hi), r.randint(lo, hi)
            if not lo <= ell - x - y <= hi:
                break
            cert.append((len(a), len(a) + 1, len(a) + 2))
            a += [x, y, ell - x - y]
        if len(a) == 3 * k:
            order = list(range(3 * k))
            r.shuffle(order)  # a[order[j]] moves to place j
            where = {old: new for new, old in enumerate(order)}
            return ([a[i] for i in order],
                    [tuple(where[i] for i in t) for t in cert])


def _instances():
    """Seeded yes-instances; their A_n degrees k(2L+1)+2 reach 978."""
    r = random.Random(7)
    yield [2, 2, 2], [(0, 1, 2)]
    yield [3, 3, 3, 3, 3, 3], [(5, 1, 3), (0, 2, 4)]
    for _ in range(40):
        yield _yes_instance(r, r.randint(1, 8), r.randint(9, 60))
    yield _yes_instance(r, 8, 60)


def _generic_certificate(a, cert, alternating):
    """certificate_to_solution by from_cycle, conjugator and sign."""
    a = [2 * x if alternating else x for x in a]
    k = len(a) // 3
    ell = sum(a) // k
    n = k * (ell + 1) + (2 if alternating else 0)
    zs = [None] * len(a)
    for i, t in enumerate(sorted(t) for t in cert):
        start = i * (ell + 1) + 1
        for idx in t:
            c = from_cycle(tuple(range(1, a[idx] + 2)), n)
            seg = tuple(range(start, start + a[idx] + 1))
            z = conjugator(c, from_cycle(seg, n))
            if alternating and sign(z) == -1:
                z = z * from_cycle((n - 1, n), n)
            zs[idx] = z
            start += a[idx]
    return zs


def _generic_reduction(a, alternating):
    """reduce_3partition(_an) by from_cycle constants and a product of
    block cycles."""
    a = [2 * x if alternating else x for x in a]
    k = len(a) // 3
    ell = sum(a) // k
    n = k * (ell + 1) + (2 if alternating else 0)
    constants = [from_cycle(tuple(range(1, x + 2)), n) for x in a]
    rhs = Permutation.identity(n)
    for i in range(k):
        off = i * (ell + 1)
        rhs = rhs * from_cycle(
            tuple(range(off + 1, off + ell + 2)), n)
    return n, constants, rhs


def test_closed_forms_match_the_generic_construction():
    degrees = set()
    for a, cert in _instances():
        for alternating, reduce in ((False, reduce_3partition),
                                    (True, reduce_3partition_an)):
            eq = reduce(a)
            n, constants, rhs = _generic_reduction(a, alternating)
            assert eq.group.n == n and eq.constants == constants
            assert eq.rhs == rhs
            zs = certificate_to_solution(a, cert, alternating).conjugators
            assert zs == _generic_certificate(a, cert, alternating)
            assert all(type(z.images) is tuple for z in zs)
            if alternating:
                assert all(sign(z) == 1 for z in zs)
                degrees.add(n)
            assert verify(eq, Solution(zs))
    assert max(degrees) == 8 * 121 + 2
