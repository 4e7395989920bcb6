import random

import pytest
from hypothesis import given, settings, strategies as st

from spherical import numtheory as nt

PRIMES = [3, 5, 7, 13, 101, 1009, 10**9 + 7, (1 << 61) - 1]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert nt.is_prime(n) == (n in primes)
    assert nt.is_prime((1 << 61) - 1)
    assert not nt.is_prime((1 << 61) - 2)
    assert not nt.is_prime(1)


def _is_prime_12_bases(n):
    """Miller-Rabin with the first twelve primes as bases, exact below
    3.18 * 10^23 (Sorenson and Webster 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_a_sieve():
    limit = 2 * 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if nt.is_prime(n)] == [
        n for n in range(limit) if sieve[n]]


def test_is_prime_matches_twelve_bases():
    r = random.Random(12)
    for _ in range(10**5):
        n = r.getrandbits(r.randint(10, 64)) | 1
        assert nt.is_prime(n) == _is_prime_12_bases(n), n


@pytest.mark.parametrize("n", [3215031751, 4759123141, 3474749660383,
                               3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    # strong pseudoprimes: 3215031751 to bases 2, 3, 5 and 7, 4759123141 to
    # 2, 7 and 61 (it is the three-base bound), and the others to the first
    # six and the first nine primes
    assert not nt.is_prime(n)


def test_legendre_examples():
    assert nt.legendre(4, 7) == 1
    assert nt.legendre(0, 7) == 0
    assert nt.legendre(3, 7) == -1


def test_legendre_matches_enumeration():
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert nt.legendre(a, p) == want


def test_sqrt_mod_examples():
    assert nt.sqrt_mod(2, 7) in (3, 4)
    assert nt.sqrt_mod(0, 13) == 0
    assert nt.sqrt_mod(4, 101) in (2, 99)
    with pytest.raises(ValueError, match="is not a square mod"):
        nt.sqrt_mod(3, 7)


def test_sqrt_mod_random():
    rng = nt.Rng(1)
    for p in PRIMES:
        for _ in range(200):
            x = 1 + rng.residue(p - 1)
            c = x * x % p
            r = nt.sqrt_mod(c, p)
            assert r * r % p == c


def test_solve_weighted_trace_examples():
    # t and b must be nonresidues
    for k, t, b, p in ((6, 3, 3, 7), (0, 3, 3, 7), (5, 5, 6, 13)):
        u, x = nt.solve_weighted_trace(k, t, b, p)
        inv = pow(u, -1, p)
        assert (u * b + inv * t - inv * x * x) % p == k % p
    with pytest.raises(ValueError, match="must be quadratic nonresidues"):
        nt.solve_weighted_trace(1, 4, 3, 7)  # 4 is a residue


def test_randomized_solvers_random_inputs():
    rng = nt.Rng(2)
    for p in PRIMES:
        if p < 5:
            continue
        nonres = nt.smallest_nonresidue(p)
        for _ in range(100):
            # scale the fixed nonresidue by random squares for variety
            t = nonres * pow(1 + rng.residue(p - 1), 2, p) % p
            b = nonres * pow(1 + rng.residue(p - 1), 2, p) % p
            kk = rng.residue(p)
            u, xx = nt.solve_weighted_trace(kk, t, b, p)
            inv = pow(u, -1, p)
            assert u and (u * b + inv * t - inv * xx * xx) % p == kk


def test_rng_determinism():
    for seed in (0, 1, 12345):
        a = nt.Rng(seed)
        b = nt.Rng(seed)
        seq_a = [nt.sqrt_mod(x * x % 1009, 1009) for x in range(1, 50)]
        seq_b = [nt.sqrt_mod(x * x % 1009, 1009) for x in range(1, 50)]
        assert seq_a == seq_b
        assert ([a.residue(99) for _ in range(20)]
                == [b.residue(99) for _ in range(20)])


@given(st.integers(min_value=0, max_value=100), st.sampled_from([3, 5, 7, 101]))
@settings(max_examples=200)
def test_legendre_multiplicative(a, p):
    b = (a * 37 + 11) % p
    assert nt.legendre(a * b % p, p) == nt.legendre(a, p) * nt.legendre(b, p) \
        or (a % p == 0 or b % p == 0)
