"""Exact arithmetic mod a prime: primality, Legendre symbols, square roots,
and the weighted-trace solver behind GL(2,p)'s type-2 trace targets.

Everything works on plain ints reduced into [0, p-1], and nothing draws
random numbers.  The weighted-trace scan has a budget, which a point count
shows it cannot exhaust for p < 1409; past it, it raises TooLargeError, a
capacity error like every other budget's.  The seeded random source below
is kept for callers outside the package that still build one.
"""

import random

from .core import TooLargeError


class Rng:
    """Seeded random source; identical seeds give identical draw sequences."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._r = random.Random(seed)

    def residue(self, p: int) -> int:
        return self._r.randrange(p)


# Bases whose strong-probable-prime tests together are exact: below
# 4 759 123 141 (Jaeschke 1993), and below 2^64 (Sinclair 2011)
_JAESCHKE_BASES = (2, 7, 61)
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _JAESCHKE_BASES if n < 4_759_123_141 else _SINCLAIR_BASES:
        a %= n
        if a == 0:  # n divides the base: the test says nothing
            continue
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


def _scan_budget(p: int) -> int:
    return 64 * max(1, p.bit_length())


def legendre(a: int, p: int) -> int:
    """Euler criterion: 1 for a nonzero square, -1 for a nonsquare, 0 for 0."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return 1
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for a in range(2, p):
        if legendre(a, p) == -1:
            return a
    raise ValueError(f"no quadratic nonresidue mod {p}")


def sqrt_mod(c: int, p: int) -> int:
    """Tonelli-Shanks; returns x with x^2 = c mod p, raises if c is a nonsquare."""
    c %= p
    if c == 0:
        return 0
    if p == 2:
        return c
    if legendre(c, p) != 1:
        raise ValueError(f"{c} is not a square mod {p}")
    if p % 4 == 3:
        return pow(c, (p + 1) // 4, p)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m = s
    cc = pow(z, q, p)
    t = pow(c, q, p)
    r = pow(c, (q + 1) // 2, p)
    while t != 1:
        i = 0
        x = t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(cc, 1 << (m - i - 1), p)
        r = r * b % p
        cc = b * b % p
        t = t * cc % p
        m = i
    return r


def solve_weighted_trace(k: int, t: int, b: int, p: int) -> tuple[int, int]:
    """Find u != 0 and x with u*b + (t - x^2)/u = k mod p, for t, b nonsquares.

    Scan x = 0, 1, ... until the discriminant k^2 - 4b(t - x^2) is a square,
    then read u off the quadratic u^2*b - k*u + (t - x^2) = 0.  Neither root
    is 0, since their product (t - x^2)/b is not: t is a nonsquare.

    The count: if k^2 = 4bt, x = 0 works.  Otherwise the conic
    y^2 = D + 4b x^2, with D = k^2 - 4bt != 0 and 4b a nonsquare, has p + 1
    points, so at most (p - 1)/2 residues x fail.  The scan's budget
    64 bitlen(p) is above that for p < 1409, where it cannot run out; past
    it the scan raises TooLargeError.
    """
    if p < 3:
        raise ValueError("p must be an odd prime")
    k %= p
    t %= p
    b %= p
    if legendre(t, p) != -1 or legendre(b, p) != -1:
        raise ValueError("t and b must be quadratic nonresidues")
    inv2b = pow(2 * b, p - 2, p)
    for x in range(_scan_budget(p)):
        disc = (k * k - 4 * b * (t - x * x)) % p
        if legendre(disc, p) != -1:
            return (k + sqrt_mod(disc, p)) * inv2b % p, x
    raise TooLargeError(f"weighted-trace scan: no square discriminant in "
                        f"{_scan_budget(p)} steps")
