"""Exact arithmetic mod a prime and the randomized square-root style solvers.

Everything works on plain ints reduced into [0, p-1].  All randomness goes
through an explicit Rng so that runs are reproducible from a seed.
"""

import random


class RetryExhausted(RuntimeError):
    pass


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


def _retry_budget(p: int) -> int:
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


def solve_bivariate(k: int, m: int, p: int, rng: Rng) -> tuple[int, int]:
    """Find (x, y) with x^2 - k*y^2 = m mod p by sampling y until m + k*y^2
    is a square."""
    if p == 2:
        raise ValueError("p must be odd")
    k %= p
    m %= p
    if k == 0 or m == 0:
        raise ValueError("k and m must be nonzero mod p")
    if legendre(m, p) == 1:
        return sqrt_mod(m, p), 0
    for _ in range(_retry_budget(p)):
        y = rng.residue(p)
        rhs = (m + k * y * y) % p
        if legendre(rhs, p) == 1 or rhs == 0:
            return sqrt_mod(rhs, p), y
    raise RetryExhausted("solve_bivariate exceeded the retry budget")


def solve_weighted_trace(k: int, t: int, b: int, p: int, rng: Rng) -> tuple[int, int]:
    """Find u != 0 and x with u*b + (t - x^2)/u = k mod p, for t, b nonsquares.

    Sample x until the discriminant k^2 - 4b(t - x^2) is a square, then read u
    off the quadratic u^2*b - k*u + (t - x^2) = 0.  A zero root is rejected,
    which cannot strand us: u = 0 forces t = x^2, impossible for nonsquare t.
    """
    if p < 3:
        raise ValueError("p must be an odd prime")
    k %= p
    t %= p
    b %= p
    if legendre(t, p) != -1 or legendre(b, p) != -1:
        raise ValueError("t and b must be quadratic nonresidues")
    inv2b = pow(2 * b, p - 2, p)
    if (k * k - 4 * b * t) % p == 0:
        # the discriminant is 4b*x^2, a nonsquare for every x != 0, so x = 0
        # is the only choice; the double root k/(2b) is nonzero since t is
        return k * inv2b % p, 0
    for _ in range(_retry_budget(p)):
        x = rng.residue(p)
        disc = (k * k - 4 * b * (t - x * x)) % p
        if legendre(disc, p) == -1:
            continue
        r = sqrt_mod(disc, p)
        for u in ((k + r) * inv2b % p, (k - r) * inv2b % p):
            if u != 0:
                return u, x
    raise RetryExhausted("solve_weighted_trace exceeded the retry budget")
