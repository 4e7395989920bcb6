"""Symmetric and alternating groups: cycle machinery, conjugacy, and the
3-Partition reduction with its certificate-to-solution map.

Points are 1-based.  Composition applies the right factor first:
(s * t)(i) = s(t(i)), so x.inverse() * s * x relabels the cycles of s
through x^-1.
"""

import math
from operator import itemgetter

from .core import GroupSpec, InputError, SphericalEquation, Solution, int_list


class Permutation:
    """The bijection i -> images[i - 1] of 1..n; families.decode checks that
    a payload's images are one."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        if len(self.images) != len(other.images):
            raise ValueError("degrees differ")
        # itemgetter(j) gives an item, not a 1-tuple; S_0, S_1 are trivial
        if len(self.images) < 2:
            return self
        return Permutation(itemgetter(*other.images)((0,) + self.images))

    def inverse(self):
        inv = [0] * (len(self.images) + 1)
        for i, j in enumerate(self.images, 1):
            inv[j] = i
        return Permutation(inv[1:])

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        try:
            cyc = cycle_decompose(self)
        except ValueError:
            return f"Permutation({list(self.images)})"
        if not cyc:
            return f"id{self.n}"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def parity(images):
    """True when images is an odd permutation of 1..n, False when even, and
    None when it is not a bijection on 1..n.

    One walk over the cycles of length >= 2.  With every image in 1..n,
    images is a bijection iff each walk comes back to its start before it
    meets a point already seen.  A cycle of length L has sign (-1)^(L - 1),
    so the parity is that of the moved points less the cycles.
    """
    n = len(images)
    # no separate range check: seen[0] and seen[n+1:] start set, so a walk
    # stops at 0, at n+1..2n+1 and at -(n+1)..-1 (which index from the end);
    # further out, seen or the shorter succ raises IndexError
    seen = bytearray(n + 1) + b"\1" * (n + 1)
    seen[0] = 1
    succ = (0, *images)
    cycles = 0
    try:
        for start, i in enumerate(images, 1):
            if i == start or seen[start]:
                continue
            cycles += 1
            seen[start] = 1
            while i != start:
                if seen[i]:
                    return None
                seen[i] = 1
                i = succ[i]
    except IndexError:
        return None
    return (seen.count(1, 1, n + 1) - cycles) % 2 == 1


def _bijection_parity(s: Permutation):
    odd = parity(s.images)
    if odd is None:
        raise ValueError(f"images {list(s.images)} are not a bijection "
                         f"on 1..{s.n}")
    return odd


def cycle_decompose(s: Permutation):
    """Disjoint cycles of length >= 2, each starting at its minimum, sorted
    by minimum; ValueError when s's images are not a bijection."""
    _bijection_parity(s)
    images = s.images
    seen = bytearray(len(images) + 1)
    cycles = []
    for start, i in enumerate(images, 1):
        if i == start or seen[start]:
            continue
        cyc = [start]
        while i != start:
            seen[i] = 1
            cyc.append(i)
            i = images[i - 1]
        cycles.append(tuple(cyc))
    return cycles


def sign(s: Permutation) -> int:
    """(-1)^(n - number of cycles); ValueError when s's images are not a
    bijection."""
    return -1 if _bijection_parity(s) else 1


def cycle_type(s: Permutation):
    return tuple(sorted(map(len, cycle_decompose(s))))


def conjugate_check(s: Permutation, t: Permutation) -> bool:
    if s.n != t.n:
        raise ValueError("degrees differ")
    return cycle_type(s) == cycle_type(t)


def conjugator(s: Permutation, t: Permutation) -> Permutation:
    """x with x^-1 s x = t, by aligning canonical cycle decompositions."""
    if s.n != t.n:
        raise ValueError("degrees differ")
    cs = sorted(cycle_decompose(s), key=len)
    ct = sorted(cycle_decompose(t), key=len)
    if list(map(len, cs)) != list(map(len, ct)):
        raise ValueError(f"{s!r} and {t!r} are not conjugate")
    images = [0] * (s.n + 1)
    for a, b in zip(ct, cs):
        for pa, pb in zip(a, b):
            images[pa] = pb
    # the fixed points of t go onto those of s, in increasing order
    for pa, pb in zip([i for i, j in enumerate(t.images, 1) if i == j],
                      [i for i, j in enumerate(s.images, 1) if i == j]):
        images[pa] = pb
    return Permutation(images[1:])


def _check_3partition(a, alternating=False):
    """(values, k, L) for a 3-Partition instance a, its values doubled for
    the A_n variant."""
    a = [2 * x if alternating else x
         for x in int_list(a, "3-Partition field 'a'")]
    if len(a) % 3 != 0 or not a:
        raise InputError("need 3k positive integers")
    k = len(a) // 3
    total = sum(a)
    if total % k != 0:
        raise InputError("sum must be divisible by k")
    ell = total // k
    for x in a:
        if not (4 * x > ell and 4 * x < 2 * ell):
            raise InputError(f"value {x} outside (L/4, L/2) for L={ell}")
    return a, k, ell


def _cycle_constant(x, n):
    """The (x+1)-cycle (1 2 ... x+1) of S_n."""
    return Permutation([*range(2, x + 2), 1, *range(x + 2, n + 1)])


def _blocks_rhs(k, ell, n):
    """Product of k disjoint (L+1)-cycles filling the first k(L+1) points:
    i -> i + 1 there, except that each block's last point goes to its
    first."""
    m = k * (ell + 1)
    images = [*range(2, m + 2), *range(m + 1, n + 1)]
    for first in range(1, m + 1, ell + 1):
        images[first + ell - 1] = first
    return Permutation(images)


def reduce_3partition(a) -> SphericalEquation:
    """Equation over S_n, n = k(L+1): constants are (a_i+1)-cycles on the
    initial segment, rhs is a product of k disjoint (L+1)-cycles; solvable
    iff the 3-Partition instance is positive."""
    a, k, ell = _check_3partition(a)
    n = k * (ell + 1)
    spec = GroupSpec("symmetric", n=n)
    constants = [_cycle_constant(x, n) for x in a]
    return SphericalEquation(spec, constants, _blocks_rhs(k, ell, n))


def reduce_3partition_an(a) -> SphericalEquation:
    """A_n variant: values doubled so all cycles have odd length, with two
    spare fixed points (n = k(L+1) + 2)."""
    a2, k, ell = _check_3partition(a, alternating=True)
    n = k * (ell + 1) + 2
    spec = GroupSpec("alternating", n=n)
    constants = [_cycle_constant(x, n) for x in a2]
    return SphericalEquation(spec, constants, _blocks_rhs(k, ell, n))


def _segment_conjugator(x, start, n, alternating):
    """conjugator(c, t) for c = (1 ... x+1) and t = (start ... N), N =
    start + x, made even when alternating.

    It is the rotation i -> i + (x+1) of 1..N, fixing N+1..n: it sends t's
    cycle onto c's and t's fixed points, in increasing order, onto c's.  A
    rotation by r of N points has gcd(N, r) cycles, so its sign is
    (-1)^(N - gcd(N, x+1)).  When that is odd, the two spare points, which
    c fixes, are swapped: that commutes with c and flips the sign.
    """
    top = start + x
    tail = range(top + 1, n + 1)
    if alternating and (top - math.gcd(top, x + 1)) % 2:
        tail = [*range(top + 1, n - 1), n, n - 1]
    return Permutation([*range(x + 2, top + 1), *range(1, x + 2), *tail])


def certificate_to_solution(a, cert, alternating=False) -> Solution:
    """Conjugators realizing a positive 3-Partition certificate.

    cert is a list of index triples (0-based into a) partitioning 1..3k;
    triple i is sent to the i-th (L+1)-block: its three cycles are conjugated
    onto consecutive overlapping segments so their product telescopes into
    the block cycle.
    """
    a, k, ell = _check_3partition(a, alternating)
    n = k * (ell + 1) + (2 if alternating else 0)
    # segments must meet the constants in equation order, so each triple is
    # used in ascending index order (blocks commute across triples)
    triples = [tuple(sorted(t)) for t in cert]
    flat = sorted(i for t in triples for i in t)
    if flat != list(range(3 * k)) or any(len(t) != 3 for t in triples):
        raise ValueError("certificate must partition the indices")
    for t in triples:
        if sum(a[i] for i in t) != ell:
            raise ValueError(f"triple {t} does not sum to L={ell}")
    zs = [None] * (3 * k)
    for i, t in enumerate(triples):
        start = i * (ell + 1) + 1
        for idx in t:
            zs[idx] = _segment_conjugator(a[idx], start, n, alternating)
            start += a[idx]
    return Solution(zs)
