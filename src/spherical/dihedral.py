"""Dihedral groups D_n as pairs (k, delta), delta = +-1 a reflection flag:
(k1, d1)(k2, d2) = (k1 + d1*k2, d1*d2).

Solvability of prod z_i^-1 c_i z_i = 1 over D_n has a closed criterion:
the reflection signs must multiply to 1, and then either all constants are
rotations and some signed sum of the a_i vanishes mod n, or there are at
least two reflections and (n odd, or an even number of odd a_i).
"""

from .core import (CAP, GroupSpec, InputError, SphericalEquation,
                   TooLargeError, int_list, normalize, reinflate,
                   signed_sum_signs)
from .semidirect import SIGN_CAP


class DihedralElement:
    __slots__ = ("k", "delta", "n")

    def __init__(self, k, delta, n):
        if delta not in (1, -1):
            raise InputError("delta must be +-1")
        self.k = k % n
        self.delta = delta
        self.n = n

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mixed moduli")
        return DihedralElement(self.k + self.delta * other.k,
                               self.delta * other.delta, self.n)

    def inverse(self):
        return DihedralElement(-self.delta * self.k, self.delta, self.n)

    def __eq__(self, other):
        return (isinstance(other, DihedralElement)
                and (self.k, self.delta, self.n) == (other.k, other.delta, other.n))

    def __hash__(self):
        return hash((self.k, self.delta, self.n))

    def __repr__(self):
        return f"({self.k},{self.delta})"


class Et2Element:
    """Upper triangular [[e1, b], [0, e2]] over Z_n with diagonal +-1."""

    __slots__ = ("e1", "b", "e2", "n")

    def __init__(self, e1, b, e2, n):
        self.e1 = e1 % n
        self.b = b % n
        self.e2 = e2 % n
        self.n = n
        if self.e1 not in (1 % n, n - 1) or self.e2 not in (1 % n, n - 1):
            raise InputError("diagonal entries must be +-1 mod n")

    def __mul__(self, other):
        n = self.n
        return Et2Element(self.e1 * other.e1,
                          self.e1 * other.b + self.b * other.e2,
                          self.e2 * other.e2, n)

    def inverse(self):
        return Et2Element(self.e1, -self.e1 * self.b * self.e2, self.e2, self.n)

    def __eq__(self, other):
        return (isinstance(other, Et2Element)
                and (self.e1, self.b, self.e2, self.n)
                == (other.e1, other.b, other.e2, other.n))

    def __hash__(self):
        return hash(("et2", self.e1, self.b, self.e2, self.n))

    def __repr__(self):
        return f"[[{self.e1},{self.b}],[0,{self.e2}]]"


def _prepare(eq: SphericalEquation):
    if eq.group.family != "dihedral":
        raise ValueError("expected a dihedral equation")
    eqn = normalize(eq)
    n = eq.group.n
    for c in eqn.constants:
        if not isinstance(c, DihedralElement) or c.n != n:
            raise ValueError(f"bad constant {c!r}")
    return eqn, n


def _signed_sum_dp(values, n):
    """Signs e_i = +-1 with sum e_i * v_i = 0 mod n, as a tuple, or None.

    Dense inputs run a bitset DP: layer j holds the residues reachable with
    the first j values as an n-bit int, the next layer is that int rotated
    by +v and by -v, and the trace back from residue 0 tests one bit per
    layer.  That costs count * n / 64 machine words, while meet in the
    middle costs about 2^(count/2) dict steps, so the bitset runs when
    2^(count/2) * 64 >= n and the meet in the middle otherwise (few values
    modulo a large n).  The bitset's count * n bits must stay within CAP^2,
    the meet in the middle's count within SIGN_CAP, or TooLargeError.
    """
    count = len(values)
    if 4096 << count < n * n or count * n > CAP * CAP:
        if count > SIGN_CAP:
            # no n in the message: str() refuses ints past 4300 digits
            raise TooLargeError(f"{count} rotation constants are too many "
                                f"for a signed-sum search modulo this n")
        return signed_sum_signs([(v,) for v in values], (0,), n)
    full = (1 << n) - 1
    layers = [1]
    for v in values:
        v %= n
        reach = layers[-1]
        layers.append((reach << v | reach >> (n - v)
                       | reach >> v | reach << (n - v)) & full)
    if not layers[-1] & 1:
        return None
    signs = []
    r = 0
    for j in range(len(values) - 1, -1, -1):
        e = 1 if layers[j] >> (r - values[j]) % n & 1 else -1
        r = (r - e * values[j]) % n
        signs.append(e)
    return tuple(reversed(signs))


def _reflections_solvable(cs, n):
    """The criterion for constants that include a reflection."""
    prod_delta = 1
    for c in cs:
        prod_delta *= c.delta
    if prod_delta != 1:
        return False
    return n % 2 == 1 or sum(c.k % 2 for c in cs) % 2 == 0


def decide_dn(eq: SphericalEquation) -> bool:
    eqn, n = _prepare(eq)
    cs = eqn.constants
    if all(c.delta == 1 for c in cs):
        return _signed_sum_dp([c.k for c in cs], n) is not None
    return _reflections_solvable(cs, n)


def solve_dn(eq: SphericalEquation):
    """Explicit conjugators for solvable equations.

    All-rotation case: z_i = (0, e_i) from the signed-sum back-trace.
    Reflection case: with z_l = (h_l, g_l) the product's rotation component
    is sum D^(l-1) g_l a_l - sum_{refl} 2 D^(l-1) g_l h_l where D^(l-1) is
    the running product of the constants' deltas; choosing g_l = D^(l-1)
    reduces it to sum a_l - 2h at a single reflection slot, solved for h.
    """
    eqn, n = _prepare(eq)
    cs = eqn.constants
    if all(c.delta == 1 for c in cs):
        signs = _signed_sum_dp([c.k for c in cs], n)
        if signs is None:
            return None
        zs = [DihedralElement(0, e, n) for e in signs]
    elif not _reflections_solvable(cs, n):
        return None
    else:
        total = sum(c.k for c in cs) % n
        # 2h = total mod n: n odd inverts 2; n even has total even here
        if n % 2 == 1:
            h = total * pow(2, -1, n) % n
        else:
            h = total // 2
        # with g_l = D^(l-1) every coefficient D^(l-1) g_l is 1, so the h
        # at the first reflection slot enters the sum as plain -2h
        delta_prefix = 1
        zs = []
        placed = False
        for c in cs:
            hl = 0
            if not placed and c.delta == -1:
                hl = h
                placed = True
            zs.append(DihedralElement(hl, delta_prefix, n))
            delta_prefix *= c.delta
    return reinflate(eq, zs)


def reduce_partition(a) -> SphericalEquation:
    """Partition instance -> rotation constants (a_i, 1) over D_n with
    n = 1 + sum(a); solvable iff the instance splits into equal halves."""
    a = list(int_list(a, "Partition field 'a'"))
    if not a or any(x < 1 for x in a):
        raise InputError("need positive integers")
    n = 1 + sum(a)
    spec = GroupSpec("dihedral", n=n)
    return SphericalEquation(spec, [DihedralElement(x, 1, n) for x in a])


def embed_et2(el: DihedralElement) -> Et2Element:
    """The injection D_n -> ET(2,n) sending r to [[1,1],[0,1]] and s to
    [[1,0],[0,-1]]: (k, delta) -> [[1, delta*k], [0, delta]]."""
    if el.delta == 1:
        return Et2Element(1, el.k, 1, el.n)
    return Et2Element(1, -el.k, el.n - 1, el.n)
