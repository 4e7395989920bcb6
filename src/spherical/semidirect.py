"""The groups Z_m^k x| C_2 with the sign acting componentwise:

    ((a_1, ..., a_k), x) ((b_1, ..., b_k), y) = ((a_i + x*b_i)_i, xy).

The dihedral group D_n is the case k = 1, m = n.  Deciding spherical
equations over this family is NP-complete for fixed m = 3 or m >= 5, shown
by a reduction from exact set cover with subsets of size at most three.

One decide/solve pair serves the whole family.  A conjugate of (a, 1) is
(a, 1) or (-a, 1), so when no constant and no rhs has sign -1 the equation
is a search for signs e_i with sum e_i a_i = rhs (core.signed_sum_signs).
The class of (v, -1) is (+-v + 2 Z_m^k, -1), so with at least one
reflection (rhs folded in) the equation is solvable iff the number of
reflections is even and either m is odd or the sum of all vectors is 0 mod
2 in every coordinate.  ET(2,n) = <-I> x D_n reaches the kernel through its
D_n factor (dihedral.decide_et2).

With k >= 2 the sign search first fixes the signs that a coordinate
touched by a single vector forces.  On a reduce_xcover equation tally
coordinate k+i is touched by constant ell+i alone, so all ell tally signs
are fixed before any search, and the meet in the middle runs on at most
the ell subset constants: 2 * 2^(ell/2) sums.  So up to SIGN_CAP = 32
subsets are answered, while a half of the search fits SIGN_BUDGET.

SemidirectElement keeps what it is given, vec a tuple: families.decode
checks a payload's sign and reduces its vector mod m, and every product
and inverse builds its own reduced tuple once.
"""

from .core import (CAP, GroupSpec, InputError, SphericalEquation, Solution,
                   TooLargeError, checked, int_list, normalize, reinflate,
                   signed_sum_signs)


class SemidirectElement:
    """(vec, sign), vec a tuple reduced mod m and sign +-1."""

    __slots__ = ("vec", "sign", "m")

    def __init__(self, vec: tuple, sign, m):
        self.vec = vec
        self.sign = sign
        self.m = m

    def __mul__(self, other):
        m, sign, vec, ovec = self.m, self.sign, self.vec, other.vec
        if m != other.m or len(vec) != len(ovec):
            raise ValueError("mixed groups")
        vec = tuple([(a + sign * b) % m for a, b in zip(vec, ovec)])
        return SemidirectElement(vec, sign * other.sign, m)

    def inverse(self):
        if self.sign == -1:  # (v, -1) is an involution
            return self
        m = self.m
        return SemidirectElement(tuple([-a % m for a in self.vec]), 1, m)

    def __eq__(self, other):
        return (isinstance(other, SemidirectElement)
                and (self.vec, self.sign, self.m)
                == (other.vec, other.sign, other.m))

    def __hash__(self):
        return hash(("sd", self.vec, self.sign, self.m))

    def __repr__(self):
        return f"({list(self.vec)},{self.sign})"


def _check_xcover(k, subsets, m):
    """The subsets as sets, once the instance is checked; k + len(subsets)
    is the group's k, checked before the tally of points."""
    for key, val in (("k", k), ("m", m)):
        if type(val) is not int:
            raise InputError(
                f"xcover field {key!r} must be an integer, not {val!r}")
    if type(subsets) not in (list, tuple):
        raise InputError(f"xcover field 'subsets' must be a list, "
                         f"not {subsets!r}")
    if k + len(subsets) > CAP:
        raise TooLargeError(
            f"xcover field 'k' plus the number of subsets is above {CAP}")
    if m != 3 and m < 5:
        raise InputError("m must be 3 or at least 5")
    if k < 1:
        raise InputError("ground set must be nonempty")
    subsets = [set(int_list(s, "each subset")) for s in subsets]
    occurrences = [0] * (k + 1)
    for s in subsets:
        if not s or len(s) > 3 or not all(1 <= j <= k for j in s):
            raise InputError(f"bad subset {sorted(s)}")
        for j in s:
            occurrences[j] += 1
    if max(occurrences) > 3:
        raise InputError("some element occurs in more than 3 subsets")
    return subsets


def reduce_xcover(k, subsets, m) -> SphericalEquation:
    """Exact-set-cover instance -> equation over Z_m^(k+ell) x| C_2 with
    2*ell sign-+1 constants and rhs ((2,...,2,1,...,1),1); solvable iff
    some subfamily of the subsets partitions 1..k.

    Constant i and constant ell+i both carry the indicator vector of
    subset A_i on the first k coordinates; constant ell+i additionally
    marks its own tally coordinate k+i.
    """
    subsets = _check_xcover(k, subsets, m)
    ell = len(subsets)
    dim = k + ell
    spec = GroupSpec("semidirect", m=m, k=dim)
    # m >= 3, so the entries 0, 1 and 2 are reduced already
    constants = []
    for s in subsets:
        constants.append(SemidirectElement(
            tuple([1 if j in s else 0 for j in range(1, dim + 1)]), 1, m))
    for i, s in enumerate(subsets, start=1):
        vec = [1 if j in s else 0 for j in range(1, k + 1)] + [0] * ell
        vec[k + i - 1] = 1
        constants.append(SemidirectElement(tuple(vec), 1, m))
    rhs = SemidirectElement((2,) * k + (1,) * ell, 1, m)
    return SphericalEquation(spec, constants, rhs)


def has_reflection(eq: SphericalEquation) -> bool:
    """Whether a constant or the rhs has sign -1."""
    return (any(c.sign == -1 for c in eq.constants)
            or eq.rhs is not None and eq.rhs.sign == -1)


def _signs(eq: SphericalEquation):
    """Signs e_i, one per non-identity constant (a_i != 0), with
    sum e_i a_i = rhs componentwise mod m, for equations without a
    reflection, or None.  Conjugates with sign +1 commute, so the equation
    holds iff such signs exist."""
    ident = eq.group.identity()
    target = eq.rhs.vec if eq.rhs is not None else ident.vec
    return signed_sum_signs([c.vec for c in eq.constants if any(c.vec)],
                            target, ident.m)


def _half_sum(eq: SphericalEquation):
    """The normalized constants and a vector h with 2h = sum of their
    vectors, for equations with a reflection; None when unsolvable."""
    cs = normalize(eq).constants
    m = eq.group.identity().m
    if sum(c.sign == -1 for c in cs) % 2:
        return None
    totals = [sum(col) % m for col in zip(*(c.vec for c in cs))]
    if m % 2 == 0:
        if any(t % 2 for t in totals):
            return None
        return cs, tuple([t // 2 for t in totals])
    half = pow(2, -1, m)
    return cs, tuple([t * half % m for t in totals])


def decide_signvector(eq: SphericalEquation) -> bool:
    """Exact decision over Z_m^k x| C_2, D_n included."""
    if has_reflection(eq):
        return _half_sum(eq) is not None
    return _signs(eq) is not None


def solve_signvector(eq: SphericalEquation):
    """Conjugators over Z_m^k x| C_2, D_n included, or None.

    Without a reflection, z_i is the identity where e_i = +1 and
    beta = (0, -1) where e_i = -1, since beta^-1 (a, 1) beta = (-a, 1).
    With one, z_l = (h_l, g_l) turns (a_l, d_l) into
    (g_l a_l + g_l (d_l - 1) h_l, d_l), and the product's vector is
    sum D_l g_l (a_l - [d_l = -1] 2 h_l), D_l the product of the earlier
    signs.  g_l = D_l makes every D_l g_l 1, so the vector is
    sum a_l - 2h with h at the first reflection: the h of _half_sum.
    """
    ident = eq.group.identity()
    if not has_reflection(eq):
        signs = _signs(eq)
        if signs is None:
            return None
        beta = SemidirectElement(ident.vec, -1, ident.m)
        signs = iter(signs)
        return checked(eq, Solution([
            beta if any(c.vec) and next(signs) == -1 else ident
            for c in eq.constants]))
    found = _half_sum(eq)
    if found is None:
        return None
    cs, h = found
    prefix = 1
    placed = False
    zs = []
    for c in cs:
        vec = ident.vec
        if c.sign == -1 and not placed:
            vec, placed = h, True
        zs.append(SemidirectElement(vec, prefix, ident.m))
        prefix *= c.sign
    return reinflate(eq, zs)


def certificate_to_solution(k, subsets, m, cert) -> Solution:
    """Conjugators realizing an exact-cover certificate for the equation
    produced by reduce_xcover.

    z_i = identity for selected subsets and for the whole second block;
    z_i = beta = (0,-1) for unselected i <= ell.  Every conjugate then has
    sign +1, so the conjugates commute and sum to the target directly.
    """
    subsets = _check_xcover(k, subsets, m)
    ell = len(subsets)
    chosen = set(cert)
    if not chosen <= set(range(1, ell + 1)):
        raise ValueError("certificate indexes unknown subsets")
    covered = []
    for i in chosen:
        covered.extend(subsets[i - 1])
    if len(covered) != len(set(covered)):
        raise ValueError("selected subsets overlap")
    if set(covered) != set(range(1, k + 1)):
        raise ValueError("selected subsets do not cover 1..k")
    dim = k + ell
    ident = SemidirectElement((0,) * dim, 1, m)
    beta = SemidirectElement((0,) * dim, -1, m)
    zs = [ident if i in chosen else beta for i in range(1, ell + 1)]
    zs += [ident] * ell
    return checked(reduce_xcover(k, subsets, m), Solution(zs))
