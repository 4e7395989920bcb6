"""Generalized Heisenberg groups H_n^(p) and the unitriangular groups
UT(4,p): closed-form solvability criteria and explicit conjugators.

Both families conjugate nicely entry-by-entry, so a product of conjugates
X C X^-1 has every entry given by an explicit polynomial in the entries of
the X_i and C_i.  Deciding solvability reduces to a handful of linear (or,
for UT(4,p), one bilinear) equations over Z_p, each solved by a written-down
rule: one nonzero coefficient, or a 2x2 Cramer's rule, with no general
linear solver.
"""

from .core import SphericalEquation, normalize, reinflate


def _vadd(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def _dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


class HeisenbergElement:
    """Block matrix [[1, a1, a2], [0, I, a3], [0, 0, 1]] with a1 a row
    vector, a3 a column vector of length n-2, and a2 a scalar, all mod p."""

    __slots__ = ("a1", "a2", "a3", "n", "p")

    def __init__(self, a1, a2, a3, n, p):
        self.n = n
        self.p = p
        self.a1 = tuple(x % p for x in a1)
        self.a2 = a2 % p
        self.a3 = tuple(x % p for x in a3)

    def __mul__(self, other):
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("mixed groups")
        p = self.p
        return HeisenbergElement(
            _vadd(self.a1, other.a1, p),
            self.a2 + other.a2 + _dot(self.a1, other.a3, p),
            _vadd(self.a3, other.a3, p), self.n, p)

    def inverse(self):
        p = self.p
        return HeisenbergElement(
            tuple(-x for x in self.a1),
            -self.a2 + _dot(self.a1, self.a3, p),
            tuple(-x for x in self.a3), self.n, p)

    def __eq__(self, other):
        return (isinstance(other, HeisenbergElement)
                and (self.a1, self.a2, self.a3, self.n, self.p)
                == (other.a1, other.a2, other.a3, other.n, other.p))

    def __hash__(self):
        return hash(("heis", self.a1, self.a2, self.a3, self.n, self.p))

    def __repr__(self):
        return f"H({list(self.a1)},{self.a2},{list(self.a3)})"


class UT4Element:
    """Unitriangular 4x4 matrix mod p, stored as the strict upper entries
    e = (e1,...,e6) = (x12, x13, x14, x23, x24, x34)."""

    __slots__ = ("p", "e")

    def __init__(self, p, e):
        self.p = p
        self.e = tuple(x % p for x in e)

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli")
        p = self.p
        a1, a2, a3, a4, a5, a6 = self.e
        b1, b2, b3, b4, b5, b6 = other.e
        return UT4Element(p, (a1 + b1,
                              a2 + a1 * b4 + b2,
                              a3 + a1 * b5 + a2 * b6 + b3,
                              a4 + b4,
                              a5 + a4 * b6 + b5,
                              a6 + b6))

    def inverse(self):
        a1, a2, a3, a4, a5, a6 = self.e
        return UT4Element(self.p, (-a1,
                                   -a2 + a1 * a4,
                                   -a3 + a1 * a5 + a2 * a6 - a1 * a4 * a6,
                                   -a4,
                                   -a5 + a4 * a6,
                                   -a6))

    def __eq__(self, other):
        return (isinstance(other, UT4Element)
                and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash(("ut4", self.p, self.e))

    def __repr__(self):
        return f"U{self.e}"


def _prepare(eq: SphericalEquation, family, cls):
    if eq.group.family != family:
        raise ValueError(f"expected a {family} equation")
    eqn = normalize(eq)
    for c in eqn.constants:
        if not isinstance(c, cls):
            raise ValueError(f"bad constant {c!r}")
    return eqn


def decide_heisenberg(eq: SphericalEquation) -> bool:
    eqn = _prepare(eq, "heisenberg", HeisenbergElement)
    cs = eqn.constants
    if not cs:
        return True
    p = eq.group.p
    d = eq.group.n - 2
    if any(sum(c.a1[j] for c in cs) % p for j in range(d)):
        return False
    if any(sum(c.a3[j] for c in cs) % p for j in range(d)):
        return False
    if any(x for c in cs for x in c.a1 + c.a3):
        return True
    return sum(c.a2 for c in cs) % p == 0


def solve_heisenberg(eq: SphericalEquation):
    """The product of conjugates X_i C_i X_i^-1 has vector parts equal to
    the sums of the constants' vector parts, and scalar part

        sum_i (chi_i . zeta3_i - zeta1_i . gamma_i)
          + sum_i sum_{h<i} zeta1_h . zeta3_i + sum_i c_i

    where X_i = (chi_i, z_i, gamma_i).  The scalar is linear in chi and
    gamma, so one nonzero vector component suffices to steer it to zero.
    """
    if not decide_heisenberg(eq):
        return None
    eqn = _prepare(eq, "heisenberg", HeisenbergElement)
    cs = eqn.constants
    p = eq.group.p
    n = eq.group.n
    d = n - 2
    # the pairwise sum over h < i in one pass: prefix holds sum_{h<i} zeta1_h
    base = sum(c.a2 for c in cs)
    prefix = (0,) * d
    for c in cs:
        base += _dot(prefix, c.a3, p)
        prefix = _vadd(prefix, c.a1, p)
    base %= p
    zero = (0,) * d
    xs = [HeisenbergElement(zero, 0, zero, n, p) for _ in cs]
    if base:
        for i, c in enumerate(cs):
            j = next((j for j in range(d) if c.a3[j]), None)
            if j is not None:
                chi = [0] * d
                chi[j] = -base * pow(c.a3[j], -1, p)
                xs[i] = HeisenbergElement(chi, 0, zero, n, p)
                break
            j = next((j for j in range(d) if c.a1[j]), None)
            if j is not None:
                gamma = [0] * d
                gamma[j] = base * pow(c.a1[j], -1, p)
                xs[i] = HeisenbergElement(zero, 0, gamma, n, p)
                break
    return reinflate(eq, [x.inverse() for x in xs])


def _ut4_conjugates(cs, xs):
    """Product of X_i C_i X_i^-1."""
    prod = None
    for c, x in zip(cs, xs):
        t = x * c * x.inverse()
        prod = t if prod is None else prod * t
    return prod


def decide_ut4(eq: SphericalEquation) -> bool:
    return solve_ut4(eq) is not None


def solve_ut4(eq: SphericalEquation):
    """Conjugators over UT(4,p), or None.

    With X_i = [[1,x,w,u],[0,1,z,v],[0,0,1,y],[0,0,0,1]] the product of the
    conjugates is the identity iff the constants' corner entries (1), (4),
    (6) sum to zero and three polynomial equations in the x,y,z,v,w hold:
    two linear ones for entries (2) and (5),

        sum(c4_i x_i - c1_i z_i) = r2,  sum(c6_i z_i - c4_i y_i) = r5,

    with r2 = -sum(c2_i + a1_i c4_i), r5 = -sum(c5_i + a4_i c6_i) and a1_i,
    a4_i the sums of c1, c4 over the constants before i; and one for entry
    (3) that is linear in v, w and bilinear in the x_i, y_j.  If some c4_t
    is nonzero, x_t = r2/c4_t and y_t = -r5/c4_t solve both.  If every c4
    is 0, they read sum z_i u_i = (r2, r5) with u_i = (-c1_i, c6_i): two
    independent u_s, u_j give z_s, z_j by Cramer's rule, and with every u_i
    on the line of u_s the equation is solvable iff (r2, r5) is on it too.

    If some c1 or c6 is nonzero, a v_i or w_i then clears entry (3).
    Otherwise X_i = (x_i, 0, 0, 0, 0, y_i) suffice: X C X^-1 = (0,
    c2 + x c4, c3 + x c5 - y c2 - x y c4, c4, c5 - y c4, 0) and such
    elements multiply by adding entries, so entry (3) is F = sum(c3_i +
    c5_i x_i - c2_i y_i - c4_i x_i y_i).  What is left of F goes to an x_j
    or y_j with c4_j = 0, else to a shift along two more indices with
    c4 != 0.  With neither, F is constant on the solutions of the two
    sums, and the equation is unsolvable.
    """
    eqn = _prepare(eq, "ut4p", UT4Element)
    cs = eqn.constants
    if not cs:
        return reinflate(eq, [])
    p = eq.group.p
    k = len(cs)
    c1, c2, c3, c4, c5, c6 = (tuple(c.e[j] for c in cs) for j in range(6))
    if sum(c1) % p or sum(c4) % p or sum(c6) % p:
        return None
    r2 = r5 = a1 = a4 = 0
    for i in range(k):
        r2 -= c2[i] + a1 * c4[i]
        r5 -= c5[i] + a4 * c6[i]
        a1 += c1[i]
        a4 += c4[i]
    r2 %= p
    r5 %= p
    xv, yv, zv, vv, wv = ([0] * k for _ in range(5))
    outer = any(c1) or any(c6)
    S = [i for i in range(k) if c4[i]]
    if S:
        t = S[0]
        inv_t = pow(c4[t], -1, p)
        xv[t] = r2 * inv_t % p
        yv[t] = -r5 * inv_t % p
    elif outer:
        u = [(-c1[i] % p, c6[i]) for i in range(k)]
        s = next(i for i in range(k) if any(u[i]))
        a, b = u[s]
        j = next((j for j in range(k) if (a * u[j][1] - b * u[j][0]) % p),
                 None)
        if j is not None:
            c, d = u[j]
            inv = pow(a * d - b * c, -1, p)
            zv[s] = (r2 * d - r5 * c) * inv % p
            zv[j] = (a * r5 - b * r2) * inv % p
        elif (a * r5 - b * r2) % p:
            return None
        else:
            zv[s] = (r2 * pow(a, -1, p) if a else r5 * pow(b, -1, p)) % p
    elif r2 or r5:
        return None

    def build():
        return [UT4Element(p, (xv[i], wv[i], 0, zv[i], vv[i], yv[i]))
                for i in range(k)]

    if outer:
        # v_i and w_i appear in entry (3) linearly and nowhere else
        r = _ut4_conjugates(cs, build()).e[2]
        i0 = next((i for i in range(k) if c1[i]), None)
        if i0 is not None:
            vv[i0] = r * pow(c1[i0], -1, p)
        else:
            i0 = next(i for i in range(k) if c6[i])
            wv[i0] = -r * pow(c6[i0], -1, p)
        return reinflate(eq, [x.inverse() for x in build()])

    # every c1 and c6 is 0: entry (3) is F
    r = sum(c3[i] + c5[i] * xv[i] - c2[i] * yv[i] - c4[i] * xv[i] * yv[i]
            for i in range(k)) % p
    # a variable outside S appears in F alone and linearly
    j5 = next((j for j in range(k) if c5[j] and not c4[j]), None)
    j2 = next((j for j in range(k) if c2[j] and not c4[j]), None)
    if not r:
        pass
    elif j5 is not None:
        xv[j5] = -r * pow(c5[j5], -1, p) % p
    elif j2 is not None:
        yv[j2] = r * pow(c2[j2], -1, p) % p
    elif len(S) >= 3:
        # shifting x by lam (e_s/c4_s - e_t/c4_t) and y by
        # mu (e_u/c4_u - e_t/c4_t) keeps both sums and moves F by
        # lam f + mu g - lam mu / c4_t
        s, u = S[1], S[2]
        inv_s = pow(c4[s], -1, p)
        inv_u = pow(c4[u], -1, p)
        f = c5[s] * inv_s - c5[t] * inv_t + yv[t]
        g = (c2[t] * inv_t - c2[u] * inv_u + xv[t]) % p
        lam = 0 if g else 1
        mu = -(r + lam * f) * pow(g - lam * inv_t, -1, p)
        xv[s] = lam * inv_s
        xv[t] -= lam * inv_t
        yv[u] = mu * inv_u
        yv[t] -= mu * inv_t
    else:
        # S is empty or {t, s}, and c2_j = c5_j = 0 off S: F is constant on
        # the solutions of the two sums, and it is r != 0
        return None
    return reinflate(eq, [x.inverse() for x in build()])
