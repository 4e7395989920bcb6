"""Generalized Heisenberg groups H_n^(p) and the unitriangular groups
UT(4,p): closed-form solvability criteria and explicit conjugators.

Both families conjugate nicely entry-by-entry, so a product of conjugates
X C X^-1 has every entry given by an explicit polynomial in the entries of
the X_i and C_i.  Deciding solvability reduces to a handful of linear (or,
for UT(4,p), one bilinear) equations over Z_p.
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


def linsolve_modp(rows, rhs, nvars, p):
    """One solution of a linear system over Z_p by Gaussian elimination,
    or None.  rows are dicts {var_index: coefficient}."""
    aug = [[row.get(j, 0) % p for j in range(nvars)] + [b % p]
           for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(nvars):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][col], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][nvars]:
            return None
    sol = [0] * nvars
    for i, col in enumerate(pivots):
        sol[col] = aug[i][nvars]
    return sol


def solve_bilinear(alpha, beta, delta, zeta, p):
    """One root of sum alpha[i][j] x_i y_j + sum(beta_i x_i + delta_j y_j)
    + zeta = 0 over Z_p, as a pair of assignment lists, or None.

    With every alpha zero this is a linear equation.  Otherwise zero all
    variables except one pair (i0, j0) with alpha[i0][j0] != 0, pick y_j0
    so that alpha*y_j0 + beta_i0 != 0 (at most one value is excluded), and
    solve for x_i0.
    """
    r = len(beta)
    xs = [0] * r
    ys = [0] * r
    zeta %= p
    for i in range(r):
        for j in range(r):
            a = alpha[i][j] % p
            if not a:
                continue
            for y in (0, 1):
                w = (a * y + beta[i]) % p
                if w:
                    ys[j] = y
                    xs[i] = -(zeta + delta[j] * y) * pow(w, -1, p) % p
                    return xs, ys
    for i in range(r):
        if beta[i] % p:
            xs[i] = -zeta * pow(beta[i], -1, p) % p
            return xs, ys
    for j in range(r):
        if delta[j] % p:
            ys[j] = -zeta * pow(delta[j], -1, p) % p
            return xs, ys
    return (xs, ys) if zeta == 0 else None


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
    base = sum(c.a2 for c in cs)
    for i, c in enumerate(cs):
        for h in range(i):
            base += _dot(cs[h].a1, c.a3, p)
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
    two linear ones for entries (2) and (5), and one for entry (3) that is
    linear in v, w and bilinear in the x_i, y_j.
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
    # prefix sums a^(1), a^(4) of the partial products are constants
    a1pre = [0] * k
    a4pre = [0] * k
    for i in range(1, k):
        a1pre[i] = (a1pre[i - 1] + c1[i - 1]) % p
        a4pre[i] = (a4pre[i - 1] + c4[i - 1]) % p

    def build(xv, zv, yv, vv=None, wv=None):
        vv = vv or [0] * k
        wv = wv or [0] * k
        return [UT4Element(p, (xv[i], wv[i], 0, zv[i], vv[i], yv[i]))
                for i in range(k)]

    def finish(xs):
        return reinflate(eq, [x.inverse() for x in xs])

    if any(c1) or any(c6):
        # entries (2) and (5) give a linear system in x_i, z_i, y_i; any
        # residue in entry (3) is then cleared through a v_i or w_i, which
        # appear linearly there and nowhere else
        rows = [{}, {}]
        for i in range(k):
            rows[0][i] = c4[i]
            rows[0][k + i] = -c1[i] % p
            rows[1][k + i] = c6[i]
            rows[1][2 * k + i] = -c4[i] % p
        rhs = [-sum(c2[i] + a1pre[i] * c4[i] for i in range(k)),
               -sum(c5[i] + a4pre[i] * c6[i] for i in range(k))]
        sol = linsolve_modp(rows, rhs, 3 * k, p)
        if sol is None:
            return None
        xv, zv, yv = sol[:k], sol[k:2 * k], sol[2 * k:]
        r = _ut4_conjugates(cs, build(xv, zv, yv)).e[2]
        vv = [0] * k
        wv = [0] * k
        i0 = next((i for i in range(k) if c1[i]), None)
        if i0 is not None:
            vv[i0] = r * pow(c1[i0], -1, p)
        else:
            i0 = next(i for i in range(k) if c6[i])
            wv[i0] = -r * pow(c6[i0], -1, p)
        return finish(build(xv, zv, yv, vv, wv))

    if not any(c4):
        # everything is linear: entries (2) and (5) are fixed sums, entry
        # (3) is sum(c5_i x_i - c2_i y_i) + sum(c3)
        if sum(c2) % p or sum(c5) % p:
            return None
        total = sum(c3) % p
        xv = [0] * k
        yv = [0] * k
        if total:
            i0 = next((i for i in range(k) if c5[i]), None)
            if i0 is not None:
                xv[i0] = -total * pow(c5[i0], -1, p)
            else:
                i0 = next((i for i in range(k) if c2[i]), None)
                if i0 is None:
                    return None
                yv[i0] = total * pow(c2[i0], -1, p)
        return finish(build(xv, [0] * k, yv))

    # all c^(1) = c^(6) = 0 with some c^(4) nonzero: entries (2) and (5)
    # determine x_t, y_t from the other variables, and entry (3) becomes a
    # bilinear form sum a_ij x_i y_j + sum(b_i x_i + d_i y_i) + zeta in the
    # free variables, whose coefficients we read off by evaluation
    t = next(i for i in range(k) if c4[i])
    inv_t = pow(c4[t], -1, p)
    free = [i for i in range(k) if i != t]

    def value(xf, yf):
        xv = list(xf)
        yv = list(yf)
        xv[t] = -inv_t * (sum(c4[i] * xv[i] for i in free) + sum(c2)) % p
        yv[t] = inv_t * (sum(c5) - sum(c4[i] * yv[i] for i in free)) % p
        return _ut4_conjugates(cs, build(xv, [0] * k, yv)).e[2]

    zeros = [0] * k

    def unit(i):
        e = [0] * k
        e[i] = 1
        return e

    # read the coefficients of the bilinear form off by evaluation
    r = len(free)
    zeta = value(zeros, zeros)
    beta = [(value(unit(i), zeros) - zeta) % p for i in free]
    delta = [(value(zeros, unit(j)) - zeta) % p for j in free]
    col0 = [value(zeros, unit(j)) for j in free]
    alpha = []
    for a, i in enumerate(free):
        vi = value(unit(i), zeros)
        alpha.append([(value(unit(i), unit(j)) - vi - col0[b] + zeta) % p
                      for b, j in enumerate(free)])
    # the form has no x_i x_j terms; an all-ones probe would expose any
    ones = [0] * k
    for i in free:
        ones[i] = 1
    predicted = (sum(alpha[a][b] for a in range(r) for b in range(r))
                 + sum(beta) + sum(delta) + zeta) % p
    assert value(ones, ones) == predicted, "bilinear model mismatch"
    root = solve_bilinear(alpha, beta, delta, zeta, p)
    if root is None:
        return None
    xs, ys = root
    xv = [0] * k
    yv = [0] * k
    for a, i in enumerate(free):
        xv[i] = xs[a]
        yv[i] = ys[a]
    xv[t] = -inv_t * (sum(c4[i] * xv[i] for i in free) + sum(c2)) % p
    yv[t] = inv_t * (sum(c5) - sum(c4[i] * yv[i] for i in free)) % p
    return finish(build(xv, [0] * k, yv))
