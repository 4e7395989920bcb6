"""2x2 matrices over Z_p: type classification, conjugacy, trace-target
construction, the triangular-group criterion, and the full GL(2,p) decision
and solution procedure.

Conventions: B^Z = Z^-1 B Z; a "canonicalizer" of A is a pair (J, P) with
P^-1 A P = J where J is the canonical representative of A's conjugacy class
(diagonal for type-1, [[s,t],[1,s]] for type-2, [[s,1],[0,s]] for type-3).
"""

from .core import (SphericalEquation, normalize, reinflate, decide_cayley,
                   solve_brute)
from .numtheory import legendre, sqrt_mod, solve_weighted_trace


class Mat2:
    """[[a, b], [c, d]] over Z_p: p is prime, except for ET(2,n), whose
    matrices are Mat2s over Z_n."""

    __slots__ = ("p", "a", "b", "c", "d")

    def __init__(self, p, a, b, c, d):
        self.p = p
        self.a = a % p
        self.b = b % p
        self.c = c % p
        self.d = d % p

    @classmethod
    def identity(cls, p):
        return cls(p, 1, 0, 0, 1)

    def det(self):
        return (self.a * self.d - self.b * self.c) % self.p

    def trace(self):
        return (self.a + self.d) % self.p

    def is_scalar(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli")
        p = self.p
        return Mat2(p,
                    self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def inverse(self):
        dt = self.det()
        if dt == 0:
            raise ValueError("singular matrix")
        # not Fermat's dt^(p-2): ET(2,n)'s modulus n may be composite
        di = pow(dt, -1, self.p)
        return Mat2(self.p, self.d * di, -self.b * di,
                    -self.c * di, self.a * di)

    def conj_by(self, z):
        """self^z = z^-1 self z."""
        return z.inverse() * self * z

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.p == other.p
                and (self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.p, self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


SCALAR, TYPE1, TYPE2, TYPE3 = "scalar", "type1", "type2", "type3"


def discriminant(A: Mat2) -> int:
    return (A.trace() ** 2 - 4 * A.det()) % A.p


def classify(A: Mat2) -> str:
    """Type tag by the discriminant of the characteristic polynomial:
    nonzero square -> type1, nonsquare -> type2, zero -> type3 or scalar."""
    if A.det() == 0:
        raise ValueError("singular matrix")
    if A.is_scalar():
        return SCALAR
    xi = discriminant(A)
    if xi == 0:
        return TYPE3
    return TYPE1 if legendre(xi, A.p) == 1 else TYPE2


def conjugate_check(A: Mat2, B: Mat2) -> bool:
    if A.p != B.p:
        raise ValueError("mixed moduli")
    if A.is_scalar() or B.is_scalar():
        return A == B
    return A.trace() == B.trace() and A.det() == B.det()


def canonicalize(A: Mat2):
    """(J, P) with P^-1 A P = J, J the canonical class representative."""
    p = A.p
    tag = classify(A)
    if tag == SCALAR:
        return A, Mat2.identity(p)
    half = pow(2, p - 2, p)
    if tag == TYPE1:
        xi = discriminant(A)
        r = sqrt_mod(xi, p)
        l1, l2 = sorted(((A.trace() + r) * half % p,
                         (A.trace() - r) * half % p))
        J = Mat2(p, l1, 0, 0, l2)
        cols = []
        for lam in (l1, l2):
            v = (A.b, (lam - A.a) % p)
            if v == (0, 0):
                v = ((lam - A.d) % p, A.c)
            cols.append(v)
        P = Mat2(p, cols[0][0], cols[1][0], cols[0][1], cols[1][1])
        return J, P
    s = A.trace() * half % p
    if tag == TYPE2:
        t = (s * s - A.det()) % p
        J = Mat2(p, s, t, 1, s)
        # u = e1, w = (A - s)e1; (A - s)^2 = t by Cayley-Hamilton, and
        # c != 0 for type-2 (a triangular matrix has square discriminant)
        P = Mat2(p, 1, (A.a - s) % p, 0, A.c)
        return J, P
    # type3: v2 with (A - s)v2 != 0, v1 = (A - s)v2
    J = Mat2(p, s, 1, 0, s)
    v2 = (1, 0)
    v1 = ((A.a - s) % p, A.c)
    if v1 == (0, 0):
        v2 = (0, 1)
        v1 = (A.b, (A.d - s) % p)
    P = Mat2(p, v1[0], v2[0], v1[1], v2[1])
    return J, P


def conjugator(A: Mat2, B: Mat2) -> Mat2:
    """Z with Z^-1 B Z = A."""
    if not conjugate_check(A, B):
        raise ValueError(f"{A!r} and {B!r} are not conjugate")
    if A.is_scalar():
        return Mat2.identity(A.p)
    _, pa = canonicalize(A)
    _, pb = canonicalize(B)
    return pb * pa.inverse()


def _tt_against_type1(A: Mat2, J: Mat2, k: int) -> Mat2:
    """W with tr(A J^W) = k for diagonal J = diag(s,t), s != t, A non-scalar.

    With W = [[v,x],[y,z]], det W = 1:
    tr = vy(t-s)b + xy(s-t)(a-d) + xz(s-t)c + as + td.
    """
    p = A.p
    s, t = J.a, J.d
    a, b, c, d = A.a, A.b, A.c, A.d
    base = (a * s + t * d) % p
    need = (k - base) % p
    if (t - s) * b % p != 0:
        y = need * pow((t - s) * b % p, p - 2, p) % p
        return Mat2(p, 1, 0, y, 1)
    if (s - t) * c % p != 0:
        x = need * pow((s - t) * c % p, p - 2, p) % p
        return Mat2(p, 1, x, 0, 1)
    w = need * pow((s - t) * (a - d) % p, p - 2, p) % p
    return Mat2(p, (1 + w) % p, 1, w, 1)


def _tt_against_type2(A: Mat2, J: Mat2, k: int) -> Mat2:
    """W with tr(A' J^W) = k for canonical type-2 A' = [[a,b],[1,a]] and
    J = [[s,t],[1,s]]: with W = [[u,x],[0,1]] the trace is
    ub + (t - x^2)/u + 2as, handled by the weighted-trace solver."""
    p = A.p
    a, b = A.a, A.b
    s, t = J.a, J.b
    u, x = solve_weighted_trace((k - 2 * a * s) % p, t, b, p)
    return Mat2(p, u, x, 0, 1)


def _tt_against_type3(A: Mat2, J: Mat2, k: int):
    """W with tr(A J^W) = k for J = [[s,1],[0,s]] and non-scalar A, or None
    when k = s*tr(A) and (a-d)^2 + 4bc is a nonresidue.

    tr = q(y,z)/det(W) + s(a+d) with q(y,z) = -y^2 b + yz(a-d) + z^2 c.
    """
    p = A.p
    s = J.a
    a, b, c, d = A.a, A.b, A.c, A.d
    base = s * (a + d) % p

    def q(y, z):
        return (-y * y * b + y * z * (a - d) + z * z * c) % p

    def complete(y, z, delta):
        # v, x with vz - xy = delta
        if z != 0:
            return Mat2(p, delta * pow(z, p - 2, p), 0, y, z)
        return Mat2(p, 1, -delta * pow(y, p - 2, p), y, z)

    if k % p != base:
        for y, z in ((1, 0), (0, 1), (1, 1), (1, p - 1)):
            val = q(y, z)
            if val != 0:
                delta = val * pow((k - base) % p, p - 2, p) % p
                return complete(y, z, delta)
        raise AssertionError("non-scalar A must give a nonzero form value")
    disc = ((a - d) ** 2 + 4 * b * c) % p
    if legendre(disc, p) == -1:
        return None
    if b != 0:
        r = sqrt_mod(disc, p)
        y = (a - d + r) * pow(2 * b % p, p - 2, p) % p
        z = 1
    elif c != 0 or (a - d) % p != 0:
        y, z = 1, 0
    else:
        raise ValueError("scalar matrix in trace-target")
    return complete(y, z, 1)


def trace_reachable(A: Mat2, B: Mat2, k: int) -> bool:
    """Whether k lies in T(A,B) = tr{A B^Z}: every k does, except the one
    that _tt_against_type3 excludes."""
    return trace_target(A, B, k) is not None


def trace_target(A: Mat2, B: Mat2, k: int):
    """Z with tr(A B^Z) = k, or None when k is the excluded type-3 value.

    Uses T(A,B) = T(B,A): when the construction wants the roles swapped,
    tr(B A^Z') = k gives tr(A B^Z) = k with Z = Z'^-1.
    """
    ta, tb = classify(A), classify(B)
    if SCALAR in (ta, tb):
        raise ValueError("trace target needs non-scalar matrices")
    # prefer a type-1 matrix in the B slot, then type-3, then type-2/type-2
    want_swap = (tb != TYPE1 and ta == TYPE1) or \
        (TYPE1 not in (ta, tb) and tb != TYPE3 and ta == TYPE3)
    if want_swap:
        A, B, ta, tb = B, A, tb, ta
    if tb == TYPE1:
        jb, pb = canonicalize(B)
        W = _tt_against_type1(A, jb, k)
        Z = pb * W
    elif tb == TYPE3:
        jb, pb = canonicalize(B)
        W = _tt_against_type3(A, jb, k)
        if W is None:
            return None
        Z = pb * W
    else:
        ja, pa = canonicalize(A)
        jb, pb = canonicalize(B)
        W = _tt_against_type2(ja, jb, k)
        Z = pb * W * pa.inverse()
    return Z.inverse() if want_swap else Z


def type3_type3_solve(a_eig: int, s_eig: int, sgn: int, p: int):
    """(Z2, Z3) with [[a,1],[0,a]] * ([[s,1],[0,s]])^Z2 = ([[e,1],[0,e]])^Z3
    where e = sgn * a * s."""
    if p < 3 or a_eig % p == 0 or s_eig % p == 0:
        raise ValueError("need p >= 3 and nonzero eigenvalues")
    a, s = a_eig % p, s_eig % p
    A = Mat2(p, a, 1, 0, a)
    B = Mat2(p, s, 1, 0, s)
    e = sgn * a * s % p
    T = Mat2(p, e, 1, 0, e)
    if sgn == -1:
        # trace 2as - y^2/delta with y = 1 forces delta = (4as)^-1
        delta = pow(4 * a * s % p, p - 2, p)
        Z2 = Mat2(p, 1, -delta, 1, 0)
    else:
        # y = 0 gives [[as, (z/v)a + s],[0, as]]; keep it non-scalar
        z = 1 if (a + s) % p != 0 else 2
        Z2 = Mat2(p, 1, 0, 0, z)
    return Z2, conjugator(A * B.conj_by(Z2), T)


def _require_triangular(eq):
    if eq.group.family not in ("tl2p", "gl2p", "sl2p"):
        raise ValueError("expected a matrix-group equation")
    eqn = normalize(eq)
    for C in eqn.constants:
        if C.c != 0:
            raise ValueError(f"{C!r} is not upper triangular")
        if C.a == 0 or C.d == 0:
            raise ValueError(f"{C!r} is singular")
    return eqn


def decide_tl2(eq: SphericalEquation) -> bool:
    """Upper-triangular criterion: both diagonal products must be 1, and
    either some constant has distinct diagonal entries, or all off-diagonal
    entries vanish, or at least two are nonzero."""
    eqn = _require_triangular(eq)
    cs = eqn.constants
    p = eq.group.p
    pa = pc = 1
    for C in cs:
        pa = pa * C.a % p
        pc = pc * C.d % p
    if pa != 1 or pc != 1:
        return False
    if any(C.a != C.d for C in cs):
        return True
    nonzero_b = sum(1 for C in cs if C.b != 0)
    return nonzero_b == 0 or nonzero_b >= 2


def solve_tl2(eq: SphericalEquation):
    """Constructive counterpart of decide_tl2 following the product formula
    M = [[prod a, sum A_{j-1} alpha_j C_{j+1,k}], [0, prod c]] with
    alpha_j = (y_j(c_j - a_j) + x_j b_j) / z_j for X_j = [[x_j,y_j],[0,z_j]].
    The emitted conjugators are X_j^-1 since the formula conjugates as
    X C X^-1."""
    eqn = _require_triangular(eq)
    if not decide_tl2(eq):
        return None
    cs = eqn.constants
    p = eq.group.p
    k = len(cs)
    # K_j = A_{j-1} * C_{j+1,k}, the coefficient of alpha_j
    pref = [1]
    for C in cs:
        pref.append(pref[-1] * C.a % p)
    suff = [1] * (k + 1)
    for j in range(k - 1, -1, -1):
        suff[j] = suff[j + 1] * cs[j].d % p
    K = [pref[j] * suff[j + 1] % p for j in range(k)]
    xs = [1] * k
    ys = [0] * k
    diff = [(C.d - C.a) % p for C in cs]
    if any(diff):
        i = next(j for j in range(k) if diff[j])
        rest = sum(K[j] * cs[j].b for j in range(k) if j != i) % p
        ys[i] = (-rest * pow(K[i], p - 2, p) - xs[i] * cs[i].b) \
            * pow(diff[i], p - 2, p) % p
    else:
        nz = [j for j in range(k) if cs[j].b != 0]
        if len(nz) == 1:
            return None
        if len(nz) >= 2:
            h, ell = nz[0], nz[1]
            xi = sum(K[j] * cs[j].b for j in nz[2:]) % p
            xh = 1
            lhs = (-K[h] * xh * cs[h].b - xi) % p
            if lhs == 0:
                xh = 2
                lhs = (-K[h] * xh * cs[h].b - xi) % p
            xs[h] = xh
            xs[ell] = lhs * pow(K[ell] * cs[ell].b % p, p - 2, p) % p
    return reinflate(eq, [Mat2(p, xs[j], ys[j], 0, 1).inverse()
                          for j in range(k)])


def _fold_scalars(cs):
    """Split into (non-scalar constants with original positions, product of
    the scalar ones)."""
    nonscalar = []
    scal = None
    for i, C in enumerate(cs):
        if C.is_scalar():
            scal = C if scal is None else scal * C
        else:
            nonscalar.append((i, C))
    return nonscalar, scal


def decide_gl2(eq: SphericalEquation) -> bool:
    """Closed-form decision over GL(2,p), p >= 5 (small p falls back to the
    Cayley dynamic program)."""
    p = eq.group.p
    if p in (2, 3):
        return decide_cayley(eq)
    eqn = normalize(eq)
    for C in eqn.constants:
        if C.det() == 0:
            raise ValueError(f"{C!r} is singular")
    nonscalar, scal = _fold_scalars(eqn.constants)
    if not nonscalar:
        return scal is None or scal == Mat2.identity(p)
    cs = [C for _, C in nonscalar]
    if scal is not None:
        cs[-1] = cs[-1] * scal
    det = 1
    for C in cs:
        det = det * C.det() % p
    if det != 1:
        return False
    k = len(cs)
    if k == 1:
        return False
    if k == 2:
        return conjugate_check(cs[0], cs[1].inverse())
    if k >= 4:
        return True
    types = [classify(C) for C in cs]
    n3 = types.count(TYPE3)
    if n3 in (0, 3):
        return True
    # put a non-type-3 constant in the target slot, test trace reachability;
    # a type-3 constant is left in the pair, so trace_target takes its
    # type-1 or type-3 branch
    i3 = next(i for i in range(3) if types[i] != TYPE3)
    rest = [i for i in range(3) if i != i3]
    A, B = cs[rest[0]], cs[rest[1]]
    return trace_reachable(A, B, cs[i3].inverse().trace())


def _solve_triple(cs):
    """Conjugators (z1, z2, z3) for three non-scalar constants with
    det product 1, or None."""
    p = cs[0].p
    I = Mat2.identity(p)
    types = [classify(C) for C in cs]
    if types.count(TYPE3) == 3:
        j1, p1 = canonicalize(cs[0])
        j2, p2 = canonicalize(cs[1])
        a, s = j1.a, j2.a
        target = cs[2].inverse()
        jt, pt = canonicalize(target)
        sgn = 1 if jt.a == a * s % p else -1
        W, V = type3_type3_solve(a, s, sgn, p)
        # the canonical identity A_c J^W (T^-1)^V = 1 conjugated by p1^-1
        # lands on the original constants
        return [I, p2 * W * p1.inverse(), pt * V * p1.inverse()]
    # rotate a non-type-3 constant into the target slot: a cyclic shift of
    # a product equal to 1 is a conjugate of it, so is 1 too, and each
    # conjugator goes back to its constant's own position unchanged
    i3 = next(i for i in range(3) if types[i] != TYPE3)
    order = [(i3 + 1) % 3, (i3 + 2) % 3, i3]
    A, B, C = cs[order[0]], cs[order[1]], cs[order[2]]
    Z2 = trace_target(A, B, C.inverse().trace())
    if Z2 is None:
        return None
    M = A * B.conj_by(Z2)
    if not conjugate_check(M, C.inverse()):
        return None
    Z3 = conjugator(M, C.inverse())
    zs_perm = [Mat2.identity(p), Z2, Z3]
    out = [None, None, None]
    for slot, idx in enumerate(order):
        out[idx] = zs_perm[slot]
    return out


def solve_gl2(eq: SphericalEquation, _rng=None):
    """Verified solution over GL(2,p) or None; falls back to the brute
    oracle for p in {2,3}.  The solver draws nothing: the second parameter,
    once its random source, is accepted and ignored."""
    p = eq.group.p
    if p in (2, 3):
        return solve_brute(eq)
    if not decide_gl2(eq):
        return None
    eqn = normalize(eq)
    I = Mat2.identity(p)
    nonscalar, scal = _fold_scalars(eqn.constants)
    zs = [I] * len(eqn.constants)
    if nonscalar:
        cs = [C for _, C in nonscalar]
        if scal is not None:
            cs[-1] = cs[-1] * scal
        part = _solve_nonscalar(cs)
        for (i, _), z in zip(nonscalar, part):
            zs[i] = z
    return reinflate(eq, zs)


def _solve_nonscalar(cs):
    """Conjugators for k >= 2 non-scalar constants with det product 1 that
    decide_gl2 finds solvable.

    For k >= 4 the first k - 2 constants fold into one head, C_1 times
    each C_j^{Z_j} in turn, and the head goes with C_{k-1}, C_k to
    _solve_triple.  Z_j = I is tried first; otherwise Z_j = trace_target(
    head, C_j, t) for the first t in 0, 1, ..., 4 that works (p >= 5, so
    these are distinct).  A choice of t fails when the new head is scalar,
    when t is trace_target's excluded type-3 value (one t at most), or, on
    the last fold, when the triple has no solution.  A scalar or type-3
    head has t^2 = 4 det, so two values of t at most; off those the head
    is type-1 or type-2, and by decide_gl2's k = 3 rule the triple then
    fails for one more t at most.  So one of the five values works.
    """
    p = cs[0].p
    I = Mat2.identity(p)
    k = len(cs)
    if k == 2:
        Z = conjugator(cs[0].inverse(), cs[1])
        return [I, Z]
    if k == 3:
        out = _solve_triple(cs)
        if out is None:
            raise RuntimeError(f"no witness for the solvable triple {cs!r}")
        return out
    head, Zs = cs[0], [I]
    for j in range(1, k - 2):
        C, last = cs[j], j == k - 3
        for t in (None, 0, 1, 2, 3, 4):
            Z = I if t is None else trace_target(head, C, t)
            if Z is None:
                continue
            new = head * C.conj_by(Z)
            if new.is_scalar():
                continue
            if last:
                y = _solve_triple([new, cs[k - 2], cs[k - 1]])
                if y is None:
                    continue
            head = new
            Zs.append(Z)
            break
        else:
            raise RuntimeError(f"no fold of {cs!r} at constant {j + 1}")
    return [Z * y[0] for Z in Zs] + [y[1], y[2]]
