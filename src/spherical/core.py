"""Group families, spherical equations, the generic Cayley-table decision
procedure, the brute-force oracle, verification, and saturation lengths.

An equation is a list of constants c_i over a declared group; it is solvable
when conjugators z_i exist with prod_i z_i^-1 c_i z_i = 1 (or = rhs).
"""

import math

CAP = 10**4

FAMILIES = (
    "cayley", "symmetric", "alternating", "dihedral", "gl2p", "sl2p",
    "tl2p", "et2n", "heisenberg", "ut4p", "semidirect",
)


class TooLargeError(Exception):
    pass


class LengthMismatchError(ValueError):
    pass


class MalformedElementError(ValueError):
    pass


class BadTableError(ValueError):
    pass


class CayleyElement:
    """Element of an explicit-table group, identified by its row index."""

    __slots__ = ("idx", "table")

    def __init__(self, idx, table):
        self.idx = idx
        self.table = table

    def __mul__(self, other):
        return CayleyElement(self.table.mul[self.idx][other.idx], self.table)

    def inverse(self):
        return CayleyElement(self.table.inv[self.idx], self.table)

    def __eq__(self, other):
        return isinstance(other, CayleyElement) and self.idx == other.idx

    def __hash__(self):
        return hash(("cayley", self.idx))

    def __repr__(self):
        return f"g{self.idx}"


class CayleyTable:
    """Validated multiplication table: Latin square, identity, associativity."""

    def __init__(self, mul):
        n = len(mul)
        if any(len(row) != n for row in mul):
            raise BadTableError("table is not square")
        full = set(range(n))
        for row in mul:
            if set(row) != full:
                raise BadTableError("row is not a permutation")
        for j in range(n):
            if {mul[i][j] for i in range(n)} != full:
                raise BadTableError("column is not a permutation")
        ident = None
        for e in range(n):
            if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise BadTableError("no identity element")
        # Light's test: the elements s with (x s) y == x (s y) for all x, y
        # are closed under products, so checking a generating set is exact.
        # Generators are picked greedily outside the closure under right
        # multiplication by the generators found so far.
        gens = []
        reached = [ident]
        seen = [False] * n
        seen[ident] = True
        for g in range(n):
            if seen[g]:
                continue
            gens.append(g)
            queue = [mul[h][g] for h in reached]
            while queue:
                h = queue.pop()
                if not seen[h]:
                    seen[h] = True
                    reached.append(h)
                    queue.extend(mul[h][s] for s in gens)
        for s in gens:
            row_s = mul[s]
            for x in range(n):
                row_x = mul[x]
                if list(mul[row_x[s]]) != [row_x[t] for t in row_s]:
                    raise BadTableError("associativity fails")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if mul[i][j] == ident:
                    inv[i] = j
                    break
        self.mul = mul
        self.inv = inv
        self.ident = ident
        self.n = n


# GroupSpec, SphericalEquation and Solution are plain classes: importing
# dataclasses brings in inspect and ast, about 0.85 MB in every process.
class GroupSpec:
    """A group family and its parameters, immutable and compared by value.

    The hash is taken once: a cayley spec is a cache key on every call, and
    hashing its table costs O(|G|^2).
    """

    def __init__(self, family: str, n: int | None = None,
                 p: int | None = None, m: int | None = None,
                 k: int | None = None, table=None):
        if family not in FAMILIES:
            raise MalformedElementError(f"unknown family {family!r}")
        from . import numtheory
        f = family
        if table is not None:
            table = tuple(tuple(row) for row in table)
        if f == "cayley":
            if table is None:
                raise MalformedElementError("cayley family needs a table")
        elif f in ("symmetric", "alternating", "dihedral"):
            if n is None or n < 1:
                raise MalformedElementError(f"{f} needs n >= 1")
        elif f == "et2n":
            if n is None or n < 3:
                raise MalformedElementError("et2n needs n >= 3")
        elif f in ("gl2p", "sl2p", "tl2p", "ut4p"):
            if p is None or not numtheory.is_prime(p):
                raise MalformedElementError(f"{f} needs a prime p")
        elif f == "heisenberg":
            if n is None or n < 3:
                raise MalformedElementError("heisenberg needs n >= 3")
            if p is None or not numtheory.is_prime(p):
                raise MalformedElementError("heisenberg needs a prime p")
        elif f == "semidirect":
            if m is None or m < 2 or k is None or k < 1:
                raise MalformedElementError("semidirect needs m >= 2, k >= 1")
        key = (family, n, p, m, k, table)
        vars(self).update(family=family, n=n, p=p, m=m, k=k, table=table,
                          _key=key, _hash=hash(key))

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupSpec is immutable: cannot set {name!r}")

    def __eq__(self, other):
        return type(other) is GroupSpec and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = zip(("family", "n", "p", "m", "k", "table"), self._key)
        return "GroupSpec(" + ", ".join(
            f"{name}={val!r}" for name, val in fields if val is not None) + ")"

    def __reduce__(self):
        # rebuild through __init__: the stored string hash and the memoised
        # tables hold in this process only
        return (GroupSpec, self._key)

    def order(self) -> int:
        f = self.family
        if f == "cayley":
            return len(self.table)
        if f == "symmetric":
            return math.factorial(self.n)
        if f == "alternating":
            return max(1, math.factorial(self.n) // 2)
        if f == "dihedral":
            return 2 * self.n
        if f == "gl2p":
            return (self.p**2 - 1) * (self.p**2 - self.p)
        if f == "sl2p":
            return self.p**3 - self.p
        if f == "tl2p":
            return self.p * (self.p - 1) ** 2
        if f == "et2n":
            return 4 * self.n
        if f == "heisenberg":
            return self.p ** (2 * (self.n - 2) + 1)
        if f == "ut4p":
            return self.p**6
        if f == "semidirect":
            return 2 * self.m**self.k
        raise MalformedElementError(f)

    def _cayley_table(self):
        return _memo(self, "cayley",
                     lambda s: CayleyTable([list(row) for row in s.table]))

    def identity(self):
        f = self.family
        if f == "cayley":
            tab = self._cayley_table()
            return CayleyElement(tab.ident, tab)
        if f in ("symmetric", "alternating"):
            from .perm import Permutation
            return Permutation.identity(self.n)
        if f == "dihedral":
            from .dihedral import DihedralElement
            return DihedralElement(0, 1, self.n)
        if f in ("gl2p", "sl2p", "tl2p"):
            from .mat2 import Mat2
            return Mat2(self.p, 1, 0, 0, 1)
        if f == "et2n":
            from .dihedral import Et2Element
            return Et2Element(1, 0, 1, self.n)
        if f == "heisenberg":
            from .highdim import HeisenbergElement
            z = (0,) * (self.n - 2)
            return HeisenbergElement(z, 0, z, self.n, self.p)
        if f == "ut4p":
            from .highdim import UT4Element
            return UT4Element(self.p, (0, 0, 0, 0, 0, 0))
        if f == "semidirect":
            from .semidirect import SemidirectElement
            return SemidirectElement((0,) * self.k, 1, self.m)
        raise MalformedElementError(f)

    def elements(self):
        if self.order() > CAP:
            raise TooLargeError(
                f"group of order {self.order()} exceeds the cap {CAP}")
        return list(self._iter_elements())

    def _iter_elements(self):
        import itertools
        f = self.family
        if f == "cayley":
            tab = self._cayley_table()
            return (CayleyElement(i, tab) for i in range(tab.n))
        if f in ("symmetric", "alternating"):
            from .perm import Permutation
            perms = (Permutation(im) for im in
                     itertools.permutations(range(1, self.n + 1)))
            if f == "alternating":
                from .perm import sign
                return (s for s in perms if sign(s) == 1)
            return perms
        if f == "dihedral":
            from .dihedral import DihedralElement
            return (DihedralElement(k, d, self.n)
                    for d in (1, -1) for k in range(self.n))
        if f in ("gl2p", "sl2p", "tl2p"):
            from .mat2 import Mat2
            p = self.p
            if f == "tl2p":
                cand = (Mat2(p, a, b, 0, d)
                        for a in range(1, p) for d in range(1, p)
                        for b in range(p))
                return cand
            cand = (Mat2(p, a, b, c, d)
                    for a in range(p) for b in range(p)
                    for c in range(p) for d in range(p)
                    if (a * d - b * c) % p != 0)
            if f == "sl2p":
                return (x for x in cand if x.det() == 1)
            return cand
        if f == "et2n":
            from .dihedral import Et2Element
            return (Et2Element(e1, b, e2, self.n)
                    for e1 in (1, self.n - 1) for e2 in (1, self.n - 1)
                    for b in range(self.n))
        if f == "heisenberg":
            from .highdim import HeisenbergElement
            p, d = self.p, self.n - 2
            vecs = list(itertools.product(range(p), repeat=d))
            return (HeisenbergElement(a1, a2, a3, self.n, p)
                    for a1 in vecs for a2 in range(p) for a3 in vecs)
        if f == "ut4p":
            from .highdim import UT4Element
            p = self.p
            return (UT4Element(p, e)
                    for e in itertools.product(range(p), repeat=6))
        if f == "semidirect":
            from .semidirect import SemidirectElement
            return (SemidirectElement(v, s, self.m)
                    for s in (1, -1)
                    for v in itertools.product(range(self.m), repeat=self.k))
        raise MalformedElementError(f)


# GroupSpec -> {name: table built for it}, shared by equal specs across
# calls.  A spec enters only once one of its tables is built, so the specs
# that closed forms handle are never kept.
_group_cache: dict = {}


def _memo(spec, name, build):
    """build(spec), kept for spec and every spec equal to it.  The instance
    holds its entry of _group_cache, so each instance looks the cache up (and
    compares its table in full) at most once."""
    tables = vars(spec).get("_tables")
    if tables is None:
        tables = vars(spec)["_tables"] = _group_cache.get(spec, {})
    val = tables.get(name)
    if val is None:
        val = tables[name] = build(spec)
        _group_cache[spec] = tables
    return val


class SphericalEquation:
    def __init__(self, group: GroupSpec, constants: list, rhs=None):
        self.group = group
        self.constants = constants
        self.rhs = rhs

    def __repr__(self):
        return (f"SphericalEquation({self.group!r}, {self.constants!r}, "
                f"{self.rhs!r})")

    def length(self) -> int:
        ident = self.group.identity()
        return sum(1 for c in self.constants if c != ident)


class Solution:
    def __init__(self, conjugators: list):
        self.conjugators = conjugators

    def __repr__(self):
        return f"Solution({self.conjugators!r})"


def normalize(eq: SphericalEquation) -> SphericalEquation:
    """Fold the rhs into the constant list and drop identity constants."""
    ident = eq.group.identity()
    constants = [c for c in eq.constants if c != ident]
    if eq.rhs is not None and eq.rhs != ident:
        constants.append(eq.rhs.inverse())
    return SphericalEquation(eq.group, constants)


def verify(eq: SphericalEquation, sol: Solution) -> bool:
    if len(sol.conjugators) != len(eq.constants):
        raise LengthMismatchError(
            f"{len(sol.conjugators)} conjugators for {len(eq.constants)} constants")
    acc = eq.group.identity()
    for c, z in zip(eq.constants, sol.conjugators):
        acc = acc * (z.inverse() * c * z)
    target = eq.rhs if eq.rhs is not None else eq.group.identity()
    return acc == target


def _swap_adjacent(constants, conjugators, i):
    """Exchange constants i and i+1, rewriting the conjugators so the product
    of conjugates is unchanged: x^-1 c x . y^-1 d y = yt^-1 d yt . x^-1 c x
    with yt = y x^-1 c^-1 x."""
    c, d = constants[i], constants[i + 1]
    out_c = list(constants)
    out_c[i], out_c[i + 1] = d, c
    out_z = None
    if conjugators is not None:
        x, y = conjugators[i], conjugators[i + 1]
        yt = y * (x.inverse() * c.inverse() * x)
        out_z = list(conjugators)
        out_z[i], out_z[i + 1] = yt, x
    return out_c, out_z


def reorder_equiv(eq: SphericalEquation, perm: list):
    """Return the equation with constants permuted (new[j] = old[perm[j]])
    plus a map taking any solution of the new equation to one of the original.
    """
    k = len(eq.constants)
    if sorted(perm) != list(range(k)):
        raise MalformedElementError("perm must be a bijection on indices")
    # Record the adjacent swaps that bubble the original order into the
    # requested one; undoing them in reverse maps solutions back.
    swaps = []
    target = list(perm)
    cur = list(range(k))
    for j in range(k):
        i = cur.index(target[j])
        while i > j:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
            swaps.append(i - 1)
            i -= 1
    new_constants = [eq.constants[t] for t in target]

    def map_back(sol: Solution) -> Solution:
        cs = list(new_constants)
        zs = list(sol.conjugators)
        for i in reversed(swaps):
            cs, zs = _swap_adjacent(cs, zs, i)
        return Solution(zs)

    return SphericalEquation(eq.group, new_constants, eq.rhs), map_back


class ConjClassTable:
    """Conjugacy classes of an enumerable group, with witnesses, and the
    class-mask engine behind the oracle.

    witness[i] conjugates the class representative onto element i, i.e.
    witness[i]^-1 . rep . witness[i] = elems[i].  A product of classes is a
    normal subset, so every set the oracle reaches is a union of classes and
    is held as a bitmask with one bit per class.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.elems = spec.elements()
        self.index = {g: i for i, g in enumerate(self.elems)}
        n = len(self.elems)
        self.class_of = [None] * n
        self.classes = []
        self.reps = []
        self.witness = [None] * n
        for i in range(n):
            if self.class_of[i] is not None:
                continue
            rep = self.elems[i]
            cls = []
            for x in self.elems:
                g = x.inverse() * rep * x
                j = self.index[g]
                if self.class_of[j] is None:
                    self.class_of[j] = len(self.classes)
                    self.witness[j] = x
                    cls.append(j)
            self.classes.append(cls)
            self.reps.append(i)
        self.ident_mask = 1 << self.class_of[self.index[spec.identity()]]
        self._prod = {}

    def class_id(self, g) -> int:
        return self.class_of[self.index[g]]

    def prod(self, a, b) -> int:
        """Mask of the classes met by rep_a . C_b, which is the mask of
        C_a . C_b; filled on first use."""
        m = self._prod.get((a, b))
        if m is None:
            elems, index, class_of = self.elems, self.index, self.class_of
            g = elems[self.reps[a]]
            m = 0
            for u in self.classes[b]:
                m |= 1 << class_of[index[g * elems[u]]]
            self._prod[(a, b)] = m
        return m

    def step(self, mask, b) -> int:
        """Mask of (union of the classes in mask) . C_b."""
        out = 0
        while mask:
            low = mask & -mask
            out |= self.prod(low.bit_length() - 1, b)
            mask ^= low
        return out

    def conjugator_onto(self, c, target):
        """z with z^-1 c z = target, for c and target in the same class."""
        i, j = self.index[c], self.index[target]
        if self.class_of[i] != self.class_of[j]:
            raise MalformedElementError("elements are not conjugate")
        return self.witness[i].inverse() * self.witness[j]


def conjugacy_classes(spec: GroupSpec) -> ConjClassTable:
    return _memo(spec, "classes", ConjClassTable)


def _class_signature(tab: ConjClassTable, eq: SphericalEquation):
    eqn = normalize(eq)
    return tuple(sorted(tab.class_id(c) for c in eqn.constants))


def decide_cayley(eq: SphericalEquation) -> bool:
    """Dynamic program over class masks.

    V_{j+1} = V_j . class(c_{j+1}); solvable iff the identity lands in V_k.
    Products of classes commute, so the constants are taken in sorted class
    order.
    """
    tab = conjugacy_classes(eq.group)
    mask = tab.ident_mask
    for b in _class_signature(tab, eq):
        mask = tab.step(mask, b)
    return bool(mask & tab.ident_mask)


def solve_brute(eq: SphericalEquation):
    """Independent constructive oracle: the class-mask DP, traced back from
    the identity, returning a verified Solution or None."""
    tab = conjugacy_classes(eq.group)
    eqn = normalize(eq)
    ids = [tab.class_id(c) for c in eqn.constants]
    masks = [tab.ident_mask]
    for b in ids:
        masks.append(tab.step(masks[-1], b))
    if not masks[-1] & tab.ident_mask:
        return None
    # trace back: g lies in V_j = V_{j-1} . C_j, so some u in C_j leaves
    # g . u^-1 in V_{j-1}; the constant c_j is then conjugated onto u
    elems = tab.elems
    ident = eq.group.identity()
    g = ident
    zs = []
    for j in range(len(ids), 0, -1):
        prev = masks[j - 1]
        for ui in tab.classes[ids[j - 1]]:
            u = elems[ui]
            v = g * u.inverse()
            if prev >> tab.class_id(v) & 1:
                break
        zs.append(tab.conjugator_onto(eqn.constants[j - 1], u))
        g = v
    zs.reverse()
    # re-inflate to the original equation: identity constants get identity
    # conjugators.  With an rhs the normalized solution gives the product
    # P = zr^-1 rhs zr, so z_i <- z_i zr^-1 yields zr P zr^-1 = rhs.
    it = iter(zs)
    full = [next(it) if c != ident else ident for c in eq.constants]
    if eq.rhs is not None and eq.rhs != ident:
        zr_inv = next(it).inverse()
        full = [z * zr_inv for z in full]
    sol = Solution(full)
    if not verify(eq, sol):
        raise RuntimeError("oracle witness fails verification")
    return sol


def saturation_length(spec: GroupSpec):
    """Least L such that every equation with >= L non-identity constants is
    solvable; None when no such L exists (detected by cycling without full
    coverage, or by the |G|^3 iteration bound)."""
    tab = conjugacy_classes(spec)
    ident_mask = tab.ident_mask
    nontrivial = [b for b in range(len(tab.classes)) if 1 << b != ident_mask]
    if not nontrivial:
        return 1
    # state: the set of reachable class masks over all constant choices.
    # The states evolve deterministically, so a repeat means a cycle; the
    # full mask maps to itself, so saturation shows up as a repeat too.
    states = {1 << b for b in nontrivial}
    seen = {}
    history = []
    for length in range(1, len(tab.elems)**3 + 1):
        history.append(all(s & ident_mask for s in states))
        key = frozenset(states)
        if key in seen:
            if not all(history[seen[key] - 1:]):
                return None
            # the least L is just past the last bad length
            return 1 + max((i + 1 for i, good in enumerate(history)
                            if not good), default=0)
        seen[key] = length
        states = {tab.step(s, b) for s in states for b in nontrivial}
    return None


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Explicit Cayley table of the direct product of two enumerable groups."""
    ea, eb = a.elements(), b.elements()
    if len(ea) * len(eb) > CAP:
        raise TooLargeError("product group exceeds the cap")
    pairs = [(x, y) for x in ea for y in eb]
    index = {pq: i for i, pq in enumerate(pairs)}
    table = [[index[(x1 * x2, y1 * y2)] for (x2, y2) in pairs]
             for (x1, y1) in pairs]
    return GroupSpec("cayley", table=tuple(tuple(r) for r in table))
