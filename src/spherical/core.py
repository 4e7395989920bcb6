"""Group specs, spherical equations, the generic Cayley-table decision
procedure, the brute-force oracle, verification, and saturation lengths.

An equation is a list of constants c_i over a declared group; it is solvable
when conjugators z_i exist with prod_i z_i^-1 c_i z_i = 1 (or = rhs).
"""

import random

CAP = 10**4
# the most free vectors a meet-in-the-middle signed-sum search takes
SIGN_CAP = 32
# the most bits one half of that search may hold: 2^ceil(count/2) sums of
# dim fields of bits(m) + 1 bits each (scripts/signed_sum_sweep.py)
SIGN_BUDGET = 1 << 30


class InputError(ValueError):
    """A payload the program cannot take: a missing or mistyped field, an
    element outside its group, a bad table or reduction instance.  Raised
    only where input from outside enters; a broken precondition inside a
    kernel is a plain ValueError, and a bug."""


class TooLargeError(Exception):
    pass


def int_list(vals, what):
    """vals, when it is a list, tuple or set of integers (a bool is not
    one); otherwise an InputError naming what."""
    if (type(vals) not in (list, tuple, set, frozenset)
            or not set(map(type, vals)) <= {int}):
        raise InputError(f"{what} must be a list of integers, not {vals!r}")
    return vals


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


def generating_set(n, ident, mul):
    """Indices of elements whose closure under right multiplication from
    ident is all of 0..n-1, where mul(h, s) is the index of h . s.

    In a finite group that closure is the subgroup the elements generate.
    Two elements are drawn first: two random elements of S_n generate it
    with probability tending to 3/4 (Dixon 1969), and a pair usually
    generates the other families too.  The draw is seeded with n alone, so
    it does not depend on --seed or on hash().  While the closure falls
    short, the first element outside it joins the set, so every group gets
    a generating set, abelian ones included.
    """
    gens = []
    reached = [ident]
    seen = bytearray(n)
    seen[ident] = 1
    draw = random.Random(n).sample(range(n), min(2, n))
    while len(reached) < n:
        g = next((g for g in draw if not seen[g]), None)
        if g is None:
            g = seen.index(0)
        gens.append(g)
        queue = [mul(h, g) for h in reached]
        while queue:
            h = queue.pop()
            if not seen[h]:
                seen[h] = 1
                reached.append(h)
                queue.extend(mul(h, s) for s in gens)
    return gens


class CayleyTable:
    """Validated multiplication table: Latin square, identity, associativity."""

    def __init__(self, mul):
        n = len(mul)
        if any(len(row) != n for row in mul):
            raise InputError("table is not square")
        full = set(range(n))
        for row in mul:
            # True == 1 and 1.0 == 1, so a row of bools or floats would pass
            if set(map(type, row)) != {int}:
                raise InputError("table entries must be integers")
            if set(row) != full:
                raise InputError("row is not a permutation")
        for j in range(n):
            if {mul[i][j] for i in range(n)} != full:
                raise InputError("column is not a permutation")
        ident = None
        for e in range(n):
            if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InputError("no identity element")
        # Light's test: the elements s with (x s) y == x (s y) for all x, y
        # are closed under products and hold the identity, so checking the
        # generators of the closure under right multiplication is exact.
        gens = generating_set(n, ident, lambda h, s: mul[h][s])
        for s in gens:
            row_s = mul[s]
            for x in range(n):
                row_x = mul[x]
                if list(mul[row_x[s]]) != [row_x[t] for t in row_s]:
                    raise InputError("associativity fails")
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
        from .families import FAMILIES
        record = FAMILIES.get(family) if type(family) is str else None
        if record is None:
            raise InputError(f"unknown family {family!r}")
        for key, val in (("n", n), ("p", p), ("m", m), ("k", k)):
            # bool is an int subclass, and a float p reaches pow() as a modulus
            if val is not None and type(val) is not int:
                raise InputError(
                    f"group field {key!r} must be an integer, not {val!r}")
        if table is not None:
            if (type(table) not in (list, tuple)
                    or not set(map(type, table)) <= {list, tuple}):
                raise InputError("group field 'table' must be a list of rows")
            table = tuple(tuple(row) for row in table)
        key = (family, n, p, m, k, table)
        # CayleyTable checks that the entries are integers when it is built;
        # checking each entry here would cost more than the hash, on every
        # request for a table group
        try:
            key_hash = hash(key)
        except TypeError:  # an entry that is a list or an object
            raise InputError("table entries must be integers") from None
        vars(self).update(family=family, n=n, p=p, m=m, k=k, table=table,
                          _family=record, _identity=None, _key=key,
                          _hash=key_hash)
        record.check(self)

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
        return self._family.order(self)

    def _cayley_table(self):
        return _memo(self, "cayley",
                     lambda s: CayleyTable([list(row) for row in s.table]))

    def identity(self):
        """The identity element, built once per spec; elements are never
        changed after construction, so callers may share it."""
        ident = self._identity
        if ident is None:
            ident = vars(self)["_identity"] = self._family.identity(self)
        return ident

    def elements(self):
        # the order itself is not printed: str() refuses ints of more than
        # 4300 digits, and |S_n| has them from n = 1559
        if self._family.over_cap(self) or self.order() > CAP:
            raise TooLargeError(
                f"the {self.family} group has more than {CAP} elements")
        return list(self._family.elements(self))


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
        raise InputError(
            f"{len(sol.conjugators)} conjugators for {len(eq.constants)} constants")
    acc = eq.group.identity()
    for c, z in zip(eq.constants, sol.conjugators):
        acc = acc * (z.inverse() * c * z)
    target = eq.rhs if eq.rhs is not None else eq.group.identity()
    return acc == target


def reinflate(eq: SphericalEquation, zs) -> Solution:
    """Lift conjugators zs solving normalize(eq) to a checked Solution of eq.

    Identity constants get identity conjugators.  With an rhs, zs solves
    the equation with rhs^-1 appended as a last constant, conjugated by zr:
    the product of the other conjugates is P = zr^-1 rhs zr, so
    z_i <- z_i zr^-1 makes it zr P zr^-1 = rhs.
    """
    ident = eq.group.identity()
    it = iter(zs)
    full = [next(it) if c != ident else ident for c in eq.constants]
    if eq.rhs is not None and eq.rhs != ident:
        zr_inv = next(it).inverse()
        full = [z * zr_inv for z in full]
    return checked(eq, Solution(full))


def checked(eq: SphericalEquation, sol: Solution) -> Solution:
    """sol, once every conjugator lies in the declared group and verify
    accepts it: explicit raises, which python -O keeps, so no solver can
    emit a wrong witness.  Membership is the family's contains, which for
    alternating checks only the degree: its decoder checks the parity."""
    spec = eq.group
    contains = spec._family.contains
    for z in sol.conjugators:
        if not contains(spec, z):
            raise RuntimeError(f"witness {z!r} lies outside the group")
    if not verify(eq, sol):
        raise RuntimeError("witness fails verification")
    return sol


class ConjClassTable:
    """Conjugacy classes of an enumerable group, with witnesses, and the
    class-mask engine behind the oracle.

    witness[i] conjugates the class representative onto element i, i.e.
    witness[i]^-1 . rep . witness[i] = elems[i].  Classes are numbered in
    the order of their first elements, and each class's representative is
    its first element.  A class is grown as an orbit under conjugation by
    a generating set S: reaching s^-1 h s from h, whose witness is w, gives
    it the witness w . s.  That is |G|.|S| conjugations, instead of
    |G| for each class.

    A product of classes is a normal subset, so every set the oracle
    reaches is a union of classes and is held as a bitmask with one bit per
    class.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.elems = elems = spec.elements()
        self.index = index = {g: i for i, g in enumerate(elems)}
        n = len(elems)
        ident = spec.identity()
        gens = [elems[s] for s in generating_set(
            n, index[ident], lambda h, s: index[elems[h] * elems[s]])]
        pairs = [(s.inverse(), s) for s in gens]
        self.class_of = class_of = [None] * n
        self.witness = witness = [None] * n
        self.classes = []
        self.reps = []
        for i in range(n):
            if class_of[i] is not None:
                continue
            c = len(self.classes)
            class_of[i] = c
            witness[i] = ident
            cls = [i]
            for j in cls:  # cls grows as it is walked: breadth-first
                h, w = elems[j], witness[j]
                for s_inv, s in pairs:
                    k = index[s_inv * h * s]
                    if class_of[k] is None:
                        class_of[k] = c
                        # the stored element, not the fresh product: that
                        # would keep |G| more objects alive
                        witness[k] = elems[index[w * s]]
                        cls.append(k)
            self.classes.append(cls)
            self.reps.append(i)
        self.ident_mask = 1 << class_of[index[ident]]
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
            raise ValueError("elements are not conjugate")
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
    g = eq.group.identity()
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
    return reinflate(eq, zs)


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


def signed_sum_signs(vecs, target, m):
    """Signs e_i = +-1 with sum_i e_i vecs[i] = target componentwise mod m,
    as a tuple, or None when no choice of signs works.

    One coordinate modulo a small m runs a bitset DP, costing count * m / 64
    machine words; anything else runs a meet in the middle, costing about
    2^(count/2) dict steps.  So the bitset runs when 2^(count/2) * 64 >= m,
    and while its count * m bits stay within CAP^2.

    With more than one coordinate, _presolve first fixes every sign that a
    coordinate touched by one vector forces, and the meet in the middle
    runs on the free vectors alone, over the coordinates still open.  In
    one coordinate it could fix only a lone vector, so it does not run.
    The meet in the middle takes at most SIGN_CAP free vectors and
    SIGN_BUDGET bits per half, or TooLargeError.
    """
    if len(target) == 1:
        count = len(vecs)
        if 4096 << count >= m * m and count * m <= CAP * CAP:
            return _bitset_signs([v for v, in vecs], target[0], m)
        _check_search_size(count, 1, m)
        return _meet_in_the_middle(vecs, target, m)
    found = _presolve(vecs, target, m)
    if found is None:
        return None
    signs, free, rest, rest_target = found
    if free:
        _check_search_size(len(free), len(rest_target), m)
        part = _meet_in_the_middle(rest, rest_target, m)
        if part is None:
            return None
        for i, e in zip(free, part):
            signs[i] = e
    return tuple(signs)


def _check_search_size(count, dim, m):
    """TooLargeError when a meet in the middle over count vectors of dim
    coordinates passes SIGN_CAP vectors or SIGN_BUDGET bits per half."""
    if count > SIGN_CAP:
        # no m in the message: str() refuses ints past 4300 digits
        raise TooLargeError(
            f"{count} constants are too many for a signed-sum search")
    if (1 << (count + 1) // 2) * dim * (m.bit_length() + 1) > SIGN_BUDGET:
        raise TooLargeError(
            f"a signed-sum search over {count} constants in {dim} "
            f"coordinates is too large")


def _presolve(vecs, target, m):
    """The signs that single coordinates force, as (signs, free, rest,
    rest_target), or None when some coordinate has no solution.

    A coordinate that no live vector touches (entry 0 mod m) needs target
    0 there.  One that a single live vector touches, with entry a, needs
    e a = t there: 2a = 0 fixes nothing but needs t = a, and otherwise
    t = a fixes e = 1, t = -a fixes e = -1 and any other t has no sign.
    A fixed vector leaves the live set with its sum subtracted from the
    target, which may leave another coordinate with one live vector, so
    the rule runs until no coordinate qualifies.

    signs[i] is the fixed sign, or 0 for vector i still free.  free lists
    the free vectors that touch an open coordinate; rest holds them
    restricted to the open coordinates, and rest_target is the target
    there.  A free vector that touches no open coordinate takes sign 1.
    """
    dim = len(target)
    target = [t % m for t in target]
    signs = [0] * len(vecs)
    if vecs:
        users = [[i for i, x in enumerate(col) if x % m]
                 for col in zip(*vecs)]
    else:
        users = [[]] * dim
    live = [len(u) for u in users]
    is_open = [True] * dim
    queue = [j for j in range(dim) if live[j] < 2]
    while queue:
        j = queue.pop()
        if not is_open[j]:
            continue
        is_open[j] = False
        t = target[j]
        if not live[j]:
            if t:
                return None
            continue
        for i in users[j]:
            if not signs[i]:
                break
        a = vecs[i][j] % m
        if t == a:
            e = 1
        elif t == m - a:
            e = -1
        else:
            return None
        if a == m - a:
            # 2a = 0: both signs give a, so the coordinate holds either way
            continue
        signs[i] = e
        for k, x in enumerate(vecs[i]):
            if x % m:
                target[k] = (target[k] - e * x) % m
                live[k] -= 1
                if live[k] < 2 and is_open[k]:
                    queue.append(k)
    cols = [j for j in range(dim) if is_open[j]]
    free, rest = [], []
    for i, e in enumerate(signs):
        if not e:
            v = vecs[i]
            v = [v[j] for j in cols]
            if any(x % m for x in v):
                free.append(i)
                rest.append(v)
            else:
                signs[i] = 1
    return signs, free, rest, [target[j] for j in cols]


def _bitset_signs(values, target, m):
    """signed_sum_signs for one coordinate: layer j holds the residues
    reachable with the first j values as an m-bit int, the next layer is
    that int rotated by +v and by -v, and the trace back from the target
    tests one bit per layer."""
    full = (1 << m) - 1
    values = [v % m for v in values]
    layers = [1]
    for v in values:
        reach = layers[-1]
        layers.append((reach << v | reach >> (m - v)
                       | reach >> v | reach << (m - v)) & full)
    r = target % m
    if not layers[-1] >> r & 1:
        return None
    signs = []
    for j in range(len(values) - 1, -1, -1):
        e = 1 if layers[j] >> (r - values[j]) % m & 1 else -1
        r = (r - e * values[j]) % m
        signs.append(e)
    return tuple(reversed(signs))


def _meet_in_the_middle(vecs, target, m):
    """signed_sum_signs by meet in the middle (Horowitz and Sahni): the
    signed sums of the first half are joined on equality with target minus
    the signed sums of the second half.  Each half is built one vector at a
    time and deduplicated as it grows, keeping one sign choice per sum, so
    it holds at most min(2^(count/2), m^dim) sums and costs about
    2 * 2^(count/2) vector additions instead of 2^count.
    """
    # A vector is one int with a field of b bits per coordinate holding a
    # residue.  Adding an addend whose fields lie in 0..m keeps every field
    # below 2m; adding off sets a field's top bit exactly when it reached m,
    # and those fields then drop m, with no carry between fields.
    b = m.bit_length() + 1
    ones = ((1 << b * len(target)) - 1) // ((1 << b) - 1)
    off = ones * ((1 << (b - 1)) - m)
    top = ones << (b - 1)

    def pack(v):
        return sum(x % m << b * j for j, x in enumerate(v))

    def sums(start, pairs):
        """{start + one addend of each pair: bitmask of the second picks}"""
        reach = {start: 0}
        for i, (plus, minus) in enumerate(pairs):
            bit = 1 << i
            nxt = {}
            for s, mask in reach.items():
                t = s + plus
                t -= ((t + off & top) >> (b - 1)) * m
                if t not in nxt:
                    nxt[t] = mask
                t = s + minus
                t -= ((t + off & top) >> (b - 1)) * m
                if t not in nxt:
                    nxt[t] = mask | bit
            reach = nxt
        return reach

    h = len(vecs) // 2
    # the fields of ones * m - pack(v) hold m - x, which stands for -x
    pairs = [(p, ones * m - p) for p in map(pack, vecs)]
    left = sums(0, pairs[:h])
    # target - e v is target + e (-v): swapping each pair keeps bit i set
    # exactly where e_i = -1, as in the first half
    right = sums(pack(target), [(minus, plus) for plus, minus in pairs[h:]])
    for s in left.keys() & right.keys():
        mask = left[s] | right[s] << h
        return tuple(-1 if mask >> i & 1 else 1 for i in range(len(vecs)))
    return None
