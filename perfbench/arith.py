"""Group arithmetic, conjugacy classes and combinatorial solvers, written
apart from the program under test.

The checker re-derives verdicts and re-multiplies witnesses with this module
alone, so a fault in the program cannot hide behind a helper it shares with
its own check.  Conventions follow the program's JSON contract: permutations
are 1-based image lists with (s*t)(i) = s(t(i)); the conjugate of c by z is
z^-1 c z; an equation holds when the left-to-right product of the conjugates
equals the rhs (the identity when there is none).
"""

import itertools

# --------------------------------------------------------------------------
# primes


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


P_MIN, P_MAX = 1009, (1 << 61) - 1


def random_prime(rng):
    """A prime in [P_MIN, P_MAX] whose bit length is uniform over 10..61."""
    bits = rng.randint(10, 61)
    lo = max(P_MIN, 1 << (bits - 1))
    hi = min(P_MAX, (1 << bits) - 1)
    n = rng.randint(lo, hi) | 1
    while not is_prime(n):
        n += 2
    return n


# --------------------------------------------------------------------------
# groups: each has one(), mul(x, y), inv(x), contains(x), and a JSON codec


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def _ints(obj, what):
    if not isinstance(obj, list) or not all(
            type(v) is int for v in obj):
        raise CheckError(f"{what}: expected a list of integers, got {obj!r}")
    return obj


class PermGroup:
    """S_n, or A_n when alternating is set."""

    def __init__(self, n, alternating=False):
        self.n = n
        self.alternating = alternating
        self.family = "alternating" if alternating else "symmetric"

    def spec(self):
        return {"family": self.family, "n": self.n}

    def one(self):
        return tuple(range(1, self.n + 1))

    @staticmethod
    def mul(s, t):
        return tuple(s[j - 1] for j in t)

    @staticmethod
    def inv(s):
        out = [0] * len(s)
        for i, j in enumerate(s, start=1):
            out[j - 1] = i
        return tuple(out)

    def contains(self, s):
        if len(s) != self.n or sorted(s) != list(range(1, self.n + 1)):
            return False
        return not self.alternating or perm_sign(s) == 1

    def decode(self, obj):
        if obj.get("n", self.n) != self.n:
            raise CheckError(f"degree {obj.get('n')} in S_{self.n}")
        return tuple(_ints(obj["images"], "images"))

    def encode(self, s):
        return {"images": list(s)}

    def elements(self):
        out = itertools.permutations(range(1, self.n + 1))
        if self.alternating:
            return [s for s in out if perm_sign(s) == 1]
        return list(out)


def perm_sign(s):
    seen = [False] * len(s)
    even_cycles = 0
    for start in range(len(s)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = s[i] - 1
            length += 1
        even_cycles += length % 2 == 0
    return -1 if even_cycles % 2 else 1


def cycle(points, n):
    """The permutation of degree n cycling points[0] -> points[1] -> ..."""
    images = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b
    return tuple(images)


class Mat2Group:
    """GL(2,p), or its upper-triangular subgroup TL(2,p); elements are
    (a, b, c, d) for [[a, b], [c, d]]."""

    def __init__(self, p, triangular=False):
        self.p = p
        self.triangular = triangular
        self.family = "tl2p" if triangular else "gl2p"

    def spec(self):
        return {"family": self.family, "p": self.p}

    def one(self):
        return (1, 0, 0, 1)

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        p = self.p
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    def det(self, x):
        return (x[0] * x[3] - x[1] * x[2]) % self.p

    def inv(self, x):
        a, b, c, d = x
        p = self.p
        di = pow(self.det(x), -1, p)
        return (d * di % p, -b * di % p, -c * di % p, a * di % p)

    def contains(self, x):
        if not all(0 <= v < self.p for v in x) or self.det(x) == 0:
            return False
        return not self.triangular or x[2] == 0

    def decode(self, obj):
        if obj.get("p", self.p) != self.p:
            raise CheckError(f"modulus {obj.get('p')} in a group over {self.p}")
        rows = obj["rows"]
        if not isinstance(rows, list) or len(rows) != 2:
            raise CheckError(f"rows: {rows!r}")
        return tuple(_ints(rows[0], "row") + _ints(rows[1], "row"))

    def encode(self, x):
        return {"rows": [[x[0], x[1]], [x[2], x[3]]]}

    def random(self, rng):
        p = self.p
        while True:
            c = 0 if self.triangular else rng.randrange(p)
            x = (rng.randrange(p), rng.randrange(p), c, rng.randrange(p))
            if self.det(x):
                return x

    def elements(self):
        p = self.p
        return [x for x in itertools.product(range(p), repeat=4)
                if self.det(x) and (not self.triangular or x[2] == 0)]


class HeisenbergGroup:
    """H_n^(p): block matrices [[1, a1, a2], [0, I, a3], [0, 0, 1]] with a1 a
    row and a3 a column of length n-2; elements are (a1, a2, a3)."""

    family = "heisenberg"

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.d = n - 2

    def spec(self):
        return {"family": "heisenberg", "n": self.n, "p": self.p}

    def one(self):
        z = (0,) * self.d
        return (z, 0, z)

    def mul(self, x, y):
        p = self.p
        a1, a2, a3 = x
        b1, b2, b3 = y
        dot = sum(u * v for u, v in zip(a1, b3))
        return (tuple((u + v) % p for u, v in zip(a1, b1)),
                (a2 + b2 + dot) % p,
                tuple((u + v) % p for u, v in zip(a3, b3)))

    def inv(self, x):
        p = self.p
        a1, a2, a3 = x
        dot = sum(u * v for u, v in zip(a1, a3))
        return (tuple(-u % p for u in a1), (dot - a2) % p,
                tuple(-u % p for u in a3))

    def contains(self, x):
        a1, a2, a3 = x
        return (len(a1) == len(a3) == self.d
                and all(0 <= v < self.p for v in a1 + (a2,) + a3))

    def decode(self, obj):
        return (tuple(_ints(obj["alpha1"], "alpha1")),
                _ints([obj["a2"]], "a2")[0],
                tuple(_ints(obj["alpha3"], "alpha3")))

    def encode(self, x):
        return {"alpha1": list(x[0]), "a2": x[1], "alpha3": list(x[2])}

    def random(self, rng):
        p, d = self.p, self.d
        return (tuple(rng.randrange(p) for _ in range(d)), rng.randrange(p),
                tuple(rng.randrange(p) for _ in range(d)))


class UT4Group:
    """UT(4,p); elements are the strict upper entries
    (x12, x13, x14, x23, x24, x34), multiplied as full 4x4 matrices."""

    family = "ut4p"
    _POS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def __init__(self, p):
        self.p = p

    def spec(self):
        return {"family": "ut4p", "p": self.p}

    def one(self):
        return (0,) * 6

    def _matrix(self, x):
        m = [[int(i == j) for j in range(4)] for i in range(4)]
        for (i, j), v in zip(self._POS, x):
            m[i][j] = v
        return m

    def mul(self, x, y):
        a, b = self._matrix(x), self._matrix(y)
        return tuple(sum(a[i][t] * b[t][j] for t in range(4)) % self.p
                     for i, j in self._POS)

    def inv(self, x):
        # (I + N)^-1 = I - N + N^2 - N^3 for strictly upper-triangular N
        p = self.p
        n = self._matrix(x)
        for i in range(4):
            n[i][i] = 0
        acc = [[int(i == j) for j in range(4)] for i in range(4)]
        term = [row[:] for row in acc]
        for sign in (-1, 1, -1):
            term = [[sum(term[i][t] * n[t][j] for t in range(4))
                     for j in range(4)] for i in range(4)]
            acc = [[acc[i][j] + sign * term[i][j] for j in range(4)]
                   for i in range(4)]
        return tuple(acc[i][j] % p for i, j in self._POS)

    def contains(self, x):
        return len(x) == 6 and all(0 <= v < self.p for v in x)

    def decode(self, obj):
        return tuple(_ints(obj["entries"], "entries"))

    def encode(self, x):
        return {"entries": list(x)}

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(6))


class DihedralGroup:
    """D_n as pairs (k, delta): (k1, d1)(k2, d2) = (k1 + d1 k2, d1 d2)."""

    family = "dihedral"

    def __init__(self, n):
        self.n = n

    def spec(self):
        return {"family": "dihedral", "n": self.n}

    def one(self):
        return (0, 1)

    def mul(self, x, y):
        return ((x[0] + x[1] * y[0]) % self.n, x[1] * y[1])

    def inv(self, x):
        return (-x[1] * x[0] % self.n, x[1])

    def contains(self, x):
        return 0 <= x[0] < self.n and x[1] in (1, -1)

    def decode(self, obj):
        k, delta = obj["k"], obj["delta"]
        if type(k) is not int or type(delta) is not int:
            raise CheckError(f"dihedral element {obj!r}")
        return (k, delta)

    def encode(self, x):
        return {"k": x[0], "delta": x[1]}

    def random(self, rng):
        return (rng.randrange(self.n), rng.choice((1, -1)))


class CayleyGroup:
    """A group given by its multiplication table; elements are row indices."""

    family = "cayley"

    def __init__(self, table):
        self.table = table
        self.n = len(table)
        self.ident = next(e for e in range(self.n)
                          if all(table[e][x] == x for x in range(self.n)))
        self._inv = [table[i].index(self.ident) for i in range(self.n)]

    def spec(self):
        return {"family": "cayley", "table": self.table}

    def one(self):
        return self.ident

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inv[x]

    def contains(self, x):
        return type(x) is int and 0 <= x < self.n

    def decode(self, obj):
        return obj["idx"]

    def encode(self, x):
        return {"idx": x}

    def elements(self):
        return list(range(self.n))


def sl25_table():
    """Multiplication table of SL(2,5), order 120: a perfect group whose
    centre {I, -I} keeps it from ever saturating."""
    g = Mat2Group(5)
    elems = [x for x in g.elements() if g.det(x) == 1]
    index = {x: i for i, x in enumerate(elems)}
    return [[index[g.mul(x, y)] for y in elems] for x in elems]


# --------------------------------------------------------------------------
# equations


def product_of_conjugates(group, constants, conjugators):
    acc = group.one()
    for c, z in zip(constants, conjugators):
        acc = group.mul(acc, group.mul(group.inv(z), group.mul(c, z)))
    return acc


def planted(group, rng, k):
    """k constants with a hidden solution: random x_1..x_{k-1}, x_k the
    inverse of their product, each then conjugated by a random w_i, so that
    z_i = w_i^-1 solves the equation."""
    xs = [group.random(rng) for _ in range(k - 1)]
    acc = group.one()
    for x in xs:
        acc = group.mul(acc, x)
    xs.append(group.inv(acc))
    out = []
    for x in xs:
        w = group.random(rng)
        out.append(group.mul(group.inv(w), group.mul(x, w)))
    return out


# --------------------------------------------------------------------------
# conjugacy classes and the class-level decision procedure


class ClassTable:
    """Conjugacy classes of an enumerable group, and for each pair of
    classes (a, b) the bitmask of classes that rep_a * C_b meets.  Since a
    product of classes is a union of classes, reachability over class masks
    decides every equation over the group exactly."""

    def __init__(self, group, elements):
        self.group = group
        self.elems = elements
        self.index = {x: i for i, x in enumerate(elements)}
        mul, inv = group.mul, group.inv
        n = len(elements)
        inverses = [inv(x) for x in elements]
        self.class_of = [-1] * n
        self.reps = []
        self.sizes = []
        for i in range(n):
            if self.class_of[i] >= 0:
                continue
            cid = len(self.reps)
            rep = elements[i]
            size = 0
            for x, xi in zip(elements, inverses):
                j = self.index[mul(xi, mul(rep, x))]
                if self.class_of[j] < 0:
                    self.class_of[j] = cid
                    size += 1
            self.reps.append(rep)
            self.sizes.append(size)
        ncls = len(self.reps)
        self.prod = [[0] * ncls for _ in range(ncls)]
        for a, rep in enumerate(self.reps):
            row = self.prod[a]
            for u, x in enumerate(elements):
                row[self.class_of[u]] |= 1 << self.class_of[
                    self.index[mul(rep, x)]]
        self.ident_class = self.class_of[self.index[group.one()]]

    def class_id(self, x):
        return self.class_of[self.index[x]]

    def step(self, mask, cls):
        out = 0
        a = 0
        while mask:
            if mask & 1:
                out |= self.prod[a][cls]
            mask >>= 1
            a += 1
        return out

    def solvable(self, constants):
        mask = 1 << self.ident_class
        for c in constants:
            mask = self.step(mask, self.class_id(c))
        return bool(mask >> self.ident_class & 1)

    def saturation(self):
        """Least L such that every product of >= L nontrivial classes
        contains the identity, or None.  The set of reachable class masks
        per length is a deterministic sequence on a finite state space, so
        it cycles; L exists iff every length in the cycle is good."""
        nontrivial = [c for c in range(len(self.reps))
                      if c != self.ident_class]
        states = frozenset(1 << c for c in nontrivial)
        seen = {}
        good = []
        while states not in seen:
            seen[states] = len(good)
            good.append(all(s >> self.ident_class & 1 for s in states))
            states = frozenset(self.step(s, c) for s in states
                               for c in nontrivial)
        if not all(good[seen[states]:]):
            return None
        return 1 + max((i + 1 for i, g in enumerate(good) if not g),
                       default=0)


# --------------------------------------------------------------------------
# combinatorial solvers for the reduction sources


def has_partition(a):
    """Whether the multiset a splits into two halves of equal sum."""
    total = sum(a)
    if total % 2:
        return False
    reach = 1
    for x in a:
        reach |= reach << x
    return bool(reach >> (total // 2) & 1)


def exact_cover(k, subsets):
    """Indices (1-based) of subsets partitioning 1..k, or None."""
    sets = [frozenset(s) for s in subsets]
    by_point = {j: [i for i, s in enumerate(sets) if j in s]
                for j in range(1, k + 1)}

    def search(covered, chosen):
        free = [j for j in range(1, k + 1) if j not in covered]
        if not free:
            return chosen
        j = min(free, key=lambda q: len(by_point[q]))
        for i in by_point[j]:
            if not sets[i] & covered:
                got = search(covered | sets[i], chosen + [i + 1])
                if got is not None:
                    return got
        return None

    return search(frozenset(), [])


def three_partition(a):
    """Index triples (0-based) partitioning a into sums of L = 3 sum / len,
    or None."""
    k = len(a) // 3
    target = sum(a) // k
    order = sorted(range(len(a)), key=lambda i: -a[i])
    used = [False] * len(a)

    def search():
        first = next((i for i in order if not used[i]), None)
        if first is None:
            return []
        used[first] = True
        rest = [i for i in order if not used[i]]
        tried = set()
        for x, j in enumerate(rest):
            for l in rest[x + 1:]:
                key = (a[j], a[l])
                if a[first] + a[j] + a[l] != target or key in tried:
                    continue
                tried.add(key)
                used[j] = used[l] = True
                got = search()
                used[j] = used[l] = False
                if got is not None:
                    return [(first, j, l)] + got
        used[first] = False
        return None

    return search()
