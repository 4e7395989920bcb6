"""The group families, one record each: everything the program knows about
a family apart from its kernels.

A record holds the family's parameter check, its order, identity and
element enumerator, the JSON codec of its elements, a membership test, and
its route: route(eq) gives (method name, decide, solve) for an
equation over the family.  GroupSpec, the CLI codec and the CLI router look
the record up by family name.
"""

import collections
import itertools
import math

from . import core, dihedral, highdim, mat2, numtheory, perm, semidirect
from .core import CAP, CayleyElement, InputError, TooLargeError, int_list
from .highdim import HeisenbergElement, UT4Element
from .mat2 import Mat2
from .perm import Permutation
from .semidirect import SemidirectElement

Family = collections.namedtuple("Family", (
    "check",     # check(spec): raise InputError or TooLargeError on bad
                 # parameters, before any work
    "order",     # order(spec) -> |G|
    "identity",  # identity(spec) -> the identity element
    "elements",  # elements(spec) -> iterator over every element
    "decode",    # decode(spec, obj) -> element, from its JSON object
    "encode",    # encode(el) -> JSON object
    "contains",  # contains(spec, el) -> whether a decoded el lies in G,
                 # given what decode has checked (alternating: the parity)
    "route",     # route(eq) -> (method name, decide, solve)
    "over_cap",  # over_cap(spec) -> |G| > CAP, shown without building |G|
), defaults=(lambda s: False,))


def _field(obj, key):
    """obj[key], where obj must be a JSON object holding key."""
    if type(obj) is not dict:
        raise InputError(f"expected a JSON object with field {key!r}, "
                         f"not a {type(obj).__name__}")
    if key not in obj:
        raise InputError(f"missing field {key!r}")
    return obj[key]


def _int(obj, key):
    val = _field(obj, key)
    # bool is an int subclass, so {"idx": true} would pass for 1
    if type(val) is not int:
        raise InputError(
            f"element field {key!r} must be an integer, not {val!r}")
    return val


def _ints(obj, key):
    return int_list(_field(obj, key), f"element field {key!r}")


def _sign(obj, key):
    val = _int(obj, key)
    if val not in (1, -1):
        raise InputError("sign or delta must be +-1")
    return val


def _need_n(least, most=None):
    """A check that n >= least, and n <= most when most is given: n then
    sets the group's size, and so what an element or a table costs."""
    def check(spec):
        if spec.n is None or spec.n < least:
            raise InputError(f"{spec.family} needs n >= {least}")
        if most is not None and spec.n > most:
            raise TooLargeError(f"{spec.family} field 'n' is above {most}")
    return check


def _need_prime(spec):
    # is_prime's Miller-Rabin bases are proven below 2^64 only
    if spec.p is not None and spec.p >= 1 << 64:
        raise TooLargeError(f"{spec.family} field 'p' is not below 2^64")
    if spec.p is None or not numtheory.is_prime(spec.p):
        raise InputError(f"{spec.family} needs a prime p")


def _fixed(method, decide, solve):
    route = (method, decide, solve)
    return lambda eq: route


_oracle = _fixed("cayley-dp", core.decide_cayley, core.solve_brute)


def _check_cayley(spec):
    if spec.table is None:
        raise InputError("cayley family needs a table")


def _check_heisenberg(spec):
    # the vector parts have n - 2 entries
    _need_n(3, CAP + 2)(spec)
    _need_prime(spec)


def _check_semidirect(spec):
    if spec.m is None or spec.m < 2 or spec.k is None or spec.k < 1:
        raise InputError("semidirect needs m >= 2, k >= 1")
    if spec.k > CAP:
        raise TooLargeError(f"semidirect field 'k' is above {CAP}")


def _own_field(spec, obj, key, shown):
    """Reject an element whose own field key (which encode writes) names
    another group than spec; an element without it stays valid.  shown()
    names the element, and runs only then: a permutation's repr walks its
    cycles."""
    if key in obj and _int(obj, key) != getattr(spec, key):
        raise InputError(
            f"{shown()} has {key} = {obj[key]}, the {spec.family} group has "
            f"{key} = {getattr(spec, key)}")


def _decode_mat2(spec, obj):
    rows = _field(obj, "rows")
    if (type(rows) is not list or len(rows) != 2
            or any(type(row) is not list or len(row) != 2 for row in rows)):
        raise InputError(
            f"element field 'rows' must be a 2x2 list of integers, not {rows!r}")
    a, b, c, d = int_list(rows[0] + rows[1], "element field 'rows'")
    _own_field(spec, obj, "p", lambda: f"[[{a},{b}],[{c},{d}]]")
    return Mat2(spec.p, a, b, c, d)


def outside(spec, el):
    """The error for an element el that does not lie in spec's group."""
    return InputError(f"{el!r} is not an element of the {spec.family} group")


_NOT_BIJECTION = "images must be a bijection on 1..n"


def _decode_perm(spec, obj):
    images = _ints(obj, "images")
    # sorted runs in C: faster here than the Python walk of perm.parity
    if sorted(images) != list(range(1, len(images) + 1)):
        raise InputError(_NOT_BIJECTION)
    x = Permutation(images)
    _own_field(spec, obj, "n", x.__repr__)
    return x


def _decode_even_perm(spec, obj):
    """A permutation that must be even: one walk checks the bijection and
    finds the parity, so contains need only compare n."""
    images = _ints(obj, "images")
    odd = perm.parity(images)
    if odd is None:
        raise InputError(_NOT_BIJECTION)
    x = Permutation(images)
    _own_field(spec, obj, "n", x.__repr__)
    if odd:
        raise outside(spec, x)
    return x


def _decode_semidirect(spec, obj):
    vec = _ints(obj, "vec")
    if len(vec) != spec.k:
        raise InputError(
            f"vec has length {len(vec)}, the group has k = {spec.k}")
    m = spec.m
    return SemidirectElement(tuple([v % m for v in vec]), _sign(obj, "sign"),
                             m)


def _decode_heisenberg(spec, obj):
    a1, a2, a3 = _ints(obj, "alpha1"), _int(obj, "a2"), _ints(obj, "alpha3")
    if len(a1) != spec.n - 2 or len(a3) != spec.n - 2:
        raise InputError("vector parts must have length n-2")
    return HeisenbergElement(a1, a2, a3, spec.n, spec.p)


def _decode_ut4(spec, obj):
    entries = _ints(obj, "entries")
    if len(entries) != 6:
        raise InputError("need six entries")
    return UT4Element(spec.p, entries)


def _gl2_route(eq):
    k = len(core.normalize(eq).constants)
    method = ("gl2-scalar" if k <= 1 else "gl2-k2-conjugacy" if k == 2
              else "gl2-k3-trace" if k == 3 else "gl2-k4-fold")
    return method, mat2.decide_gl2, mat2.solve_gl2


def _semidirect_route(eq):
    method = ("semidirect-reflection" if semidirect.has_reflection(eq)
              else "semidirect-signvector")
    return method, semidirect.decide_signvector, semidirect.solve_signvector


def _sl2_elements(spec):
    """The det-1 matrices in lexicographic order of (a, b, c, d): d is
    (1 + b c) / a when a != 0; when a == 0, c is -1 / b and d is free."""
    p = spec.p
    for b in range(1, p):
        c = -pow(b, -1, p)
        for d in range(p):
            yield Mat2(p, 0, b, c, d)
    for a in range(1, p):
        a_inv = pow(a, -1, p)
        for b in range(p):
            for c in range(p):
                yield Mat2(p, a, b, c, (1 + b * c) * a_inv)


def _heisenberg_elements(spec):
    p, n = spec.p, spec.n
    vecs = list(itertools.product(range(p), repeat=n - 2))
    return (HeisenbergElement(a1, a2, a3, n, p)
            for a1 in vecs for a2 in range(p) for a3 in vecs)


_SYMMETRIC = Family(
    check=_need_n(1, CAP),
    order=lambda s: math.factorial(s.n),
    identity=lambda s: Permutation.identity(s.n),
    elements=lambda s: map(Permutation,
                           itertools.permutations(range(1, s.n + 1))),
    decode=_decode_perm,
    encode=lambda x: {"n": x.n, "images": list(x.images)},
    contains=lambda s, x: x.n == s.n,
    route=_oracle)

_GL2 = Family(
    check=_need_prime,
    order=lambda s: (s.p**2 - 1) * (s.p**2 - s.p),
    identity=lambda s: Mat2.identity(s.p),
    elements=lambda s: (Mat2(s.p, a, b, c, d) for a in range(s.p)
                        for b in range(s.p) for c in range(s.p)
                        for d in range(s.p) if (a * d - b * c) % s.p),
    decode=_decode_mat2,
    encode=lambda x: {"p": x.p, "rows": [[x.a, x.b], [x.c, x.d]]},
    contains=lambda s, x: x.p == s.p and x.det() != 0,
    route=_gl2_route)

FAMILIES = {
    "cayley": Family(
        check=_check_cayley,
        order=lambda s: len(s.table),
        identity=lambda s: CayleyElement(s._cayley_table().ident,
                                         s._cayley_table()),
        elements=lambda s: (CayleyElement(i, s._cayley_table())
                            for i in range(len(s.table))),
        decode=lambda s, o: CayleyElement(_int(o, "idx"), s._cayley_table()),
        encode=lambda x: {"idx": x.idx},
        contains=lambda s, x: 0 <= x.idx < len(s.table),
        route=_oracle),
    "symmetric": _SYMMETRIC,
    "alternating": _SYMMETRIC._replace(
        order=lambda s: max(1, math.factorial(s.n) // 2),
        elements=lambda s: (x for x in _SYMMETRIC.elements(s)
                            if perm.sign(x) == 1),
        decode=_decode_even_perm),
    "dihedral": Family(
        check=_need_n(1),
        order=lambda s: 2 * s.n,
        identity=lambda s: SemidirectElement((0,), 1, s.n),
        elements=lambda s: (SemidirectElement((k,), d, s.n)
                            for d in (1, -1) for k in range(s.n)),
        decode=lambda s, o: SemidirectElement(
            (_int(o, "k") % s.n,), _sign(o, "delta"), s.n),
        encode=lambda x: {"k": x.vec[0], "delta": x.sign},
        contains=lambda s, x: x.m == s.n and len(x.vec) == 1,
        route=_fixed("dihedral-criterion", dihedral.decide_dn,
                     dihedral.solve_dn)),
    "gl2p": _GL2,
    # sl2p has no closed form here: the GL(2,p) one ignores how SL(2,p)
    # splits classes, so it goes to the oracle, which raises a capacity
    # error above CAP rather than give a GL(2,p) answer
    "sl2p": _GL2._replace(
        order=lambda s: s.p**3 - s.p,
        elements=_sl2_elements,
        contains=lambda s, x: x.p == s.p and x.det() == 1,
        route=_oracle),
    "tl2p": _GL2._replace(
        order=lambda s: s.p * (s.p - 1) ** 2,
        elements=lambda s: (Mat2(s.p, a, b, 0, d) for a in range(1, s.p)
                            for d in range(1, s.p) for b in range(s.p)),
        contains=lambda s, x: (x.p == s.p and x.c == 0
                               and x.a != 0 and x.d != 0),
        route=_fixed("tl2-closed-form", mat2.decide_tl2, mat2.solve_tl2)),
    "et2n": Family(
        check=_need_n(3),
        order=lambda s: 4 * s.n,
        identity=lambda s: Mat2.identity(s.n),
        elements=lambda s: (Mat2(s.n, e1, b, 0, e2)
                            for e1 in (1, s.n - 1) for e2 in (1, s.n - 1)
                            for b in range(s.n)),
        decode=lambda s, o: Mat2(s.n, _int(o, "e1"), _int(o, "b"), 0,
                                 _int(o, "e2")),
        encode=lambda x: {"e1": x.a, "b": x.b, "e2": x.d},
        contains=lambda s, x: (x.p == s.n and x.c == 0
                               and x.a in (1, s.n - 1)
                               and x.d in (1, s.n - 1)),
        route=_fixed("et2n-criterion", dihedral.decide_et2,
                     dihedral.solve_et2)),
    "heisenberg": Family(
        check=_check_heisenberg,
        order=lambda s: s.p ** (2 * (s.n - 2) + 1),
        identity=lambda s: HeisenbergElement(
            (0,) * (s.n - 2), 0, (0,) * (s.n - 2), s.n, s.p),
        elements=_heisenberg_elements,
        decode=_decode_heisenberg,
        encode=lambda x: {"alpha1": list(x.a1), "a2": x.a2,
                          "alpha3": list(x.a3)},
        contains=lambda s, x: (x.n, x.p) == (s.n, s.p),
        route=_fixed("heisenberg-closed-form", highdim.decide_heisenberg,
                     highdim.solve_heisenberg)),
    "ut4p": Family(
        check=_need_prime,
        order=lambda s: s.p**6,
        identity=lambda s: UT4Element(s.p, (0,) * 6),
        elements=lambda s: (UT4Element(s.p, e) for e in
                            itertools.product(range(s.p), repeat=6)),
        decode=_decode_ut4,
        encode=lambda x: {"entries": list(x.e)},
        contains=lambda s, x: x.p == s.p,
        route=_fixed("ut4-closed-form", highdim.decide_ut4,
                     highdim.solve_ut4)),
    "semidirect": Family(
        check=_check_semidirect,
        order=lambda s: 2 * s.m**s.k,
        identity=lambda s: SemidirectElement((0,) * s.k, 1, s.m),
        elements=lambda s: (SemidirectElement(v, sign, s.m)
                            for sign in (1, -1) for v in
                            itertools.product(range(s.m), repeat=s.k)),
        decode=_decode_semidirect,
        encode=lambda x: {"vec": list(x.vec), "sign": x.sign},
        contains=lambda s, x: x.m == s.m and len(x.vec) == s.k,
        route=_semidirect_route,
        # m^k >= 2^(k (bits(m) - 1)), and 2 m^k can have millions of digits
        over_cap=lambda s: s.k * (s.m.bit_length() - 1) >= CAP.bit_length()),
}
