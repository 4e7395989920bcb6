"""Dihedral groups D_n and the upper triangular group ET(2,n).

D_n is Z_n x| C_2, the k = 1 case of semidirect.SemidirectElement: (k, delta)
is SemidirectElement((k,), delta, n), and (k1, d1)(k2, d2) = (k1 + d1*k2,
d1*d2).  Its equations go to the semidirect kernel: with no reflection they
ask for signs e_i with sum e_i a_i = 0 mod n (the Partition hardness);
with a reflection they are solvable iff the number of reflections is even
and either n is odd or the a_i sum to an even number.

ET(2,n) is the group of matrices [[e1, b], [0, e2]] over Z_n with e1 and
e2 = +-1, each a mat2.Mat2 with modulus n.  ET(2,n) = <-I> x D_n for n >= 3:
-I is central, and the matrices with top left entry 1 form a copy of D_n
(embed_et2) that meets <-I> only in I.  So [[e1, b], [0, e2]] splits as
(e1, (e2*b, e1*e2)); an equation over ET(2,n) is solvable iff the e1 signs
of its constants multiply to the rhs's and its D_n part is solvable.
"""

from .core import (GroupSpec, InputError, SphericalEquation, Solution,
                   checked, int_list)
from .mat2 import Mat2
from .semidirect import SemidirectElement, decide_signvector, solve_signvector

decide_dn = decide_signvector
solve_dn = solve_signvector


def reduce_partition(a) -> SphericalEquation:
    """Partition instance -> rotation constants (a_i, 1) over D_n with
    n = 1 + sum(a); solvable iff the instance splits into equal halves."""
    a = list(int_list(a, "Partition field 'a'"))
    if not a or any(x < 1 for x in a):
        raise InputError("need positive integers")
    n = 1 + sum(a)
    spec = GroupSpec("dihedral", n=n)
    # 1 <= x < n, so each rotation is reduced already
    return SphericalEquation(spec, [SemidirectElement((x,), 1, n) for x in a])


def embed_et2(el: SemidirectElement) -> Mat2:
    """The injection D_n -> ET(2,n) sending r to [[1,1],[0,1]] and s to
    [[1,0],[0,-1]]: (k, delta) -> [[1, delta*k], [0, delta]]."""
    (k,), delta, n = el.vec, el.sign, el.m
    return Mat2(n, 1, delta * k, 0, delta)


def _split_et2(eq: SphericalEquation):
    """The D_n part of an equation over ET(2,n), or None when its e1 signs
    do not multiply to the rhs's."""
    n = eq.group.n
    els = list(eq.constants) + ([] if eq.rhs is None else [eq.rhs])
    if sum(x.a != 1 for x in els) % 2:
        return None
    # [[a, b], [0, d]] -> (d*b, a*d)
    parts = [SemidirectElement((x.b if x.d == 1 else -x.b % n,),
                               1 if x.a == x.d else -1, n) for x in els]
    count = len(eq.constants)
    return SphericalEquation(GroupSpec("dihedral", n=n), parts[:count],
                             None if eq.rhs is None else parts[count])


def decide_et2(eq: SphericalEquation) -> bool:
    dn = _split_et2(eq)
    return dn is not None and decide_signvector(dn)


def solve_et2(eq: SphericalEquation):
    """Conjugators for the D_n part, embedded back: -I is central, so they
    conjugate each constant's D_n factor and leave its e1 alone."""
    dn = _split_et2(eq)
    sol = None if dn is None else solve_signvector(dn)
    if sol is None:
        return None
    return checked(eq, Solution([embed_et2(z) for z in sol.conjugators]))
