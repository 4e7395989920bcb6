"""The output checker.

Every check uses `arith` only and never the program's own `verify`: a
witness is decoded, tested for membership in the declared group and
re-multiplied; a verdict is compared with one known by construction (planted
or broken by an invariant), with the class-level decision procedure over an
enumerated group, or with a direct combinatorial search.  Each function
returns a closure `check(outputs, sent)`, where `outputs` are the parsed
JSON replies of the request's calls and `sent` is the payload of its second
call, and raises `CheckError` on the first disagreement.
"""

import arith
from arith import CheckError, DihedralGroup, PermGroup


def _expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def _check_witness(group, constants, conjugators):
    """Membership of every conjugator, then the product of conjugates."""
    _expect(len(conjugators) == len(constants),
            f"{len(conjugators)} conjugators for {len(constants)} constants")
    zs = [group.decode(z) for z in conjugators]
    for z in zs:
        _expect(group.contains(z),
                f"conjugator {z!r} is not in {group.spec()['family']}")
    got = arith.product_of_conjugates(group, constants, zs)
    _expect(got == group.one(), f"conjugators give {got!r}, not 1")


def _check_report(group, verb, constants, out, solvable):
    _expect(out.get("solvable") is solvable,
            f"{verb}: solvable={out.get('solvable')!r}, expected {solvable}")
    if verb != "solve":
        return
    if solvable:
        _expect(out.get("verified") is True, "solve: not marked verified")
        _check_witness(group, constants, out.get("conjugators"))
    else:
        _expect("conjugators" not in out, "solve: witness for a no")


def oracle_check(g, verb, constants):
    def run(outputs, sent):
        solvable = g.classes.solvable(constants)
        _check_report(g.group, verb, constants, outputs[0], solvable)
    return run


def saturation_expectation(g):
    """The saturation length by class-mask search; a group with a
    nontrivial abelian quotient (sign for S_n, det for GL(2,p)) must never
    saturate, whatever the search says."""
    length = g.classes.saturation()
    group = g.group
    if isinstance(group, PermGroup) and not group.alternating:
        _expect(length is None, f"{g.name} has a sign but saturates")
    if isinstance(group, arith.Mat2Group):
        _expect(length is None, f"{g.name} has a det but saturates")
    return "none" if length is None else length


def saturation_check(g):
    def run(outputs, sent):
        got = outputs[0].get("saturation_length")
        want = g.expected_saturation()
        _expect(got == want, f"saturation {g.name}: {got!r}, expected {want!r}")
    return run


def closed_form_check(group, verb, constants, solvable):
    def run(outputs, sent):
        _check_report(group, verb, constants, outputs[0], solvable)
    return run


# --------------------------------------------------------------------------
# reductions: the emitted equation is compared with the construction, the
# final answer with a direct search on the source instance


def _check_group(out, spec):
    _expect(out.get("group") == spec,
            f"emitted group {out.get('group')!r}, expected {spec!r}")


def partition_check(a):
    n = 1 + sum(a)
    group = DihedralGroup(n)
    constants = [(x, 1) for x in a]
    yes = arith.has_partition(a)

    def run(outputs, sent):
        emitted, answer = outputs
        _check_group(emitted, group.spec())
        _expect([group.decode(c) for c in emitted["constants"]] == constants,
                "partition: emitted constants are not (a_i, 1)")
        _check_report(group, "solve", constants, answer, yes)
    return run


def xcover_check(k, subsets, m):
    ell = len(subsets)
    dim = k + ell
    yes = arith.exact_cover(k, subsets) is not None
    first = [[1 if j in s else 0 for j in range(1, dim + 1)]
             for s in subsets]
    second = []
    for i, s in enumerate(subsets):
        vec = [1 if j in s else 0 for j in range(1, k + 1)] + [0] * ell
        vec[k + i] = 1
        second.append(vec)
    constants = [{"vec": v, "sign": 1} for v in first + second]
    rhs = {"vec": [2] * k + [1] * ell, "sign": 1}

    def run(outputs, sent):
        emitted, answer = outputs
        _check_group(emitted, {"family": "semidirect", "m": m, "k": dim})
        _expect(emitted["constants"] == constants and emitted["rhs"] == rhs,
                "xcover: emitted equation differs from the construction")
        _expect(answer.get("solvable") is yes,
                f"xcover: solvable={answer.get('solvable')!r}, "
                f"exact cover exists: {yes}")
    return run


def _three_partition_shape(a, alternating):
    """The cycle lengths minus one, the block count k and the block sum L of
    the equation the reduction builds; A_n doubles the values."""
    vals = [2 * x for x in a] if alternating else list(a)
    k = len(vals) // 3
    return vals, k, sum(vals) // k


def three_partition_group(a, alternating):
    _, k, ell = _three_partition_shape(a, alternating)
    return PermGroup(k * (ell + 1) + (2 if alternating else 0), alternating)


def three_partition_check(a, alternating, yes):
    """`yes` comes from `arith.three_partition`, run when the instance was
    drawn."""
    group = three_partition_group(a, alternating)
    n = group.n
    vals, k, ell = _three_partition_shape(a, alternating)
    constants = [arith.cycle(list(range(1, x + 2)), n) for x in vals]
    rhs = group.one()
    for i in range(k):
        block = arith.cycle(list(range(i * (ell + 1) + 1,
                                       (i + 1) * (ell + 1) + 1)), n)
        rhs = group.mul(rhs, block)

    def run(outputs, sent):
        emitted, answer = outputs
        _check_group(emitted, group.spec())
        _expect([group.decode(c) for c in emitted["constants"]] == constants
                and group.decode(emitted["rhs"]) == rhs,
                "3part: emitted equation differs from the construction")
        zs = [group.decode(z) for z in sent["conjugators"]]
        holds = (all(group.contains(z) for z in zs) and
                 arith.product_of_conjugates(group, constants, zs) == rhs)
        _expect(holds is yes, f"3part: conjugators hold={holds}, yes={yes}")
        _expect(answer.get("verified") is yes,
                f"3part: verified={answer.get('verified')!r}, expected {yes}")
    return run
