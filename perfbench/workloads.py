"""Seeded request streams for the three workloads.

A stream is an endless sequence of rounds.  A round is a fixed list of
request templates (verb, group, number of constants, planted or not), so
every round asks for the same kinds of work; the seed only draws the
constants, primes and instances that fill the templates.  Requests are
built one at a time as the stream is consumed, so the benchmark's own data
stays small next to the program's.

Each request carries the expectation the checker holds it to, computed here
with `arith` and never with the program.
"""

import json
import random

import arith
import check
from arith import (CayleyGroup, DihedralGroup, HeisenbergGroup, Mat2Group,
                   PermGroup, UT4Group)


class Request:
    """One timed request: a CLI call, or a `reduce` call followed by a
    second call on the equation it emits."""

    __slots__ = ("label", "argv", "text", "then", "cert", "conjugators",
                 "check")

    def __init__(self, label, argv, text, check, then=None, cert=None,
                 conjugators=None):
        self.label = label
        self.argv = argv
        self.text = text
        self.check = check  # check(outputs, second_payload) raises CheckError
        self.then = then  # argv of the call on the emitted equation
        self.cert = cert  # (a, triples, alternating) for the certificate map
        self.conjugators = conjugators  # JSON conjugators sent to `verify`


class Workload:
    """A stream of rounds; subclasses define `_round(rng)`."""

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            yield list(self._round(rng))


def _payload(group, constants):
    return json.dumps({"group": group.spec(),
                       "constants": [group.encode(c) for c in constants]})


# --------------------------------------------------------------------------
# oracle


class OracleGroup:
    def __init__(self, name, group, ks, copies=1, force=False,
                 saturation=False):
        self.name = name
        self.group = group
        self.ks = ks  # numbers of constants, one template each
        self.copies = copies  # draws of each template per round
        self.force = force
        self.saturation = saturation
        self.classes = arith.ClassTable(group, group.elements())
        # the group object is spliced into each payload as text, so a
        # 120 x 120 table is serialised once, not once per request
        self.spec_text = json.dumps(group.spec())
        self._saturation = None

    def payload(self, constants):
        return ('{"group": ' + self.spec_text + ', "constants": '
                + json.dumps([self.group.encode(c) for c in constants]) + "}")

    def expected_saturation(self):
        if self._saturation is None:
            self._saturation = check.saturation_expectation(self)
        return self._saturation


class Oracle(Workload):
    """decide, solve and saturation over enumerable groups that the program
    routes to its Cayley-table dynamic program.

    S6 and A6 stop at three constants: at four and five one request takes
    0.2-0.7 s, and the few of them a run holds made the median latency move
    by 15-25% from seed to seed.  The cheap 120-element table group is drawn
    three times per round so that the median falls inside a dense band of
    latencies rather than in the gap between light and heavy requests.
    """

    name = "oracle"

    def __init__(self):
        self.groups = [
            OracleGroup("S5", PermGroup(5), (2, 3, 4, 5), saturation=True),
            OracleGroup("S6", PermGroup(6), (2, 3)),
            OracleGroup("A6", PermGroup(6, alternating=True), (2, 3),
                        saturation=True),
            OracleGroup("GL2_7", Mat2Group(7), (2, 3, 4, 5), force=True),
            OracleGroup("T120", CayleyGroup(arith.sl25_table()),
                        (2, 3, 4, 5), copies=3, saturation=True),
        ]

    def _round(self, rng):
        for g in self.groups:
            flags = ["--force-oracle"] if g.force else []
            for _ in range(g.copies):
                for verb in ("decide", "solve"):
                    for k in g.ks:
                        cs = [rng.choice(g.classes.elems) for _ in range(k)]
                        yield Request(
                            f"{verb} {g.name} k={k}", [verb] + flags,
                            g.payload(cs), check.oracle_check(g, verb, cs))
        for g in self.groups:
            if g.saturation:
                yield Request(f"saturation {g.name}", ["saturation"],
                              g.spec_text, check.saturation_check(g))


# --------------------------------------------------------------------------
# closed forms


def _break_invariant(group, rng, cs):
    """Multiply one constant by an element outside the kernel of an abelian
    invariant that every product of conjugates must have trivial, so the
    equation becomes unsolvable; returns the constants and the invariant's
    name."""
    cs = list(cs)
    i = rng.randrange(len(cs))
    if isinstance(group, Mat2Group):
        lam = rng.randrange(2, group.p)
        cs[i] = group.mul(cs[i], (lam, 0, 0, 1))
        return cs, "det"
    if isinstance(group, HeisenbergGroup):
        e = [0] * group.d
        e[rng.randrange(group.d)] = 1 + rng.randrange(group.p - 1)
        cs[i] = group.mul(cs[i], (tuple(e), 0, (0,) * group.d))
        return cs, "abelianization"
    if isinstance(group, UT4Group):
        cs[i] = group.mul(cs[i], (1 + rng.randrange(group.p - 1),
                                  0, 0, 0, 0, 0))
        return cs, "abelianization"
    if isinstance(group, DihedralGroup):
        if group.n % 2 == 0 and rng.random() < 0.5:
            cs[i] = group.mul(cs[i], (1, 1))
            return cs, "rotation parity"
        cs[i] = group.mul(cs[i], (0, -1))
        return cs, "delta product"
    raise TypeError(group)


class ClosedForm(Workload):
    """decide and solve over the families with closed forms; half planted
    solvable, half unsolvable by an abelian invariant."""

    name = "closed_form"

    def _templates(self, rng):
        for k in range(2, 9):
            yield f"gl2p k={k}", Mat2Group(arith.random_prime(rng)), k
        for k in range(2, 6):
            yield f"tl2p k={k}", Mat2Group(1009, triangular=True), k
        for n in range(3, 9):
            yield (f"heisenberg n={n}",
                   HeisenbergGroup(n, arith.random_prime(rng)),
                   rng.randint(2, 5))
        for k in range(2, 6):
            yield f"ut4p k={k}", UT4Group(arith.random_prime(rng)), k
        for k in range(2, 6):
            yield (f"dihedral k={k}", DihedralGroup(rng.randint(3, 10**6)),
                   k)

    def _round(self, rng):
        for label, group, k in self._templates(rng):
            for verb in ("decide", "solve"):
                for solvable in (True, False):
                    cs = arith.planted(group, rng, k)
                    why = "planted"
                    if not solvable:
                        cs, why = _break_invariant(group, rng, cs)
                    argv = [verb, "--seed", str(rng.randrange(1 << 31))]
                    yield Request(
                        f"{verb} {label} {why}", argv,
                        _payload(group, cs),
                        check.closed_form_check(group, verb, cs, solvable))


# --------------------------------------------------------------------------
# reductions


def _partition_instance(rng, yes):
    """Positive integers whose total is a few thousand; a planted equal
    split when yes, an odd total (so no split exists) otherwise."""
    size = rng.randint(20, 40)
    half = [rng.randint(1, 150) for _ in range(size // 2)]
    if yes:
        target = sum(half)
        other = []
        while target > 150:
            x = rng.randint(1, 150)
            other.append(x)
            target -= x
        other.append(target)
        a = half + other
    else:
        a = half + [rng.randint(1, 150) for _ in range(size - len(half))]
        if sum(a) % 2 == 0:
            a[-1] += 1
    rng.shuffle(a)
    return a


def _xcover_instance(rng, ell, yes):
    """ell subsets of 1..k, each of size <= 3, no point in more than three;
    a planted exact cover when yes, none (checked by search) otherwise."""
    while True:
        k = rng.randint(ell, 2 * ell)
        counts = {j: 0 for j in range(1, k + 1)}
        subsets = []
        if yes:
            points = list(range(1, k + 1))
            rng.shuffle(points)
            while points:
                size = min(len(points), rng.randint(1, 3))
                subsets.append(sorted(points[:size]))
                points = points[size:]
            if len(subsets) > ell:
                continue
            for s in subsets:
                for j in s:
                    counts[j] += 1
        while len(subsets) < ell:
            free = [j for j in counts if counts[j] < 3]
            s = sorted(rng.sample(free, min(len(free), rng.randint(1, 3))))
            if not s:
                break
            for j in s:
                counts[j] += 1
            subsets.append(s)
        if len(subsets) != ell:
            continue
        rng.shuffle(subsets)
        if (arith.exact_cover(k, subsets) is not None) == yes:
            return k, subsets


def _three_partition_instance(rng, yes):
    """3k values in (L/4, L/2) summing to kL, with k blocks and L chosen so
    the S_n degree k(L+1) is in the hundreds; a planted partition when yes,
    none (checked by search) otherwise."""
    while True:
        k = rng.randint(4, 8)
        ell = rng.randint(24, 60)
        lo, hi = ell // 4 + 1, (ell - 1) // 2
        a = []
        if yes:
            for _ in range(k):
                x, y = rng.randint(lo, hi), rng.randint(lo, hi)
                z = ell - x - y
                if not lo <= z <= hi:
                    break
                a += [x, y, z]
        else:
            a = [rng.randint(lo, hi) for _ in range(3 * k - 1)]
            a.append(k * ell - sum(a))
        if (len(a) != 3 * k or not all(lo <= x <= hi for x in a)
                or 4 * min(a) <= ell or 2 * max(a) >= ell):
            continue
        rng.shuffle(a)
        triples = arith.three_partition(a)
        if (triples is not None) == yes:
            return a, triples


class Reductions(Workload):
    """The NP-hard side as `reduce` pipelines; about half yes-instances."""

    name = "reductions"
    XCOVER_ELLS = (4, 5, 6, 7, 8)

    def _round(self, rng):
        for yes in (True, False, True, False):
            a = _partition_instance(rng, yes)
            yield Request(f"partition yes={yes}",
                          ["reduce", "--from", "partition"],
                          json.dumps({"a": a}),
                          check.partition_check(a), then=["solve"])
        for ell in self.XCOVER_ELLS:
            for yes in (True, False):
                m = rng.choice((3, 5, 7))
                k, subsets = _xcover_instance(rng, ell, yes)
                yield Request(f"xcover l={ell} yes={yes}",
                              ["reduce", "--from", "xcover"],
                              json.dumps({"k": k, "subsets": subsets,
                                          "m": m}),
                              check.xcover_check(k, subsets, m),
                              then=["decide"])
        for alternating in (False, True):
            for yes in (True, False):
                a, triples = _three_partition_instance(rng, yes)
                payload = {"a": a}
                if alternating:
                    payload["alternating"] = True
                group = check.three_partition_group(a, alternating)
                conj = None
                if not yes:
                    # no certificate exists; any conjugators must fail
                    conj = [group.encode(tuple(rng.sample(
                        range(1, group.n + 1), group.n))) for _ in a]
                    if alternating:
                        conj = [c if arith.perm_sign(tuple(c["images"])) == 1
                                else {"images": c["images"][1::-1]
                                      + c["images"][2:]} for c in conj]
                yield Request(f"3part alternating={alternating} yes={yes}",
                              ["reduce", "--from", "3part"],
                              json.dumps(payload),
                              check.three_partition_check(a, alternating,
                                                          yes),
                              then=["verify"],
                              cert=(a, triples, alternating) if yes else None,
                              conjugators=conj)


WORKLOADS = {w.name: w for w in (Oracle, ClosedForm, Reductions)}
