"""Self-test of the output checker.

Sends a few requests of each workload's kinds through the program, shows
that the checker accepts the genuine replies, then corrupts each reply and
shows that the checker rejects it: a flipped verdict, a witness replaced by
identities (the constants' plain product is not the identity, so this
cannot solve the equation), a conjugator outside the declared group, and
for 3-Partition a conjugator the certificate map did not produce.

    python3 perfbench/run.py --selftest
"""

import copy
import json
import random

import arith
import check
import program
import workloads
from arith import (CheckError, DihedralGroup, HeisenbergGroup, Mat2Group,
                   PermGroup, UT4Group)


def non_member(group):
    """The JSON of an element that is not in the group."""
    if isinstance(group, Mat2Group):
        return {"rows": [[1, 0], [1, 1]] if group.triangular
                else [[1, 1], [1, 1]]}
    if isinstance(group, HeisenbergGroup):
        z = [0] * (group.d + 1)
        return {"alpha1": z, "a2": 0, "alpha3": z}
    if isinstance(group, UT4Group):
        return {"entries": [0] * 5}
    if isinstance(group, DihedralGroup):
        return {"k": 0, "delta": 0}
    if isinstance(group, PermGroup):
        return {"images": [1] * group.n}
    return {"idx": group.n}


class SelfTest:
    def __init__(self):
        self.prog, _ = program.load()
        self.passed = 0
        self.failed = 0

    def expect(self, label, req, outputs, sent, accept):
        try:
            req.check(outputs, sent)
            accepted = True
        except CheckError:
            accepted = False
        ok = accepted == accept
        self.passed += ok
        self.failed += not ok
        verdict = "accepted" if accepted else "rejected"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:8s} {label}")

    def run(self, req):
        ok, outputs, sent, _ = program.execute(self.prog, req)
        if not ok:
            raise SystemExit(f"request failed: {req.label}")
        return outputs, sent

    def equation(self, label, group, constants, verb, solvable, req):
        outputs, sent = self.run(req)
        self.expect(f"{label}: genuine reply", req, outputs, sent, True)
        flipped = copy.deepcopy(outputs)
        flipped[0]["solvable"] = not solvable
        self.expect(f"{label}: flipped verdict", req, flipped, sent, False)
        if verb != "solve" or not solvable:
            return
        wrong = copy.deepcopy(outputs)
        wrong[0]["conjugators"][0] = non_member(group)
        self.expect(f"{label}: conjugator outside the group", req, wrong,
                    sent, False)
        plain = arith.product_of_conjugates(
            group, constants, [group.one()] * len(constants))
        if plain != group.one():
            wrong[0]["conjugators"] = [group.encode(group.one())
                                       for _ in constants]
            self.expect(f"{label}: identity witness", req, wrong, sent,
                        False)


def closed_form_cases(t, rng):
    groups = [Mat2Group(arith.random_prime(rng)),
              Mat2Group(1009, triangular=True),
              HeisenbergGroup(5, arith.random_prime(rng)),
              UT4Group(arith.random_prime(rng)),
              DihedralGroup(rng.randint(3, 1000))]
    for group in groups:
        for verb in ("decide", "solve"):
            for solvable in (True, False):
                cs = arith.planted(group, rng, 3)
                if not solvable:
                    cs, _ = workloads._break_invariant(group, rng, cs)
                label = f"{verb} {group.family} solvable={solvable}"
                req = workloads.Request(
                    label, [verb], workloads._payload(group, cs),
                    check.closed_form_check(group, verb, cs, solvable))
                t.equation(label, group, cs, verb, solvable, req)


def oracle_cases(t, rng):
    g = workloads.OracleGroup("S5", PermGroup(5), (3,))
    for solvable in (True, False):
        while True:
            cs = [rng.choice(g.classes.elems) for _ in range(3)]
            if g.classes.solvable(cs) == solvable:
                break
        label = f"solve S5 solvable={solvable}"
        req = workloads.Request(label, ["solve"], g.payload(cs),
                                check.oracle_check(g, "solve", cs))
        t.equation(label, g.group, cs, "solve", solvable, req)
    a6 = workloads.OracleGroup("A6", PermGroup(6, alternating=True), (),
                               saturation=True)
    req = workloads.Request("saturation A6", ["saturation"], a6.spec_text,
                            check.saturation_check(a6))
    outputs, sent = t.run(req)
    t.expect("saturation A6: genuine reply", req, outputs, sent, True)
    t.expect("saturation A6: reported as none", req,
             [{"saturation_length": "none"}], sent, False)


def reduction_cases(t, rng):
    batch = next(workloads.Reductions().rounds(rng.randrange(1 << 30)))
    seen = set()
    for req in batch:
        kind = req.label.split(" l=")[0]
        if (kind, req.label.endswith("True")) in seen:
            continue
        seen.add((kind, req.label.endswith("True")))
        outputs, sent = t.run(req)
        t.expect(f"{req.label}: genuine reply", req, outputs, sent, True)
        key = "verified" if req.then == ["verify"] else "solvable"
        flipped = copy.deepcopy(outputs)
        flipped[1][key] = not flipped[1][key]
        t.expect(f"{req.label}: flipped answer", req, flipped, sent, False)
        if req.cert is not None:
            wrong = copy.deepcopy(sent)
            z = wrong["conjugators"][0]["images"]
            z[0], z[1] = z[1], z[0]
            t.expect(f"{req.label}: conjugator off the certificate", req,
                     outputs, wrong, False)


def main():
    t = SelfTest()
    rng = random.Random(0)
    closed_form_cases(t, rng)
    oracle_cases(t, rng)
    reduction_cases(t, rng)
    print(json.dumps({"passed": t.passed, "failed": t.failed}))
    return 1 if t.failed else 0
