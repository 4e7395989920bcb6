import argparse
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from spherical import cli, mat2, numtheory, semidirect
from spherical.core import GroupSpec
from spherical.families import FAMILIES
from spherical.numtheory import legendre, solve_weighted_trace as weighted_trace


def run(argv, payload=None, monkeypatch=None, capsys=None):
    if payload is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


def gl2_eq(p, constants, rhs=None):
    obj = {"group": {"family": "gl2p", "p": p},
           "constants": [{"p": p, "rows": rows} for rows in constants]}
    if rhs is not None:
        obj["rhs"] = {"p": p, "rows": rhs}
    return obj


def test_decide_gl2_conjugate_pair(monkeypatch, capsys):
    # C and C^-1 over GL(2,7)
    payload = gl2_eq(7, [[[1, 2], [3, 4]], [[5, 6], [2, 3]]])
    # replace second constant with the actual inverse of the first
    inv = [[5, 1], [5, 3]]  # (1 2; 3 4)^-1 mod 7 = det^-1 * (4 -2; -3 1)
    payload["constants"][1]["rows"] = inv
    code, out = run(["decide"], payload, monkeypatch, capsys)
    assert code == 0
    assert out == '{"method": "gl2-k2-conjugacy", "solvable": true}\n'


def test_reduce_partition_then_decide(tmp_path, monkeypatch, capsys):
    code, out = run(["reduce", "--from", "partition"], {"a": [1, 1]},
                    monkeypatch, capsys)
    assert code == 0
    eq = json.loads(out)
    assert eq["group"] == {"family": "dihedral", "n": 3}
    path = tmp_path / "eq.json"
    path.write_text(out)
    code, out = run(["decide", str(path)], None, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep == {"method": "dihedral-criterion", "solvable": True}


def test_solve_heisenberg_negative(monkeypatch, capsys):
    payload = {"group": {"family": "heisenberg", "n": 3, "p": 5},
               "constants": [{"alpha1": [1], "a2": 0, "alpha3": [0]}]}
    code, out = run(["solve"], payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"method": "heisenberg-closed-form",
                               "solvable": False}


def test_solve_verify_roundtrip(monkeypatch, capsys):
    payload = {"group": {"family": "symmetric", "n": 4},
               "constants": [{"n": 4, "images": [2, 1, 3, 4]},
                             {"n": 4, "images": [1, 2, 4, 3]}]}
    code, out = run(["solve"], payload, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["solvable"] and rep["verified"]
    payload["conjugators"] = rep["conjugators"]
    code, out = run(["verify"], payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"verified": True}


def type2_rows(p, det):
    """The companion matrix of the first x^2 - t x + det (t = 0, 1, ...)
    with no root mod p: a type-2 constant."""
    t = next(t for t in range(p) if legendre(t * t - 4 * det, p) == -1)
    return [[0, -det % p], [1, t]]


def gl2_corpus():
    """GL(2,p) equations, p from 5 to 2^61 - 1, that each take a path the
    solver once drew random numbers on: three type-2 constants (the
    weighted-trace scan), and (C, -2 C^-1, X, Y), whose fold with no
    conjugation has the scalar head -2 I, so a head trace is chosen."""
    corpus = [gl2_eq(101, [[[3, 1], [4, 9]], [[2, 6], [5, 3]],
                           [[9, 7], [9, 3]]])]
    for p in (5, 7, 101, 2**61 - 1):
        corpus.append(gl2_eq(p, [type2_rows(p, 2), type2_rows(p, 3),
                                 type2_rows(p, pow(6, -1, p))]))
        # C = [[1, 2], [3, 5]] has det -1, and 2 adj(C) = -2 C^-1
        y_det = pow(2 * 2 * 3, -1, p)
        corpus.append(gl2_eq(p, [[[1, 2], [3, 5]], [[10, -4], [-6, 2]],
                                 type2_rows(p, 3), [[1, 1], [0, y_det]]]))
    return corpus


def test_seed_determinism(monkeypatch, capsys):
    scans = []
    monkeypatch.setattr(mat2, "solve_weighted_trace",
                        lambda *a: scans.append(a) or weighted_trace(*a))
    for payload in gl2_corpus():
        outs = set()
        for seed in range(21):
            code, out = run(["solve", "--seed", str(seed)], payload,
                            monkeypatch, capsys)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1
        rep = json.loads(out)
        assert not rep["solvable"] or rep["verified"]
    assert scans


def test_solve_is_the_same_under_python_O():
    for payload in gl2_corpus():
        procs = [_python(["-m", "spherical.cli", "solve"], payload,
                         flags=flags) for flags in ((), ("-O",))]
        assert procs[0].returncode == 0, procs[0].stderr
        assert procs[0].stdout == procs[1].stdout
        assert procs[1].returncode == 0 and procs[1].stderr == b""


def test_out_flag(tmp_path, monkeypatch, capsys):
    dest = tmp_path / "report.json"
    payload = {"group": {"family": "dihedral", "n": 5},
               "constants": [{"k": 1, "delta": 1}, {"k": 4, "delta": 1}]}
    code, out = run(["decide", "--out", str(dest)], payload, monkeypatch,
                    capsys)
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["solvable"]


def test_out_flag_unwritable(tmp_path, monkeypatch, capsys):
    payload = {"group": {"family": "dihedral", "n": 5},
               "constants": [{"k": 1, "delta": 1}]}
    dest = tmp_path / "missing" / "report.json"
    code, _ = run(["decide", "--out", str(dest)], payload, monkeypatch)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("input error: [Errno 2]") and err.count("\n") == 1


def test_force_oracle(monkeypatch, capsys):
    payload = {"group": {"family": "dihedral", "n": 4},
               "constants": [{"k": 1, "delta": 1}, {"k": 3, "delta": 1}]}
    code, out = run(["decide", "--force-oracle"], payload, monkeypatch,
                    capsys)
    assert code == 0
    assert json.loads(out) == {"method": "cayley-dp", "solvable": True}


def test_oracle_verb(monkeypatch, capsys):
    payload = {"group": {"family": "symmetric", "n": 3},
               "constants": [{"n": 3, "images": [2, 3, 1]},
                             {"n": 3, "images": [3, 1, 2]}]}
    code, out = run(["oracle"], payload, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["solvable"] and rep["method"] == "brute" and rep["verified"]


def test_saturation_verb(monkeypatch, capsys):
    code, out = run(["saturation"], {"family": "symmetric", "n": 3},
                    monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"saturation_length": "none"}


def test_classify_verb(monkeypatch, capsys):
    code, out = run(["classify"], {"p": 5, "rows": [[1, 1], [0, 1]]},
                    monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == "type3" and rep["discriminant"] == 0


def test_reduce_xcover(monkeypatch, capsys):
    payload = {"k": 2, "subsets": [[1, 2]], "m": 3}
    code, out = run(["reduce", "--from", "xcover"], payload, monkeypatch,
                    capsys)
    assert code == 0
    eq = json.loads(out)
    assert eq["group"] == {"family": "semidirect", "k": 3, "m": 3}
    assert eq["rhs"] == {"sign": 1, "vec": [2, 2, 1]}


def test_reduce_3part(monkeypatch, capsys):
    code, out = run(["reduce", "--from", "3part"], {"a": [2, 2, 2]},
                    monkeypatch, capsys)
    assert code == 0
    eq = json.loads(out)
    assert eq["group"] == {"family": "symmetric", "n": 7}
    assert len(eq["constants"]) == 3


def test_semidirect_routing(monkeypatch, capsys):
    payload = {"group": {"family": "semidirect", "m": 5, "k": 2},
               "constants": [{"vec": [1, 0], "sign": 1},
                             {"vec": [4, 0], "sign": 1}]}
    code, out = run(["decide"], payload, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep == {"method": "semidirect-signvector", "solvable": True}
    # the sign vector is the witness: solve takes the same route
    code, out = run(["solve"], payload, monkeypatch, capsys)
    rep = json.loads(out)
    assert rep["solvable"] and rep["verified"]
    assert rep["method"] == "semidirect-signvector"


def test_reduce_xcover_then_solve(monkeypatch, capsys):
    # |G| = 2 * 3^8 = 13122 is above the oracle's cap
    code, out = run(["reduce", "--from", "xcover"],
                    {"k": 4, "subsets": [[1, 2], [3, 4], [1, 3], [2, 4]],
                     "m": 3}, monkeypatch, capsys)
    assert code == 0
    code, out = run(["solve"], json.loads(out), monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["solvable"] and rep["verified"]
    assert rep["method"] == "semidirect-signvector"


def _xcover_pipeline(verb, instance, monkeypatch, capsys):
    code, out = run(["reduce", "--from", "xcover"], instance, monkeypatch,
                    capsys)
    assert code == 0
    eq = json.loads(out)
    code, out = run([verb], eq, monkeypatch, capsys)
    assert code == 0
    return eq, json.loads(out)


def test_xcover_past_the_old_sign_cap(monkeypatch, capsys):
    # ell = 20 subsets make 40 constants, above SIGN_CAP; the presolve
    # fixes the 20 tally signs, and the search runs on the other 20
    r = random.Random(20)
    k, m = 30, 5
    planted = [list(range(j, j + 3)) for j in range(1, k + 1, 3)]
    uses = {j: 1 for j in range(1, k + 1)}
    extra = []
    while len(extra) < 10:
        s = sorted(r.sample([j for j in uses if uses[j] < 3], 3))
        for j in s:
            uses[j] += 1
        extra.append(s)
    subsets = planted + extra
    r.shuffle(subsets)
    cert = {subsets.index(s) + 1 for s in planted}
    yes = {"k": k, "subsets": subsets, "m": m}
    eq, rep = _xcover_pipeline("decide", yes, monkeypatch, capsys)
    assert len(eq["constants"]) == 40 and rep["solvable"] is True
    _, rep = _xcover_pipeline("solve", yes, monkeypatch, capsys)
    assert rep["solvable"] and rep["verified"]
    sol = semidirect.certificate_to_solution(k, subsets, m, cert)
    eq["conjugators"] = [{"vec": list(z.vec), "sign": z.sign}
                         for z in sol.conjugators]
    code, out = run(["verify"], eq, monkeypatch, capsys)
    assert code == 0 and json.loads(out) == {"verified": True}
    # 2-element subsets cover an even number of points, never all of an
    # odd k
    k = 15
    pairs = [[j, j % k + 1] for j in range(1, k + 1)]
    pairs += [[j, j + 7] for j in range(1, 6)]
    no = {"k": k, "subsets": pairs, "m": 3}
    for verb in ("decide", "solve"):
        eq, rep = _xcover_pipeline(verb, no, monkeypatch, capsys)
        assert len(eq["constants"]) == 40 and rep["solvable"] is False


def test_sign_cap_is_capacity(monkeypatch, capsys):
    # k = 2: with k = 1 the group is D_3, whose bitset search has no such cap
    payload = {"group": {"family": "semidirect", "m": 3, "k": 2},
               "constants": [{"vec": [1, 0], "sign": 1}] * 33}
    for verb in ("decide", "solve"):
        code, out = run([verb], payload, monkeypatch, capsys)
        assert code == 3 and out == ""


def test_method_names_by_length(monkeypatch, capsys):
    ident = [[1, 0], [0, 1]]
    for consts, want in (
            ([ident], "gl2-scalar"),
            ([[[2, 0], [0, 3]], [[3, 0], [0, 2]]], "gl2-k2-conjugacy"),
            ([[[1, 1], [0, 1]], [[1, 1], [0, 1]], [[1, 1], [0, 1]]],
             "gl2-k3-trace"),
            ([[[1, 1], [0, 1]]] * 4, "gl2-k4-fold")):
        code, out = run(["decide"], gl2_eq(5, consts), monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["method"] == want


def test_exit_code_input_error(monkeypatch, capsys):
    code, _ = run(["decide"], {"group": {"family": "nosuch"},
                               "constants": []}, monkeypatch, capsys)
    assert code == 2
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert cli.main(["decide"]) == 2
    capsys.readouterr()
    code, _ = run(["reduce"], {"a": [1, 1]}, monkeypatch, capsys)
    assert code == 2  # missing --from
    code, _ = run(["reduce", "--from", "3part"], {"a": [1, 2]}, monkeypatch,
                  capsys)
    assert code == 2  # malformed instance


def test_exit_code_capacity(monkeypatch, capsys):
    payload = {"group": {"family": "symmetric", "n": 9},
               "constants": [{"n": 9, "images": list(range(2, 10)) + [1]}]}
    code, _ = run(["oracle"], payload, monkeypatch, capsys)
    assert code == 3
    # |S_2000| has more than 4300 digits
    code, _ = run(["decide"], {"group": {"family": "symmetric", "n": 2000},
                               "constants": []}, monkeypatch, capsys)
    assert code == 3
    # the weighted-trace scan's budget is a capacity bound like the others
    monkeypatch.setattr(numtheory, "_scan_budget", lambda p: 0)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(gl2_corpus()[1])))
    assert cli.main(["solve"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("capacity error: weighted-trace")


def test_sl2p_answers_stay_in_sl2p(monkeypatch, capsys):
    def eq(constants):
        return {"group": {"family": "sl2p", "p": 5},
                "constants": [{"rows": rows} for rows in constants]}

    code, out = run(["decide"], eq([[[1, 1], [0, 1]], [[1, -2], [0, 1]]]),
                    monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"method": "cayley-dp", "solvable": False}
    els = GroupSpec("sl2p", p=5).elements()
    solved = 0
    for x, y in itertools.product(els, repeat=2):
        code, out = run(["solve"], eq([[[x.a, x.b], [x.c, x.d]],
                                       [[y.a, y.b], [y.c, y.d]]]),
                        monkeypatch, capsys)
        assert code == 0
        rep = json.loads(out)
        if rep["solvable"]:
            solved += 1
            for z in rep["conjugators"]:
                (a, b), (c, d) = z["rows"]
                assert (a * d - b * c) % 5 == 1
    assert solved > 0


def test_sl2p_above_cap_is_capacity(monkeypatch, capsys):
    payload = {"group": {"family": "sl2p", "p": 23},
               "constants": [{"rows": [[1, 1], [0, 1]]}]}
    code, out = run(["decide"], payload, monkeypatch, capsys)
    assert code == 3 and out == ""


def test_semidirect_vec_length(monkeypatch, capsys):
    payload = {"group": {"family": "semidirect", "m": 3, "k": 2},
               "constants": [{"vec": [1], "sign": 1},
                             {"vec": [1, 1], "sign": 1}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["decide"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: vec has length 1")
    assert err.count("\n") == 1


def test_input_path_before_or_after_flags(tmp_path, monkeypatch, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(gl2_eq(101, [[[3, 1], [4, 9]],
                                            [[2, 6], [5, 3]],
                                            [[9, 7], [9, 3]]])))
    outs = []
    for argv in (["solve", str(path), "--seed", "3"],
                 ["solve", "--seed", "3", str(path)]):
        code, out = run(argv, None, monkeypatch, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and "solvable" in json.loads(outs[0])
    for argv in (["solve", str(path), "extra"],
                 ["solve", "--seed", "3", str(path), "extra"],
                 ["solve", "--seed", "3", "--bogus", str(path)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cached_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    payload = {"group": {"family": "dihedral", "n": 4},
               "constants": [{"k": 1, "delta": 1}, {"k": 3, "delta": 1}]}
    _, out = run(["decide", "--force-oracle"], payload, monkeypatch, capsys)
    assert json.loads(out)["method"] == "cayley-dp"
    _, out = run(["decide"], payload, monkeypatch, capsys)
    assert json.loads(out)["method"] == "dihedral-criterion"
    dest = tmp_path / "report.json"
    code, out = run(["decide", "--out", str(dest)], payload, monkeypatch,
                    capsys)
    assert code == 0 and out == "" and dest.exists()
    dest.unlink()
    code, out = run(["decide"], payload, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["solvable"]
    assert not dest.exists()


WITNESS_ROUTES = {
    "dihedral-criterion": (["solve"], {
        "group": {"family": "dihedral", "n": 5},
        "constants": [{"k": 1, "delta": 1}, {"k": 4, "delta": 1}]}),
    "gl2-k2-conjugacy": (["solve"], gl2_eq(5, [[[1, 1], [0, 1]],
                                               [[1, 4], [0, 1]]])),
    "tl2-closed-form": (["solve"], {
        "group": {"family": "tl2p", "p": 5},
        "constants": [{"rows": [[1, 1], [0, 1]]}, {"rows": [[1, 4], [0, 1]]}]}),
    "heisenberg-closed-form": (["solve"], {
        "group": {"family": "heisenberg", "n": 3, "p": 5},
        "constants": [{"alpha1": [1], "a2": 0, "alpha3": [0]},
                      {"alpha1": [4], "a2": 0, "alpha3": [0]}]}),
    "ut4-closed-form": (["solve"], {
        "group": {"family": "ut4p", "p": 5},
        "constants": [{"entries": [1, 0, 0, 0, 0, 0]},
                      {"entries": [4, 0, 0, 0, 0, 0]}]}),
    "semidirect-signvector": (["solve"], {
        "group": {"family": "semidirect", "m": 5, "k": 2},
        "constants": [{"vec": [1, 0], "sign": 1}, {"vec": [4, 0], "sign": 1}]}),
    "semidirect-reflection": (["solve"], {
        "group": {"family": "semidirect", "m": 4, "k": 2},
        "constants": [{"vec": [1, 0], "sign": -1}, {"vec": [3, 2], "sign": 1}],
        "rhs": {"vec": [0, 0], "sign": -1}}),
    "et2n-criterion": (["solve"], {
        "group": {"family": "et2n", "n": 6},
        "constants": [{"e1": 5, "b": 1, "e2": 1}, {"e1": 5, "b": 3, "e2": 5}],
        "rhs": {"e1": 1, "b": 2, "e2": 5}}),
    "cayley-dp": (["solve"], {
        "group": {"family": "cayley", "table": [[0, 1], [1, 0]]},
        "constants": [{"idx": 1}, {"idx": 1}]}),
    "brute": (["oracle"], {
        "group": {"family": "symmetric", "n": 3},
        "constants": [{"images": [2, 3, 1]}, {"images": [3, 1, 2]}]}),
}


def test_no_route_builds_an_rng(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an Rng was built")
    monkeypatch.setattr(numtheory, "Rng", refuse)
    payloads = {argv_payload[1]["group"]["family"]: argv_payload[1]
                for argv_payload in WITNESS_ROUTES.values()}
    payloads["gl2p"] = gl2_corpus()[-1]
    payloads["sl2p"] = {"group": {"family": "sl2p", "p": 5},
                        "constants": [{"rows": [[1, 1], [0, 1]]},
                                      {"rows": [[1, 4], [0, 1]]}]}
    payloads["alternating"] = {
        "group": {"family": "alternating", "n": 4},
        "constants": [{"images": [2, 3, 1, 4]}, {"images": [3, 1, 2, 4]}]}
    assert sorted(payloads) == sorted(FAMILIES)
    for family, payload in payloads.items():
        for verb in ("decide", "solve"):
            code, out = run([verb, "--seed", "3"], payload, monkeypatch,
                            capsys)
            assert code == 0 and json.loads(out)["solvable"], (family, verb)


@pytest.mark.parametrize("method", sorted(WITNESS_ROUTES))
def test_solve_witness_gate_is_not_an_assert(method, monkeypatch, capsys):
    argv, payload = WITNESS_ROUTES[method]
    code, out = run(argv, payload, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == method and rep["verified"]
    monkeypatch.setattr(cli.core, "verify", lambda eq, sol: False)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    with pytest.raises(RuntimeError, match="witness fails verification"):
        cli.main(argv)


# |G| = 2 * 3^9 and 4 * 2501, both above CAP: only a closed form answers
@pytest.mark.parametrize("payload", [
    {"group": {"family": "semidirect", "m": 3, "k": 9},
     "constants": [{"vec": [1] * 9, "sign": -1},
                   {"vec": [2, 0] * 4 + [1], "sign": -1},
                   {"vec": [0, 1] * 4 + [2], "sign": 1}]},
    {"group": {"family": "et2n", "n": 2501},
     "constants": [{"e1": 2500, "b": 3, "e2": 1},
                   {"e1": 2500, "b": 10, "e2": 2500},
                   {"e1": 1, "b": 7, "e2": 2500}]},
], ids=["semidirect-m3-k9", "et2n-n2501"])
def test_closed_forms_answer_past_the_oracle_cap(payload, monkeypatch, capsys):
    code, out = run(["solve"], payload, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["solvable"] and rep["verified"]
    code, out = run(["decide"], payload, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["solvable"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["solve", "--force-oracle"]) == 3
    out, err = capsys.readouterr()
    family = payload["group"]["family"]
    assert out == "" and err == (f"capacity error: the {family} group has "
                                 f"more than 10000 elements\n")


def _python(args, payload, flags=(), timeout=120, **environ):
    """Run python with the package on its path, payload on stdin."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *flags, *args],
                          input=json.dumps(payload).encode(),
                          capture_output=True, env=env, timeout=timeout,
                          check=False)


def test_solve_witness_gate_survives_python_O():
    argv, payload = WITNESS_ROUTES["semidirect-signvector"]
    proc = _python(["-c", "import sys; from spherical import cli, core; "
                    "core.verify = lambda eq, sol: False; "
                    "sys.exit(cli.main(['solve']))"], payload, flags=["-O"])
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"RuntimeError: witness fails verification" in proc.stderr


def test_oracle_refuses_a_huge_semidirect_group_quickly():
    # |G| = 2 * (10^4000)^2000 has 8 million digits; building it took
    # seconds before the refusal, and the bit lengths alone show it is
    # above CAP
    payload = {"group": {"family": "semidirect", "m": 10**4000, "k": 2000},
               "constants": [{"vec": [1] * 2000, "sign": -1}]}
    proc = _python(["-m", "spherical.cli", "decide", "--force-oracle"],
                   payload, timeout=5)
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr == (b"capacity error: the semidirect group has more "
                           b"than 10000 elements\n")


def test_long_closed_form_equations_answer_quickly():
    # UT(4,p) with every c1 = c6 = 0 once read its entry-(3) form by
    # Theta(k^3) evaluations (221 s at k = 320), and the Heisenberg base
    # term was a pairwise sum; pytest has no timeout here, so a regression
    # must fail in a subprocess rather than hang the run
    r = random.Random(9)
    p = 10007
    ents = [[0, r.randrange(p), r.randrange(p), r.randrange(1, p),
             r.randrange(p), 0] for _ in range(320)]
    ents[-1][3] = -sum(e[3] for e in ents[:-1]) % p
    ut4 = {"group": {"family": "ut4p", "p": p},
           "constants": [{"entries": e} for e in ents]}
    heis = [{"alpha1": [r.randrange(p)], "a2": r.randrange(p),
             "alpha3": [r.randrange(p)]} for _ in range(2000)]
    for key in ("alpha1", "alpha3"):
        heis[-1][key] = [-sum(c[key][0] for c in heis[:-1]) % p]
    heis = {"group": {"family": "heisenberg", "n": 3, "p": p},
            "constants": heis}
    for verb, payload in (("decide", ut4), ("solve", ut4), ("solve", heis)):
        proc = _python(["-m", "spherical.cli", verb], payload, timeout=20)
        assert proc.returncode == 0, proc.stderr
        reply = json.loads(proc.stdout)
        if verb == "decide":
            assert reply["solvable"] is True
        else:
            assert len(reply["conjugators"]) == len(payload["constants"])


def test_wide_signed_sum_search_is_refused_quickly():
    # 32 dense vectors of 2000 coordinates mod 2^62 - 57: each half of the
    # meet in the middle would hold 2^16 sums of 2000 * 63 bits, which once
    # took 21 s and 2.66 GB before answering
    r = random.Random(62)
    m = 2**62 - 57
    payload = {"group": {"family": "semidirect", "m": m, "k": 2000},
               "constants": [{"vec": [r.randrange(1, m) for _ in range(2000)],
                              "sign": 1} for _ in range(32)]}
    for verb in ("decide", "solve"):
        proc = _python(["-m", "spherical.cli", verb], payload, timeout=20)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr == (b"capacity error: a signed-sum search over 32 "
                               b"constants in 2000 coordinates is too large\n")


@pytest.mark.parametrize("group, field", [
    ({"family": "symmetric", "n": True}, "'n'"),
    ({"family": "gl2p", "p": 7.0}, "'p'"),
    ({"family": "semidirect", "m": "3", "k": 2}, "'m'"),
    ({"family": "semidirect", "m": 3, "k": [2]}, "'k'"),
])
def test_group_fields_must_be_integers(group, field, monkeypatch, capsys):
    payload = {"group": group, "constants": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["decide"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: group field {field}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("group, element, field", [
    ({"family": "cayley", "table": [[0, 1], [1, 0]]}, {"idx": True}, "'idx'"),
    ({"family": "gl2p", "p": 7}, {"rows": [[1.5, 0], [0, 1]]}, "'rows'"),
    ({"family": "dihedral", "n": 5}, {"k": True, "delta": 1}, "'k'"),
    ({"family": "dihedral", "n": 5}, {"k": 1, "delta": -1.0}, "'delta'"),
    ({"family": "et2n", "n": 5}, {"e1": 1, "b": "2", "e2": 1}, "'b'"),
    ({"family": "symmetric", "n": 2}, {"images": [2, True]}, "'images'"),
    ({"family": "heisenberg", "n": 3, "p": 5},
     {"alpha1": [1], "a2": 0.0, "alpha3": [1]}, "'a2'"),
    ({"family": "heisenberg", "n": 3, "p": 5},
     {"alpha1": [1], "a2": 0, "alpha3": 1}, "'alpha3'"),
    ({"family": "ut4p", "p": 5}, {"entries": [0, 0, 0, 0, 0, False]},
     "'entries'"),
    ({"family": "semidirect", "m": 3, "k": 2}, {"vec": [1, 1.0], "sign": 1},
     "'vec'"),
    ({"family": "semidirect", "m": 3, "k": 2}, {"vec": [1, 1], "sign": True},
     "'sign'"),
])
def test_element_fields_must_be_integers(group, element, field, monkeypatch,
                                         capsys):
    payload = {"group": group, "constants": [element, element]}
    for verb in ("decide", "solve"):
        code, out = run([verb], payload, monkeypatch, capsys)
        assert code == 2 and out == ""
    payload["constants"] = []
    payload["rhs"] = element
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["decide"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: element field {field}")
    assert err.count("\n") == 1


def test_table_entries_must_be_integers(monkeypatch, capsys):
    # an equal int table decoded earlier in the process is reused, since
    # True == 1.0 == 1 with one hash, so the check must hold warm and cold
    ints = {"group": Z2, "constants": [{"idx": 1}, {"idx": 1}]}
    for table in ([[False, True], [True, False]], [[0, True], [True, 0]],
                  [[0, 1.0], [1.0, 0]]):
        monkeypatch.setattr(cli.core, "_group_cache", {})
        bad = {"group": {"family": "cayley", "table": table},
               "constants": [{"idx": 1}, {"idx": 1}]}
        for payload, want in ((bad, 2), (ints, 0), (bad, 2), (ints, 0)):
            code, out = run(["solve"], payload, monkeypatch, capsys)
            assert code == want and (out == "") == (want == 2), table


P61 = (1 << 61) - 1


def _prime_family_payloads(p):
    """One decide payload over each family that needs a prime p."""
    two = [[[2, 1], [1, 1]], [[1, 1], [1, 2]]]
    return [
        gl2_eq(p, two),
        {"group": {"family": "tl2p", "p": p},
         "constants": [{"rows": [[2, 1], [0, 1]]}, {"rows": [[1, 0], [0, 3]]}]},
        {"group": {"family": "ut4p", "p": p},
         "constants": [{"entries": [1, 2, 0, 0, 0, 0]},  # and its inverse
                       {"entries": [p - 1, p - 2, 0, 0, 0, 0]}]},
        {"group": {"family": "heisenberg", "n": 4, "p": p},
         "constants": [{"alpha1": [1, 0], "a2": 3, "alpha3": [0, 2]},
                       {"alpha1": [p - 1, 0], "a2": 0, "alpha3": [0, 1]}]},
    ]


def _outcome(verb, payload, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = cli.main([verb])
    return (code, *capsys.readouterr())


@pytest.fixture
def tested(monkeypatch):
    """Every n that is_prime runs Miller-Rabin on, from an empty memo."""
    tested = []

    def miller_rabin(n, body=numtheory._miller_rabin):
        tested.append(n)
        return body(n)

    monkeypatch.setattr(numtheory, "_miller_rabin", miller_rabin)
    monkeypatch.setattr(numtheory, "_last", (None, False))
    return tested


def test_prime_memo_never_changes_an_outcome(tested, monkeypatch, capsys):
    gl2, tl2, ut4, heis = _prime_family_payloads(P61)
    composite = (10**9 + 7) ** 2  # passes trial division by small primes
    no_prime = "input error: gl2p needs a prime p\n"
    steps = [
        ("decide", gl2, 0, ""),
        ("decide", _prime_family_payloads(composite)[0], 2, no_prime),
        ("solve", gl2, 0, ""),
        ("decide", {"group": {"family": "gl2p"}, "constants": []}, 2,
         no_prime),
        ("decide", gl2, 0, ""),
        ("decide", _prime_family_payloads(1 << 64)[0], 3,
         "capacity error: gl2p field 'p' is not below 2^64\n"),
        ("solve", tl2, 0, ""),
        ("decide", ut4, 0, ""),
        ("solve", heis, 0, ""),
        ("solve", gl2, 0, ""),
    ]
    warm = [_outcome(verb, payload, monkeypatch, capsys)
            for verb, payload, _, _ in steps]
    # composite and prime tested once each time p changes; the p >= 2^64
    # request is refused before any test, and one p serves every family
    assert tested == [P61, composite, P61]
    for (verb, payload, code, err), got in zip(steps, warm):
        assert got[0] == code and got[2] == err
        assert (got[1] == "") == (code != 0)
        monkeypatch.setattr(numtheory, "_last", (None, False))
        assert _outcome(verb, payload, monkeypatch, capsys) == got


def test_requests_on_one_group_test_its_prime_once(tested, monkeypatch,
                                                   capsys):
    p = (1 << 31) - 1
    ut4 = _prime_family_payloads(p)[2]
    for verb in ("decide", "solve", "decide", "solve"):
        code, out = run([verb], ut4, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["solvable"] is True
    assert tested == [p]


def test_saturation_of_a_non_object_is_input_error(monkeypatch, capsys):
    code, out = run(["saturation"], [3], monkeypatch, capsys)
    assert code == 2 and out == ""


def test_repeated_cayley_group_builds_one_table(monkeypatch):
    built = []

    class CountingTable(cli.core.CayleyTable):
        def __init__(self, mul):
            built.append(len(mul))
            super().__init__(mul)

    monkeypatch.setattr(cli.core, "CayleyTable", CountingTable)
    monkeypatch.setattr(cli.core, "_group_cache", {})
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    payload = {"group": {"family": "cayley", "table": table},
               "constants": [{"idx": 1}, {"idx": 5}], "rhs": {"idx": 0}}
    first = cli.decode_equation(json.loads(json.dumps(payload)))
    assert cli.core.decide_cayley(first) and built == [6]
    second = cli.decode_equation(json.loads(json.dumps(payload)))
    assert second.group is not first.group
    assert cli.core.decide_cayley(second) and built == [6]


def test_closed_form_leaves_the_group_cache_alone(monkeypatch, capsys):
    before = len(cli.core._group_cache)
    p = 1000003  # a prime no other test uses
    payload = gl2_eq(p, [[[2, 1], [1, 1]], [[1, 1], [1, 2]]])
    for verb in ("decide", "solve"):
        code, _ = run([verb], payload, monkeypatch, capsys)
        assert code == 0
    assert len(cli.core._group_cache) == before


def _mat(rows):
    return {"rows": rows}


Z2 = {"family": "cayley", "table": [[0, 1], [1, 0]]}

# payloads that a family's decoder rejects before any element is built:
# (group, constants, message)
DECODE_CHECKS = [
    ({"family": "dihedral", "n": 5}, [{"k": 1, "delta": 0}],
     "sign or delta must be +-1"),
    ({"family": "semidirect", "m": 3, "k": 2}, [{"vec": [1, 1], "sign": 2}],
     "sign or delta must be +-1"),
    ({"family": "heisenberg", "n": 4, "p": 5},
     [{"alpha1": [1], "a2": 0, "alpha3": [1, 2]}],
     "vector parts must have length n-2"),
    ({"family": "ut4p", "p": 5}, [{"entries": [0, 0, 0, 0, 1]}],
     "need six entries"),
    ({"family": "et2n", "n": 5}, [{"e1": 2, "b": 1, "e2": 1}],
     "[[2,1],[0,1]] is not an element of the et2n group"),
    # the alternating decoder checks the bijection in its parity walk
    ({"family": "alternating", "n": 4}, [{"images": [2, 3, 2, 1]}],
     "images must be a bijection on 1..n"),
    ({"family": "alternating", "n": 4}, [{"images": [0, 3, 1, 2]}],
     "images must be a bijection on 1..n"),
    ({"family": "alternating", "n": 4}, [{"images": [2, 3, 5, 1]}],
     "images must be a bijection on 1..n"),
    ({"family": "alternating", "n": 4}, [{"images": [2, -1, 1, 3]}],
     "images must be a bijection on 1..n"),
]
DECODE_CHECK_IDS = ["D5-delta0", "semidirect-sign2", "heisenberg-short",
                    "UT4-five-entries", "et2n-diagonal2", "A4-repeated",
                    "A4-zero", "A4-n-plus-1", "A4-minus-1"]


@pytest.mark.parametrize("group, constants, conjugators, solvable, message", [
    # (1 2 3) twice is not solvable in A4; the odd (1 2) must not verify it
    ({"family": "alternating", "n": 4},
     [{"images": [2, 3, 1, 4]}] * 2,
     [{"images": [1, 2, 3, 4]}, {"images": [2, 1, 3, 4]}], False,
     "(1 2) is not an element of the alternating group"),
    ({"family": "sl2p", "p": 5},
     [_mat([[1, 1], [0, 1]]), _mat([[1, -2], [0, 1]])],
     [_mat([[1, 0], [0, 1]]), _mat([[2, 0], [0, 1]])], False,
     "[[2,0],[0,1]] is not an element of the sl2p group"),
    ({"family": "tl2p", "p": 5},
     [_mat([[1, 1], [0, 1]]), _mat([[1, -1], [0, 1]])],
     [_mat([[1, 0], [1, 1]])] * 2, True,
     "[[1,0],[1,1]] is not an element of the tl2p group"),
    (Z2, [{"idx": 1}] * 2, [{"idx": 0}, {"idx": -1}], True,
     "g-1 is not an element of the cayley group"),
    (Z2, [{"idx": 1}] * 2, [{"idx": 0}, {"idx": 5}], True,
     "g5 is not an element of the cayley group"),
    ({"family": "symmetric", "n": 3},
     [{"images": [2, 1]}, {"images": [2, 1, 3]}], None, None,
     "(1 2) is not an element of the symmetric group"),
    # an element's own p or n, when given, must be the group's: read mod 5,
    # diag(6, 1) mod 7 would pass for the identity
    ({"family": "gl2p", "p": 5},
     [{"p": 7, "rows": [[6, 0], [0, 1]]}] * 2, None, None,
     "[[6,0],[0,1]] has p = 7, the gl2p group has p = 5"),
    ({"family": "symmetric", "n": 3},
     [{"n": 5, "images": [2, 1, 3]}], None, None,
     "(1 2) has n = 5, the symmetric group has n = 3"),
] + [(group, constants, None, None, message)
     for group, constants, message in DECODE_CHECKS],
    ids=["A4-odd", "SL2-det2", "TL2-lower", "Z2-idx-negative",
         "Z2-idx-too-large", "S3-short-images", "GL2-own-p", "S3-own-n"]
    + DECODE_CHECK_IDS)
def test_elements_outside_the_group_are_input_errors(
        group, constants, conjugators, solvable, message, monkeypatch,
        capsys):
    payload = {"group": group, "constants": constants}
    if conjugators is None:
        verb = "decide"
    else:
        code, out = run(["decide"], payload, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["solvable"] is solvable
        verb = "verify"
        payload["conjugators"] = conjugators
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main([verb]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("group, constants, message", DECODE_CHECKS,
                         ids=DECODE_CHECK_IDS)
def test_decode_checks_survive_python_O(group, constants, message):
    proc = _python(["-m", "spherical.cli", "decide"],
                   {"group": group, "constants": constants}, flags=["-O"])
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == f"input error: {message}\n".encode()


@pytest.mark.parametrize("family, images, message", [
    ("symmetric", [1, 1, 3], "images must be a bijection on 1..n"),
    ("symmetric", [0, 1, 2], "images must be a bijection on 1..n"),
    ("alternating", [2, 1, 3],
     "(1 2) is not an element of the alternating group"),
], ids=["repeated", "zero", "odd-in-alternating"])
def test_bad_permutations_are_input_errors(family, images, message,
                                           monkeypatch, capsys):
    group = {"family": family, "n": 3}
    bad, good = {"images": images}, {"images": [2, 3, 1]}
    for verb, payload in (
            ("decide", {"group": group, "constants": [bad]}),
            ("verify", {"group": group, "constants": [bad],
                        "conjugators": [good]}),
            ("verify", {"group": group, "constants": [good],
                        "conjugators": [bad]})):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert cli.main([verb]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {message}\n"


@pytest.mark.parametrize("payload", [
    {"group": {"family": "gl2p", "p": 5},
     "constants": [{"rows": [[1, 1], [0, 1]]}, {"rows": [[2, 0], [0, 3]]},
                   {"rows": [[0, 1], [4, 0]]}]},
    {"group": {"family": "symmetric", "n": 5},
     "constants": [{"images": [2, 3, 4, 5, 1]}, {"images": [2, 1, 4, 3, 5]},
                   {"images": [3, 1, 2, 4, 5]}]},
], ids=["GL2_5", "S5"])
def test_oracle_solve_ignores_the_hash_seed(payload):
    # the class tables' generating sets are drawn from a Random seeded with
    # |G|, so the witness must not change with PYTHONHASHSEED
    outs = []
    for hash_seed in ("0", "1"):
        proc = _python(["-m", "spherical.cli", "solve", "--force-oracle"],
                       payload, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["verified"] is True
    assert outs[0] == outs[1]


@pytest.mark.parametrize("p", [0, 6, -7])
def test_classify_needs_a_prime(p, monkeypatch, capsys):
    # p = 0 divided by zero, Z/6 is not a field, and p = -7 printed det -6
    payload = {"p": p, "rows": [[1, 2], [3, 4]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["classify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: gl2p needs a prime p\n"


def test_classify_rejects_a_singular_matrix(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"p": 5, "rows": [[1, 1], [1, 1]]})))
    assert cli.main(["classify"]) == 2
    assert capsys.readouterr().err == (
        "input error: [[1,1],[1,1]] is not an element of the gl2p group\n")


def test_unreadable_payloads_are_input_errors(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["decide", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: [Errno 2]")
    assert err.count("\n") == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["decide", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: maximum recursion")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, payload, message", [
    (["decide"], {"group": {"family": "heisenberg", "n": 10**12, "p": 5},
                  "constants": []}, "heisenberg field 'n' is above 10002"),
    (["decide"], {"group": {"family": "semidirect", "m": 3, "k": 10**12},
                  "constants": []}, "semidirect field 'k' is above 10000"),
    (["decide"], {"group": {"family": "symmetric", "n": 10**6},
                  "constants": []}, "symmetric field 'n' is above 10000"),
    (["decide"], {"group": {"family": "alternating", "n": 10**6},
                  "constants": []}, "alternating field 'n' is above 10000"),
    # 399165290221 * 798330580441, which is_prime's bases do not cover
    (["solve"], gl2_eq(318665857834031151167461, [[[1, 1], [0, 1]]]),
     "gl2p field 'p' is not below 2^64"),
    (["reduce", "--from", "xcover"], {"k": 10**9, "subsets": [[1]], "m": 3},
     "xcover field 'k' plus the number of subsets is above 10000"),
    (["reduce", "--from", "3part"], {"a": [10**6, 10**6, 10**6]},
     "symmetric field 'n' is above 10000"),
    # the bitset would need 60 * 10^10 bits, and 60 values are past SIGN_CAP
    (["decide"], {"group": {"family": "dihedral", "n": 10**10},
                  "constants": [{"k": k, "delta": 1} for k in range(1, 61)]},
     "60 constants are too many for a signed-sum search"),
], ids=["heisenberg-n", "semidirect-k", "symmetric-n", "alternating-n",
        "gl2p-p", "xcover-k", "3part-n", "dihedral-rotations"])
def test_parameters_above_the_cap_are_capacity_errors(argv, payload, message,
                                                      monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"capacity error: {message}\n"


@pytest.mark.parametrize("reduction, payload, message", [
    ("partition", {"a": [True, 2]},
     "Partition field 'a' must be a list of integers, not [True, 2]"),
    ("xcover", {"k": 2, "subsets": [[1, 2]], "m": 3.0},
     "xcover field 'm' must be an integer, not 3.0"),
    ("xcover", {"k": 2, "subsets": [[1, 2.0]], "m": 3},
     "each subset must be a list of integers, not [1, 2.0]"),
    ("3part", {"a": [2, 2, 2.0]},
     "3-Partition field 'a' must be a list of integers, not [2, 2, 2.0]"),
    ("3part", [2, 2, 2],
     "expected a JSON object with field 'a', not a list"),
])
def test_reduction_instances_must_be_integers(reduction, payload, message,
                                              monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["reduce", "--from", reduction]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {message}\n"


def argparse_parser():
    """The argparse parser the CLI used before its own: the reference for
    the grammar, the messages and the exit codes."""
    parser = argparse.ArgumentParser(
        prog="spherical",
        description="Decide and solve spherical equations over finite groups.")
    parser.add_argument("verb", choices=sorted(cli._VERBS))
    parser.add_argument("input", nargs="?",
                        help="path to a JSON input (default: stdin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--from", dest="reduction",
                        choices=("3part", "partition", "xcover"),
                        help="reduction to generate (verb: reduce)")
    parser.add_argument("--force-oracle", action="store_true",
                        help="route through the brute-force oracle")
    parser.add_argument("--out", help="write output here instead of stdout")
    return parser


def argparse_parse(argv):
    """argv by argparse; a path after the flags is left over by
    parse_known_args, and taken as the input."""
    parser = argparse_parser()
    args, rest = parser.parse_known_args(argv)
    if args.input is None and len(rest) == 1 and not rest[0].startswith("-"):
        args.input = rest[0]
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


ARG_FIELDS = ("verb", "input", "seed", "reduction", "force_oracle", "out")


def parse_outcome(parse, argv, capsys):
    """(exit code or None, namespace fields or None, stdout, stderr)."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        code, fields = exc.code, None
    else:
        code, fields = None, {f: getattr(args, f) for f in ARG_FIELDS}
    out, err = capsys.readouterr()
    return code, fields, out, err


PARSER_CORPUS = [
    *([verb, "p.json", "--seed", "3"] for verb in sorted(cli._VERBS)),
    *([verb, "--seed", "3", "p.json"] for verb in sorted(cli._VERBS)),
    ["reduce", "--from", "xcover", "p.json", "--force-oracle", "--out", "o"],
    ["--out=o", "reduce", "p.json", "--from=3part"],
    ["decide", "--seed=3"], ["decide", "--seed", "-5"], ["decide", "--seed=-5"],
    ["decide", "--seed", "1", "--seed", "2"], ["decide", "--force"],
    ["decide", "--se", "4"], ["decide", "--", "path"],
    ["decide", "--seed", "3", "--", "-path"], ["--", "decide", "path"],
    ["decide", "-5"], ["decide", "x y"], ["decide", ""],
    [], ["--seed", "3"], ["bad"], ["bad", "--f"], ["decide", "--seed", "x"],
    ["decide", "--seed", "1" * 5000], ["decide", "--seed"],
    ["decide", "--out", "--seed"], ["decide", "--seed", "--", "3"],
    ["reduce", "--from", "q"], ["decide", "--f"], ["decide", "--f=3"],
    ["decide", "--force-oracle=1"], ["decide", "-s", "3"],
    ["decide", "a", "b"], ["decide", "--seed", "1", "a", "b"],
    ["decide", "--bogus", "a"], ["decide", "a", "--"],
    ["decide", "--seed", "x", "--f"], ["decide", "--=x"],
    ["-h"], ["--help"], ["--he"], ["decide", "-h"], ["-hh"], ["-hx"],
    ["-h="], ["--help=x"], ["-h", "--f"], ["bad", "-h"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS,
                         ids=[" ".join(a)[:40] or "(empty)"
                                              for a in PARSER_CORPUS])
def test_parser_matches_argparse(argv, monkeypatch, capsys):
    # argparse wraps its usage to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    want = parse_outcome(argparse_parse, argv, capsys)
    got = parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert got == want
    code, fields, out, err = got
    if code == 2:
        assert err.endswith("\n") and err.splitlines()[-1].startswith(
            "spherical: error: ") and out == ""
    elif code == 0:
        assert out.startswith("usage: spherical") and err == ""


PARSER_TOKENS = [
    "decide", "reduce", "bad", "p.json", "q.json", "x y", "", "-", "--",
    "-5", "-.5", "-5e3", "-x", "3", "--seed", "--seed=3", "--seed=", "--se",
    "--s=4", "-h", "--he", "-hh", "-hx", "--from", "--fr=xcover", "3part",
    "--f", "--fo", "--force-oracle", "--force-oracle=", "--out", "--o=o",
    "---seed", "--bogus"]


def test_parser_matches_argparse_on_random_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(18)
    parse = cli.build_parser().parse_args
    for _ in range(3000):
        argv = [rng.choice(PARSER_TOKENS) for _ in range(rng.randrange(7))]
        if argv.count("--") > 1:
            continue  # see test_parser_takes_what_follows_dashes_as_written
        assert parse_outcome(parse, argv, capsys) == parse_outcome(
            argparse_parse, argv, capsys), argv


@pytest.mark.parametrize("argv, want", [
    (["decide", "--", "--"], {"input": "--"}),
    (["decide", "--", "--", "x"], "unrecognized arguments: x"),
    (["decide", "--seed=--"], "argument --seed: invalid int value: '--'"),
    (["reduce", "--from=--"], "argument --from: invalid choice: '--' "
                              "(choose from '3part', 'partition', 'xcover')"),
    (["decide", "--out=--"], {"out": "--"}),
])
def test_parser_takes_what_follows_dashes_as_written(argv, want, capsys):
    # argparse strips one `--` from each argument's values: `decide -- --`
    # read stdin, and `--seed=--` gave a seed of [], which crashed Rng
    code, fields, _, err = parse_outcome(cli.build_parser().parse_args, argv,
                                         capsys)
    if isinstance(want, dict):
        assert code is None and {f: fields[f] for f in want} == want
    else:
        assert code == 2 and err.splitlines()[-1] == f"spherical: error: {want}"


@pytest.mark.parametrize("argv, want", [
    (["decide", "--seed", "12345"], ("decide", 12345, None, False)),
    (["solve", "--seed", "7"], ("solve", 7, None, False)),
    (["decide", "--force-oracle"], ("decide", 0, None, True)),
    (["solve", "--force-oracle"], ("solve", 0, None, True)),
    (["reduce", "--from", "3part"], ("reduce", 0, "3part", False)),
    (["reduce", "--from", "partition"], ("reduce", 0, "partition", False)),
    (["reduce", "--from", "xcover"], ("reduce", 0, "xcover", False)),
    (["verify"], ("verify", 0, None, False)),
    (["saturation"], ("saturation", 0, None, False)),
])
def test_parser_serves_the_benchmark_argv(argv, want):
    # perfbench's traced run calls build_parser().parse_args(argv) and reads
    # these fields, as main does
    args = cli.build_parser().parse_args(argv)
    assert (args.verb, args.seed, args.reduction, args.force_oracle) == want
    assert args.input is None and args.out is None
    assert cli.build_parser() is cli.build_parser()


def test_import_leaves_argparse_out():
    proc = _python(["-c", "import sys, spherical.cli; "
                    "print('argparse' in sys.modules)"], {}, flags=["-S"])
    assert proc.returncode == 0 and proc.stdout == b"False\n", proc.stderr
