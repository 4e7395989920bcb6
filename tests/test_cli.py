import io
import itertools
import json

import pytest

from spherical import cli
from spherical.core import GroupSpec


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


def test_seed_determinism(monkeypatch, capsys):
    payload = gl2_eq(101, [[[3, 1], [4, 9]], [[2, 6], [5, 3]],
                           [[9, 7], [9, 3]]])
    outs = set()
    for _ in range(3):
        code, out = run(["solve", "--seed", "7"], payload, monkeypatch,
                        capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_out_flag(tmp_path, monkeypatch, capsys):
    dest = tmp_path / "report.json"
    payload = {"group": {"family": "dihedral", "n": 5},
               "constants": [{"k": 1, "delta": 1}, {"k": 4, "delta": 1}]}
    code, out = run(["decide", "--out", str(dest)], payload, monkeypatch,
                    capsys)
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["solvable"]


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
    # a witness still comes out of solve (via the oracle fallback)
    code, out = run(["solve"], payload, monkeypatch, capsys)
    rep = json.loads(out)
    assert rep["solvable"] and rep["method"] == "brute" and rep["verified"]


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


def test_solve_witness_gate_is_not_an_assert(monkeypatch, capsys):
    payload = {"group": {"family": "dihedral", "n": 5},
               "constants": [{"k": 1, "delta": 1}, {"k": 4, "delta": 1}]}
    monkeypatch.setattr(cli.core, "verify", lambda eq, sol: False)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    with pytest.raises(RuntimeError, match="witness fails verification"):
        cli.main(["solve"])


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
