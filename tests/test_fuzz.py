"""Every payload, well formed or not, ends in exit 0, 2 or 3: never a
traceback, and on 2 or 3 one line on stderr and nothing on stdout."""

import io
import json
import sys

from hypothesis import given, settings, strategies as st

from spherical import cli

VERBS = [["decide"], ["decide", "--force-oracle"], ["solve"], ["verify"],
         ["oracle"], ["saturation"], ["classify"],
         ["reduce", "--from", "3part"], ["reduce", "--from", "partition"],
         ["reduce", "--from", "xcover"]]

PREFIX = {2: "input error: ", 3: "capacity error: "}

# the field names and families the decoders look for, so that arbitrary
# JSON gets past the first lookup often enough to reach the later ones
NAMES = ["group", "constants", "rhs", "conjugators", "family", "n", "p", "m",
         "k", "table", "idx", "images", "delta", "rows", "e1", "b", "e2",
         "alpha1", "a2", "alpha3", "entries", "vec", "sign", "a", "subsets",
         "alternating", "cayley", "symmetric", "dihedral",
         "gl2p", "sl2p", "tl2p", "et2n", "heisenberg", "ut4p", "semidirect"]

SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
           | st.integers() | st.integers(10**12, 10**40) | st.floats()
           | st.sampled_from(NAMES) | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=10)


def _mat(rows):
    return {"rows": rows}


# decide, solve and oracle ignore the conjugators that verify reads
EQUATION = [["decide"], ["solve"], ["verify"], ["oracle"]]

# one valid payload per family, and one for each other verb
VALID = [
    (EQUATION,
     {"group": {"family": "cayley", "table": [[0, 1], [1, 0]]},
      "constants": [{"idx": 1}, {"idx": 1}],
      "conjugators": [{"idx": 0}, {"idx": 1}]}),
    (EQUATION,
     {"group": {"family": "symmetric", "n": 4},
      "constants": [{"n": 4, "images": [2, 3, 1, 4]},
                    {"images": [3, 1, 2, 4]}],
      "rhs": {"images": [1, 2, 3, 4]},
      "conjugators": [{"images": [1, 2, 3, 4]}, {"images": [2, 1, 3, 4]}]}),
    (EQUATION,
     {"group": {"family": "alternating", "n": 4},
      "constants": [{"images": [2, 3, 1, 4]}, {"images": [3, 1, 2, 4]}],
      "conjugators": [{"images": [1, 2, 3, 4]}] * 2}),
    (EQUATION,
     {"group": {"family": "dihedral", "n": 6},
      "constants": [{"k": 1, "delta": 1}, {"k": 5, "delta": 1},
                    {"k": 2, "delta": -1}],
      "rhs": {"k": 2, "delta": -1},
      "conjugators": [{"k": 0, "delta": 1}] * 3}),
    (EQUATION,
     {"group": {"family": "gl2p", "p": 5},
      "constants": [_mat([[1, 1], [0, 1]]), {"p": 5, "rows": [[2, 0], [0, 3]]},
                    _mat([[0, 1], [4, 0]])],
      "conjugators": [_mat([[1, 0], [0, 1]])] * 3}),
    (EQUATION,
     {"group": {"family": "sl2p", "p": 3},
      "constants": [_mat([[1, 1], [0, 1]]), _mat([[1, 2], [0, 1]])],
      "conjugators": [_mat([[1, 0], [0, 1]])] * 2}),
    (EQUATION,
     {"group": {"family": "tl2p", "p": 5},
      "constants": [_mat([[1, 1], [0, 1]]), _mat([[2, 3], [0, 3]])],
      "rhs": _mat([[2, 0], [0, 3]]),
      "conjugators": [_mat([[1, 0], [0, 1]])] * 2}),
    (EQUATION,
     {"group": {"family": "et2n", "n": 4},
      "constants": [{"e1": 1, "b": 1, "e2": 3}, {"e1": 1, "b": 3, "e2": 3}],
      "conjugators": [{"e1": 1, "b": 0, "e2": 1}] * 2}),
    (EQUATION,
     {"group": {"family": "heisenberg", "n": 3, "p": 3},
      "constants": [{"alpha1": [1], "a2": 0, "alpha3": [2]},
                    {"alpha1": [2], "a2": 1, "alpha3": [1]}],
      "conjugators": [{"alpha1": [0], "a2": 0, "alpha3": [0]}] * 2}),
    (EQUATION,
     {"group": {"family": "ut4p", "p": 2},
      "constants": [{"entries": [1, 0, 1, 0, 1, 0]},
                    {"entries": [1, 1, 0, 0, 1, 0]}],
      "conjugators": [{"entries": [0] * 6}] * 2}),
    (EQUATION,
     {"group": {"family": "semidirect", "m": 3, "k": 2},
      "constants": [{"vec": [1, 2], "sign": 1}, {"vec": [1, 0], "sign": -1}],
      "rhs": {"vec": [2, 2], "sign": -1},
      "conjugators": [{"vec": [0, 0], "sign": 1}] * 2}),
    ([["saturation"]], {"family": "dihedral", "n": 5}),
    ([["classify"]], {"p": 5, "rows": [[1, 1], [0, 1]]}),
    ([["reduce", "--from", "3part"]], {"a": [2, 2, 2], "alternating": False}),
    ([["reduce", "--from", "partition"]], {"a": [3, 1, 2]}),
    ([["reduce", "--from", "xcover"]], {"k": 2, "subsets": [[1, 2]], "m": 3}),
]


def _paths(obj, path=()):
    """Every (container path, key) naming a field of an object in obj."""
    if type(obj) is dict:
        for key, val in obj.items():
            yield path, key
            yield from _paths(val, path + (key,))
    elif type(obj) is list:
        for i, val in enumerate(obj):
            yield from _paths(val, path + (i,))


FIELDS = [(argvs, payload, path, key) for argvs, payload in VALID
          for path, key in _paths(payload)]


def check(argv, payload, want=None):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(json.dumps(payload))
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the argv parser's; no argv here raises it
            code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, payload, code, err)
    assert want in (None, code), (argv, payload, code, err)
    if code == 0:
        assert out.count("\n") == 1 and json.loads(out), (argv, payload)
    else:
        assert out == "", (argv, payload)
        assert err.startswith(PREFIX[code]) and err.count("\n") == 1 \
            and err.endswith("\n"), (argv, payload, err)


def test_valid_payloads_exit_0():
    for argvs, payload in VALID:
        for argv in argvs:
            check(argv, payload, want=0)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(argv=st.sampled_from(VERBS), payload=JSON)
def test_arbitrary_json(argv, payload):
    check(argv, payload)


@settings(derandomize=True, deadline=None, max_examples=1200)
# small integers first: they are the parameters just off the valid ones
@given(field=st.sampled_from(FIELDS), value=st.integers(-1, 8) | JSON,
       delete=st.booleans())
def test_one_field_mutations(field, value, delete):
    argvs, payload, path, key = field
    payload = json.loads(json.dumps(payload))
    obj = payload
    for step in path:
        obj = obj[step]
    if delete:
        del obj[key]
    else:
        obj[key] = value
    for argv in argvs:
        check(argv, payload)
