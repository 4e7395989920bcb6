import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from spherical import cli, core, families, semidirect
from spherical.core import (GroupSpec, SphericalEquation, Solution,
                            InputError, TooLargeError, CayleyTable,
                            conjugacy_classes, decide_cayley, solve_brute,
                            normalize, verify,
                            saturation_length,
                            signed_sum_signs)
from spherical.mat2 import Mat2
from spherical.semidirect import SemidirectElement

from conftest import q8_mul_table, cyclic_table


def direct_product(a, b):
    """Cayley table of the direct product of two enumerable groups."""
    pairs = [(x, y) for x in a.elements() for y in b.elements()]
    index = {pq: i for i, pq in enumerate(pairs)}
    return GroupSpec("cayley", table=tuple(
        tuple(index[(x1 * x2, y1 * y2)] for (x2, y2) in pairs)
        for (x1, y1) in pairs))


def spec_zn(n):
    return GroupSpec("cayley", table=cyclic_table(n))


def test_cayley_table_validation():
    with pytest.raises(InputError, match="column is not a permutation"):
        CayleyTable([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(InputError, match="no identity element"):
        CayleyTable([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # no identity
    # a Latin square with identity that is not associative
    with pytest.raises(InputError, match="associativity fails"):
        CayleyTable([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    tab = CayleyTable(q8_mul_table())
    assert tab.ident == 0 and tab.n == 8
    # True == 1 and 1.0 == 1, so these equal a valid Z2 table entry by entry
    with pytest.raises(InputError, match="integers"):
        CayleyTable([[False, True], [True, False]])
    with pytest.raises(InputError, match="integers"):
        CayleyTable([[0, 1.0], [1, 0]])


def test_group_spec_validation():
    with pytest.raises(Exception):
        GroupSpec("nonsense")
    with pytest.raises(Exception):
        GroupSpec("gl2p", p=6)
    with pytest.raises(Exception):
        GroupSpec("semidirect", m=1, k=2)
    assert GroupSpec("symmetric", n=4).order() == 24
    assert GroupSpec("alternating", n=4).order() == 12
    assert GroupSpec("dihedral", n=5).order() == 10
    assert GroupSpec("gl2p", p=3).order() == 48
    assert GroupSpec("sl2p", p=3).order() == 24
    assert GroupSpec("tl2p", p=3).order() == 12
    assert GroupSpec("heisenberg", n=3, p=3).order() == 27
    assert GroupSpec("ut4p", p=2).order() == 64
    assert GroupSpec("semidirect", m=3, k=2).order() == 18


def test_elements_match_order():
    covered = set()
    for spec in (spec_zn(6), GroupSpec("symmetric", n=4),
                 GroupSpec("alternating", n=4), GroupSpec("dihedral", n=7),
                 GroupSpec("gl2p", p=3), GroupSpec("sl2p", p=3),
                 GroupSpec("tl2p", p=5), GroupSpec("et2n", n=5),
                 # an even composite n, where a Fermat inverse is wrong
                 GroupSpec("et2n", n=6),
                 GroupSpec("heisenberg", n=4, p=3), GroupSpec("ut4p", p=2),
                 GroupSpec("semidirect", m=3, k=2)):
        els = spec.elements()
        assert len(els) == spec.order()
        assert len(set(els)) == spec.order()
        ident = spec.identity()
        assert ident in els
        family = families.FAMILIES[spec.family]
        for x in els:
            assert family.contains(spec, x)
            assert x * x.inverse() == ident
            assert cli.decode_element(spec, cli.encode_element(spec, x)) == x
        covered.add(spec.family)
    assert covered == set(families.FAMILIES)


@pytest.mark.parametrize("spec, payload, reduced", [
    (GroupSpec("dihedral", n=5), {"k": -1, "delta": -1},
     {"k": 4, "delta": -1}),
    (GroupSpec("semidirect", m=3, k=2), {"vec": [4, -1], "sign": 1},
     {"vec": [1, 2], "sign": 1}),
    (GroupSpec("et2n", n=6), {"e1": -1, "b": 7, "e2": 1},
     {"e1": 5, "b": 1, "e2": 1}),
], ids=["dihedral", "semidirect", "et2n"])
def test_decode_reduces_payloads(spec, payload, reduced):
    el = cli.decode_element(spec, payload)
    assert cli.encode_element(spec, el) == reduced
    assert el == cli.decode_element(spec, reduced)


def test_elements_cap():
    with pytest.raises(TooLargeError):
        GroupSpec("symmetric", n=9).elements()


def test_normalize():
    spec = spec_zn(5)
    one = spec.identity()
    g = core.CayleyElement(2, spec._cayley_table())
    # rhs-form becomes rhs-free with an appended inverse constant
    eq = SphericalEquation(spec, [g, g], g)
    eqn = normalize(eq)
    assert eqn.rhs is None
    assert eqn.constants == [g, g, g.inverse()]
    # identity constants are dropped
    eq2 = SphericalEquation(spec, [one, one])
    assert normalize(eq2).constants == []
    assert eq2.length() == 0
    # (c ; rhs=c) -> (c, c^-1), solvable
    eq3 = SphericalEquation(spec, [g], g)
    assert decide_cayley(eq3)


def test_conjugacy_classes_examples():
    s3 = conjugacy_classes(GroupSpec("symmetric", n=3))
    assert sorted(len(c) for c in s3.classes) == [1, 2, 3]
    z5 = conjugacy_classes(spec_zn(5))
    assert sorted(len(c) for c in z5.classes) == [1] * 5
    d4 = conjugacy_classes(GroupSpec("dihedral", n=4))
    assert len(d4.classes) == 5


def test_decide_cayley_examples():
    s3 = GroupSpec("symmetric", n=3)
    from spherical.perm import Permutation
    t1 = Permutation((2, 1, 3))
    t2 = Permutation((1, 3, 2))
    assert decide_cayley(SphericalEquation(s3, [t1, t2]))
    assert not decide_cayley(SphericalEquation(s3, [t1]))
    # abelian: solvable iff the product of constants is 1
    z6 = spec_zn(6)
    tab = z6._cayley_table()
    for a in range(6):
        for b in range(6):
            eq = SphericalEquation(z6, [core.CayleyElement(a, tab),
                                        core.CayleyElement(b, tab)])
            assert decide_cayley(eq) == ((a + b) % 6 == 0)


def test_solve_brute_examples(q8_spec):
    assert solve_brute(SphericalEquation(q8_spec, [])).conjugators == []
    els = q8_spec.elements()
    for c in els:
        eq = SphericalEquation(q8_spec, [c, c.inverse()])
        sol = solve_brute(eq)
        assert sol is not None and verify(eq, sol)


def test_solve_brute_matches_decide_exhaustive(q8_spec):
    for spec in (GroupSpec("symmetric", n=3), q8_spec,
                 GroupSpec("dihedral", n=4)):
        els = spec.elements()
        for k in (1, 2, 3):
            for cs in itertools.product(els, repeat=k):
                eq = SphericalEquation(spec, list(cs))
                sol = solve_brute(eq)
                assert decide_cayley(eq) == (sol is not None)
                if sol is not None:
                    assert verify(eq, sol)


def test_solve_brute_with_rhs(q8_spec):
    r = random.Random(0)
    els = q8_spec.elements()
    for _ in range(200):
        cs = [els[r.randrange(8)] for _ in range(r.randrange(1, 4))]
        rhs = els[r.randrange(8)]
        eq = SphericalEquation(q8_spec, cs, rhs)
        sol = solve_brute(eq)
        if sol is not None:
            assert verify(eq, sol)
        assert decide_cayley(eq) == (sol is not None)


def test_verify_negative(q8_spec):
    els = q8_spec.elements()
    c = els[2]
    eq = SphericalEquation(q8_spec, [c])
    assert not verify(eq, Solution([q8_spec.identity()]))
    with pytest.raises(InputError, match="0 conjugators for 1 constants"):
        verify(eq, Solution([]))


def test_checked_refuses_a_conjugator_outside_the_group():
    # diag(2,1) commutes with both constants, so the product checks out,
    # but its det is 2: it lies in GL(2,5) and not in SL(2,5)
    spec = GroupSpec("sl2p", p=5)
    eq = SphericalEquation(spec, [Mat2(5, 2, 0, 0, 3), Mat2(5, 3, 0, 0, 2)])
    z = Mat2(5, 2, 0, 0, 1)
    assert verify(eq, Solution([z, z]))
    with pytest.raises(RuntimeError, match="outside the group"):
        core.checked(eq, Solution([z, z]))
    ident = spec.identity()
    assert core.checked(eq, Solution([ident, ident]))


def test_normalize_preserves_verdict(q8_spec):
    r = random.Random(2)
    els = q8_spec.elements()
    for _ in range(200):
        cs = [els[r.randrange(8)] for _ in range(r.randrange(0, 4))]
        rhs = els[r.randrange(8)] if r.random() < 0.5 else None
        eq = SphericalEquation(q8_spec, cs, rhs)
        assert decide_cayley(eq) == decide_cayley(normalize(eq))


def test_saturation_examples():
    assert saturation_length(spec_zn(2)) is None
    assert saturation_length(GroupSpec("symmetric", n=3)) is None
    sat = saturation_length(GroupSpec("alternating", n=5))
    assert sat is not None and 1 <= sat <= 60**3 - 60 + 1


def test_direct_product_law():
    s3 = GroupSpec("symmetric", n=3)
    z2 = spec_zn(2)
    prod = direct_product(s3, z2)
    assert prod.order() == 12
    els = prod.elements()
    r = random.Random(3)
    s3_els = s3.elements()
    z2_els = z2.elements()
    for _ in range(100):
        k = r.randrange(1, 4)
        pairs = [(r.randrange(6), r.randrange(2)) for _ in range(k)]
        eq = SphericalEquation(
            prod, [els[a * 2 + b] for a, b in pairs])
        eq_g = SphericalEquation(s3, [s3_els[a] for a, _ in pairs])
        eq_h = SphericalEquation(z2, [z2_els[b] for _, b in pairs])
        assert decide_cayley(eq) == (decide_cayley(eq_g) and decide_cayley(eq_h))


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=100, deadline=None)
def test_abelian_criterion_property(n, data):
    spec = spec_zn(n)
    tab = spec._cayley_table()
    k = data.draw(st.integers(min_value=0, max_value=4))
    idxs = [data.draw(st.integers(min_value=0, max_value=n - 1))
            for _ in range(k)]
    eq = SphericalEquation(spec, [core.CayleyElement(i, tab) for i in idxs])
    assert decide_cayley(eq) == (sum(idxs) % n == 0)


def test_associativity_check_is_exact_above_64():
    # Z_66 with the intercalate at rows/columns {1, 34} swapped: still a
    # Latin square with identity 0, but no longer associative
    mul = cyclic_table(66)
    a, b = mul[1][1], mul[1][34]
    mul[1][1] = mul[34][34] = b
    mul[1][34] = mul[34][1] = a
    with pytest.raises(InputError, match="associativity fails"):
        CayleyTable(mul)
    assert CayleyTable(cyclic_table(66)).n == 66


def _classes_by_conjugating_everything(spec):
    """Reference partition: each representative, taken in index order,
    conjugated by every element of the group."""
    els = spec.elements()
    index = {g: i for i, g in enumerate(els)}
    class_of = [None] * len(els)
    classes = []
    for i, rep in enumerate(els):
        if class_of[i] is not None:
            continue
        cls = set()
        for x in els:
            j = index[x.inverse() * rep * x]
            if class_of[j] is None:
                class_of[j] = len(classes)
                cls.add(j)
        classes.append(cls)
    return class_of, classes


def _z2_cubed():
    z2 = GroupSpec("cayley", table=cyclic_table(2))
    return direct_product(direct_product(z2, z2), z2)


ORBIT_SPECS = {
    "S1": GroupSpec("symmetric", n=1), "S5": GroupSpec("symmetric", n=5),
    "A5": GroupSpec("alternating", n=5), "D4": GroupSpec("dihedral", n=4),
    "GL2_5": GroupSpec("gl2p", p=5), "SL2_5": GroupSpec("sl2p", p=5),
    "Z2^3": _z2_cubed(),
}


def _assert_matches_reference(spec, tab):
    class_of, classes = _classes_by_conjugating_everything(spec)
    assert tab.class_of == class_of
    assert [set(c) for c in tab.classes] == classes
    assert tab.reps == [min(c) for c in classes]
    for i, g in enumerate(tab.elems):
        w = tab.witness[i]
        assert w.inverse() * tab.elems[tab.reps[class_of[i]]] * w == g


@pytest.mark.parametrize("name", list(ORBIT_SPECS))
def test_orbit_class_table_matches_conjugating_by_everything(name):
    spec = ORBIT_SPECS[name]
    _assert_matches_reference(spec, core.ConjClassTable(spec))


def _generators(spec):
    els = spec.elements()
    index = {g: i for i, g in enumerate(els)}
    return core.generating_set(len(els), index[spec.identity()],
                               lambda h, s: index[els[h] * els[s]])


def test_generating_set_is_extended_when_the_draw_falls_short():
    # any two elements of Z2^3 generate at most four of its eight
    assert len(_generators(_z2_cubed())) == 3


class _StuckRandom:
    """A draw that always picks element 0 (the identity in S_n)."""

    def __init__(self, seed):
        pass

    def sample(self, population, k):
        return [population[0]] * k


@pytest.mark.parametrize("name", ["S5", "GL2_5", "Z2^3"])
def test_class_table_covers_the_group_whatever_the_draw(name, monkeypatch):
    monkeypatch.setattr(core.random, "Random", _StuckRandom)
    spec = ORBIT_SPECS[name]
    _assert_matches_reference(spec, core.ConjClassTable(spec))


@pytest.mark.parametrize("stuck", [False, True])
def test_associativity_check_holds_whatever_the_draw(stuck, monkeypatch):
    if stuck:
        monkeypatch.setattr(core.random, "Random", _StuckRandom)
    with pytest.raises(InputError, match="associativity"):
        CayleyTable([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    assert CayleyTable(q8_mul_table()).n == 8


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sl2p_elements_are_the_det_1_matrices(p):
    spec = GroupSpec("sl2p", p=p)
    els = spec.elements()
    want = {x for x in families.FAMILIES["gl2p"].elements(spec)
            if x.det() == 1}
    assert set(els) == want
    assert len(els) == p**3 - p


def _reachable_products(spec, constants, conjugates):
    """Every product prod z_i^-1 c_i z_i over every conjugator tuple."""
    reach = {spec.identity()}
    for c in constants:
        reach = {v * u for v in reach for u in conjugates[c]}
    return reach


@pytest.mark.parametrize("name", ["S3", "Q8", "D4", "A4"])
def test_class_dp_matches_conjugator_enumeration(name, q8_spec):
    spec = {"S3": GroupSpec("symmetric", n=3), "Q8": q8_spec,
            "D4": GroupSpec("dihedral", n=4),
            "A4": GroupSpec("alternating", n=4)}[name]
    els = spec.elements()
    conjugates = {c: {z.inverse() * c * z for z in els} for c in els}
    one = spec.identity()
    for k in (1, 2, 3):
        for cs in itertools.product(els, repeat=k):
            eq = SphericalEquation(spec, list(cs))
            want = one in _reachable_products(spec, cs, conjugates)
            assert decide_cayley(eq) == want, cs
            sol = solve_brute(eq)
            assert (sol is not None) == want, cs
            if sol is not None:
                assert verify(eq, sol)


@pytest.mark.parametrize("spec, length", [
    (GroupSpec("alternating", n=5), 4),
    (GroupSpec("alternating", n=6), 4),
    (GroupSpec("alternating", n=4), None),
    (GroupSpec("symmetric", n=4), None),
    (GroupSpec("symmetric", n=5), None),
    (GroupSpec("dihedral", n=5), None),
    (GroupSpec("sl2p", p=3), None),
    (GroupSpec("sl2p", p=5), None),
    (GroupSpec("gl2p", p=3), None),
])
def test_saturation_lengths(spec, length):
    assert saturation_length(spec) == length


def test_spec_from_list_or_tuple_table_is_one_key():
    rows = cyclic_table(5)
    a = GroupSpec("cayley", table=rows)
    b = GroupSpec("cayley", table=tuple(tuple(r) for r in rows))
    assert a == b and hash(a) == hash(b)
    assert a != spec_zn(6) and {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a.table = None  # the stored hash would go stale


def test_spec_memoises_its_tables():
    spec = spec_zn(7)
    tab = conjugacy_classes(spec)
    assert conjugacy_classes(spec) is tab
    assert spec._cayley_table() is tab.elems[0].table
    # an equal spec built later shares the tables
    again = spec_zn(7)
    assert conjugacy_classes(again) is tab


def test_spec_pickle_rebuilds_hash_and_drops_memos():
    import pickle
    spec = spec_zn(4)
    conjugacy_classes(spec)
    # a stored hash from another process must not come back with the spec
    object.__setattr__(spec, "_hash", 12345)
    loaded = pickle.loads(pickle.dumps(spec))
    assert loaded == spec and hash(loaded) == hash(spec_zn(4)) != 12345
    assert "_tables" not in vars(loaded)


def _signed_sums(vecs, m):
    """{sum mod m: one sign vector reaching it}, over every sign vector."""
    dim = len(vecs[0]) if vecs else 0
    out = {}
    for signs in itertools.product((1, -1), repeat=len(vecs)):
        s = tuple(sum(e * v[j] for e, v in zip(signs, vecs)) % m
                  for j in range(dim))
        out.setdefault(s, signs)
    return out


@pytest.mark.parametrize("m", [3, 5, 7])
def test_signed_sum_signs_matches_every_sign_vector(m):
    r = random.Random(m)
    for dim in range(1, 5):
        for count in range(11):
            vecs = [tuple(r.randrange(-m, 2 * m) for _ in range(dim))
                    for _ in range(count)]
            reach = _signed_sums(vecs, m) if count else {(0,) * dim: ()}
            targets = [(0,) * dim, r.choice(sorted(reach))]
            targets += [tuple(r.randrange(m) for _ in range(dim))
                        for _ in range(3)]
            for target in targets:
                _check_signed_sum(vecs, target, m, reach)


def _check_signed_sum(vecs, target, m, reach):
    """signed_sum_signs answers iff the brute force reaches target, and
    its signs hit target."""
    got = signed_sum_signs(vecs, target, m)
    assert (got is not None) == (target in reach), (vecs, target, m)
    if got is not None:
        assert len(got) == len(vecs) and set(got) <= {1, -1}
        assert all((sum(e * v[j] for e, v in zip(got, vecs)) - target[j])
                   % m == 0 for j in range(len(target)))


def _planted_columns(r, m, count, dim):
    """count random vectors in which each coordinate is, at random, left
    as drawn, touched by no vector, or touched by one vector alone, whose
    entry is m/2 one time in three when m is even; entries run over
    -m..2m-1, so zeros mod m are not all 0."""
    vecs = [[r.randrange(-m, 2 * m) for _ in range(dim)]
            for _ in range(count)]
    for j in range(dim):
        kind = r.randrange(3)
        if kind == 0 or not count:
            continue
        for v in vecs:
            v[j] = r.choice((-m, 0, m))
        if kind == 2:
            half = m % 2 == 0 and r.randrange(3) == 0
            vecs[r.randrange(count)][j] = (m // 2 if half
                                           else r.randrange(1, m))
    return [tuple(v) for v in vecs]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_presolve_matches_every_sign_vector(m):
    # with two or more coordinates the presolve runs before any search
    r = random.Random(100 + m)
    decided = searched = 0
    for dim in range(2, 6):
        for count in range(10):
            for _ in range(3):
                vecs = _planted_columns(r, m, count, dim)
                reach = _signed_sums(vecs, m) if count else {(0,) * dim: ()}
                targets = [(0,) * dim, r.choice(sorted(reach)),
                           tuple(r.randrange(m) for _ in range(dim))]
                for target in targets:
                    _check_signed_sum(vecs, target, m, reach)
                    found = core._presolve(vecs, target, m)
                    if found is None or not found[1]:
                        decided += 1
                    else:
                        searched += 1
    # both ends of the presolve ran: answers with no search, and searches
    assert decided > 100 and searched > 50


def test_presolve_repeats_until_no_coordinate_qualifies():
    # only coordinate 0 has one vector at first; fixing it leaves
    # coordinate 1 with one, and then coordinate 2
    vecs = [(1, 2, 0), (0, 1, 3), (0, 0, 1)]
    assert core._presolve(vecs, (1, 1, 3), 5) == ([1, -1, 1], [], [], [])
    assert core._presolve(vecs, (1, 1, 0), 5) is None


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_presolved_decide_and_solve_agree(m):
    r = random.Random(200 + m)
    for dim in (2, 3, 4):
        spec = GroupSpec("semidirect", m=m, k=dim)
        for count in range(1, 9):
            vecs = _planted_columns(r, m, count, dim)
            reach = _signed_sums(vecs, m)
            for target in (r.choice(sorted(reach)),
                           tuple(r.randrange(m) for _ in range(dim))):
                eq = SphericalEquation(
                    spec, [SemidirectElement(tuple([x % m for x in v]), 1, m)
                           for v in vecs],
                    SemidirectElement(target, 1, m))
                want = target in reach
                assert semidirect.decide_signvector(eq) == want
                # solve_signvector returns through core.checked
                sol = semidirect.solve_signvector(eq)
                assert (sol is not None) == want, (vecs, target, m)
                if want:
                    assert verify(eq, sol)
