import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from spherical import core
from spherical.core import (GroupSpec, SphericalEquation, Solution,
                            BadTableError, TooLargeError, CayleyTable,
                            conjugacy_classes, decide_cayley, solve_brute,
                            normalize, reorder_equiv, verify,
                            saturation_length, direct_product)

from conftest import q8_mul_table, cyclic_table


def spec_zn(n):
    return GroupSpec("cayley", table=cyclic_table(n))


def test_cayley_table_validation():
    with pytest.raises(BadTableError):
        CayleyTable([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(BadTableError):
        CayleyTable([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # no identity
    # a Latin square with identity that is not associative
    with pytest.raises(BadTableError):
        CayleyTable([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    tab = CayleyTable(q8_mul_table())
    assert tab.ident == 0 and tab.n == 8


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
    for spec in (spec_zn(6), GroupSpec("symmetric", n=4),
                 GroupSpec("alternating", n=4), GroupSpec("dihedral", n=7),
                 GroupSpec("gl2p", p=3), GroupSpec("sl2p", p=3),
                 GroupSpec("tl2p", p=5), GroupSpec("et2n", n=5),
                 GroupSpec("heisenberg", n=4, p=3), GroupSpec("ut4p", p=2),
                 GroupSpec("semidirect", m=3, k=2)):
        els = spec.elements()
        assert len(els) == spec.order()
        assert len(set(els)) == spec.order()
        assert spec.identity() in els


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
    with pytest.raises(core.LengthMismatchError):
        verify(eq, Solution([]))


def test_reorder_equiv():
    spec = GroupSpec("symmetric", n=4)
    r = random.Random(1)
    els = spec.elements()
    for _ in range(200):
        k = r.randrange(1, 5)
        cs = [els[r.randrange(len(els))] for _ in range(k)]
        eq = SphericalEquation(spec, cs)
        perm = list(range(k))
        r.shuffle(perm)
        eq2, map_back = reorder_equiv(eq, perm)
        assert decide_cayley(eq) == decide_cayley(eq2)
        sol2 = solve_brute(eq2)
        if sol2 is not None:
            sol = map_back(sol2)
            assert verify(eq, sol)


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
    with pytest.raises(BadTableError):
        CayleyTable(mul)
    assert CayleyTable(cyclic_table(66)).n == 66


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
