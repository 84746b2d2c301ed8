import random
from fractions import Fraction
from math import lcm

import pytest

from mckay import linalg
from mckay.age import eigen_exponents, grade
from mckay.cyclo import cyclotomic_field
from mckay.errors import ClosureCapError, RequirementError
from mckay.groupfile import parse_group_file
from mckay.matgroup import close_group
from mckay.quiver import fold
from mckay.valuation import monomial_valuation, ram_group, stab_group

from conftest import closed_group, group_path

EXPECTED_ORDERS = {
    "bd8": (8, 5),
    "bd12": (12, 6),
    "bt48": (24, 7),
    "trihedral27": (27, 11),
    "icosahedral60": (60, 5),
    "cyclic_7_124": (7, 7),
    "terminal_5_1423": (5, 5),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_ORDERS))
def test_closure_order_and_class_count(name):
    group = closed_group(name)
    order, classes = EXPECTED_ORDERS[name]
    assert len(group) == order
    assert len(group.classes) == classes
    assert group.in_sl


def test_bd8_class_partition():
    group = closed_group("bd8")
    sizes = sorted(len(c) for c in group.classes)
    assert sizes == [1, 1, 2, 2, 2]
    # the size-1 nonidentity class is the central element -1 = A^2
    central = [c for c in group.classes if len(c) == 1 and c.representative != 0]
    assert len(central) == 1
    rep = central[0].representative
    assert group.elements[rep].order == 2
    a = group.generator_indices[0]
    assert rep == group.power(a, 2)
    # A and A^3 are conjugate (via B), as are B and B^3
    b = group.generator_indices[1]
    assert group.class_of[a] == group.class_of[group.power(a, 3)]
    assert group.class_of[b] == group.class_of[group.power(b, 3)]
    assert group.class_of[a] != group.class_of[b]


def test_element_orders_bd8():
    group = closed_group("bd8")
    orders = sorted(e.order for e in group.elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert group.exponent == 4


def test_maximal_cyclic_subgroups_bd8():
    group = closed_group("bd8")
    subgroups = group.maximal_cyclic_subgroups()
    assert len(subgroups) == 3
    assert all(len(sg.members) == 4 for sg in subgroups)
    # they pairwise intersect in the center {e, -1}
    sets = [set(sg.members) for sg in subgroups]
    for i in range(3):
        for j in range(i + 1, 3):
            assert len(sets[i] & sets[j]) == 2
    assert set.union(*sets) == set(range(8))


def test_group_axioms_spot_checks():
    rng = random.Random(11)
    for name in ("bd12", "trihedral27"):
        group = closed_group(name)
        n = len(group)
        for _ in range(40):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert group.mul(group.mul(i, j), k) == group.mul(i, group.mul(j, k))
            assert group.mul(i, group.inv(i)) == 0
            assert group.mul(0, i) == i


def test_lagrange_and_class_equation():
    for name in EXPECTED_ORDERS:
        group = closed_group(name)
        assert sum(len(c) for c in group.classes) == len(group)
        for c in group.classes:
            assert len(group) % len(c) == 0
        for e in group.elements:
            assert len(group) % e.order == 0
            assert group.exponent % e.order == 0


def test_class_membership_is_conjugacy():
    group = closed_group("bd12")
    rng = random.Random(3)
    for _ in range(30):
        i = rng.randrange(len(group))
        h = rng.randrange(len(group))
        conj = group.mul(group.mul(h, i), group.inv(h))
        assert group.class_of[conj] == group.class_of[i]


def test_element_names():
    group = closed_group("bd8")
    a, b = group.generator_indices
    assert group.element_name(0) == "e"
    assert group.element_name(a) == "A"
    assert group.element_name(group.power(a, 2)) == "A^2"
    assert group.element_name(group.mul(a, b)) == "A*B"


@pytest.mark.parametrize("name", ["bd12", "bt48", "icosahedral60"])
def test_scalar_lift_matches_group_closed_in_exponent_field(name):
    # These fields lack an eigenvalue of some element (field order N does
    # not divide the exponent).  Grading and valuations embed scalars into
    # Q(zeta_lcm(N, r)) on demand; the same generators closed directly in
    # Q(zeta_lcm(N, exp G)) need no embedding and must give the same data.
    group = closed_group(name)
    assert group.field.order % group.exponent != 0
    field = cyclotomic_field(lcm(group.field.order, group.exponent))
    gens = parse_group_file(group_path(name)).matrices()
    big = close_group([linalg.mat_embed(g, field) for g in gens])
    assert [e.word for e in big.elements] == [e.word for e in group.elements]
    for i in range(len(group)):
        assert eigen_exponents(big, i) == eigen_exponents(group, i)
    assert grade(big).buckets == grade(group).buckets
    if group.dimension == 2:
        assert fold(big).edges == fold(group).edges
    rep = group.classes[1].representative
    assert big.classes[1].representative == rep
    v, v_big = monomial_valuation(group, rep), monomial_valuation(big, rep)
    assert stab_group(big, v_big) == stab_group(group, v)
    assert ram_group(big, v_big).members == ram_group(group, v).members

def test_closure_cap():
    f1 = cyclotomic_field(1)
    one, zero = f1.one(), f1.zero()
    unipotent = ((one, one), (zero, one))
    with pytest.raises(ClosureCapError):
        close_group([unipotent], cap=50)


def test_closure_rejects_bad_generators():
    f1 = cyclotomic_field(1)
    one, zero = f1.one(), f1.zero()
    with pytest.raises(RequirementError):
        close_group([])
    with pytest.raises(RequirementError):
        close_group([((one, zero), (zero,))])
    with pytest.raises(RequirementError):
        close_group([((zero, zero), (zero, zero))])
    f3 = cyclotomic_field(3)
    mixed = ((f3.one(), f3.zero()), (zero, one))
    with pytest.raises(RequirementError):
        close_group([mixed])


def test_duplicate_generators_collapse():
    f4 = cyclotomic_field(4)
    z, zero = f4.zeta(), f4.zero()
    g = ((z, zero), (zero, z.inverse()))
    group = close_group([g, g], names=["A", "B"])
    assert len(group) == 4
    assert group.generator_indices[0] == group.generator_indices[1]


def test_inverted_generators_generate_same_group():
    group = closed_group("trihedral27")
    regen = close_group(group.inverted_generators(), names=group.generator_names)
    assert len(regen) == len(group)
    assert sorted(e.order for e in regen.elements) == \
        sorted(e.order for e in group.elements)
