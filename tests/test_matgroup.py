import random
import tracemalloc
from fractions import Fraction
from itertools import groupby
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo, linalg
from mckay.age import eigen_exponents, grade
from mckay.cyclo import cyclotomic_field
from mckay.errors import ClosureCapError, InternalInvariantError, RequirementError
from mckay.groupfile import parse_group_file
from mckay.matgroup import GroupElement, MatrixGroup, close_group
from mckay.quiver import fold
from mckay.toric import DiagonalGroupSpec
from mckay.valuation import monomial_valuation, ram_group, stab_group

from conftest import CORPUS, closed_group, group_path
from test_linalg import oracle_mat_mul

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



def test_power_walk_that_misses_the_identity_is_an_internal_error():
    # a right table that is not a group table: the generator fixes every
    # element but the identity, so g1, g1^2, ... never returns to e
    group = close_group(DiagonalGroupSpec(3, ((7, (1, 2, 4)),)).matrices())
    right = [[row[0]] + list(range(1, len(row))) for row in group._right]
    with pytest.raises(InternalInvariantError,
                       match=r"powers of element g1 do not reach the identity "
                             r"within 7 steps"):
        MatrixGroup(group.dimension, group.field, group.elements,
                    group.generator_indices, group.generator_names, right,
                    group._tree, group.in_sl)

def _key(entries):
    """Dedup key of a matrix: the normal forms (numerators, denominator) of
    its entries."""
    return tuple(tuple((x.nums, x.den) for x in row) for row in entries)


def oracle_close_group(generators, cap=100_000):
    """The closure by whole-matrix products: breadth-first search that
    multiplies every element by every generator and deduplicates on `_key`.
    Returns the group and each element's explicit breadth-first word; the
    group's tree entry for a word is the word with its last run cut off,
    and that run."""
    n = len(generators[0])
    field = generators[0][0][0].field
    names = [f"g{i + 1}" for i in range(len(generators))]
    elements, words, index_of = [], [], {}

    def add(entries, word):
        key = _key(entries)
        index = index_of.get(key)
        if index is None:
            if len(elements) >= cap:
                raise ClosureCapError(cap)
            index = len(elements)
            elements.append(GroupElement(entries, index))
            words.append(word)
            index_of[key] = index
        return index

    add(linalg.identity(field, n), ())
    generator_indices = tuple(add(tuple(tuple(row) for row in g), (k,))
                              for k, g in enumerate(generators))
    multipliers = [linalg.RightMultiplier(g) for g in generators]
    right = [[] for _ in generators]
    for element, word in zip(elements, words):
        for k, times_g in enumerate(multipliers):
            right[k].append(add(times_g(element.entries), word + (k,)))
    index_of_word = {word: i for i, word in enumerate(words)}
    tree = [(0, None, 0)]
    for word in words[1:]:
        j = len(word)
        while j and word[j - 1] == word[-1]:
            j -= 1
        tree.append((index_of_word[word[:j]], word[-1], len(word) - j))
    in_sl = all(linalg.det(g) == 1 for g in generators)
    return (MatrixGroup(n, field, elements, generator_indices, names, right,
                        tree, in_sl), words)


def oracle_name(word, generator_names):
    """An element's name read off its explicit word: runs of one generator
    joined by '*', a run of length m > 1 written with '^m', 'e' if empty."""
    if not word:
        return "e"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        base = generator_names[word[i]]
        parts.append(base if j - i == 1 else f"{base}^{j - i}")
        i = j
    return "*".join(parts)


def assert_closure_matches_oracle(generators, names=None):
    group = close_group(generators, names=names)
    oracle, words = oracle_close_group(generators)
    assert [e.index for e in group.elements] == list(range(len(oracle)))
    assert [e.entries for e in group.elements] == [e.entries for e in oracle.elements]
    assert group.generator_indices == oracle.generator_indices
    assert group._right == oracle._right
    assert group._tree == oracle._tree
    for i, word in enumerate(words):
        assert group.runs(i) == [(k, len(list(run))) for k, run in groupby(word)]
        assert group.element_name(i) == oracle_name(word, group.generator_names)
    assert group.in_sl == oracle.in_sl
    return group


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_closure_matches_matrix_product_oracle_on_corpus(name, choice):
    gf = parse_group_file(group_path(name))
    if choice == "inverse":
        gf = gf.inverted()
    assert_closure_matches_oracle(gf.matrices(), gf.generator_names)


def test_closure_record_is_linear_in_the_order():
    # (1/100)(1,99,0) + (1/100)(0,1,99) has order 10^4 and breadth-first
    # words of up to 198 letters; one tree entry per element keeps the
    # record linear, where a word tuple per element held 13.1 MB
    generators = DiagonalGroupSpec(3, ((100, (1, 99, 0)),
                                       (100, (0, 1, 99)))).matrices()
    tracemalloc.start()
    try:
        group = close_group(generators)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group) == 10_000
    assert retained < 8_000_000


def reference_structure(group):
    """Products, inverses, orders, conjugacy classes, power lists, cyclic
    subgroups and maximal cyclic subgroups of a closed group, found by brute
    force from per-scalar matrix products and the dedup key alone."""
    elements = group.elements
    index = {_key(e.entries): e.index for e in elements}
    identity = index[_key(linalg.identity(group.field, group.dimension))]
    table = [[index[_key(oracle_mat_mul(a.entries, b.entries))] for b in elements]
             for a in elements]
    inverses = [row.index(identity) for row in table]
    # x^0, x^1, ... up to the last power before the identity comes back
    powers = []
    for i in range(len(elements)):
        walk, acc = [identity], i
        while acc != identity:
            walk.append(acc)
            acc = table[acc][i]
        powers.append(walk)
    orders = [len(walk) for walk in powers]
    # every element conjugated by every element, in index order
    classes, assigned = [], set()
    for i in range(len(elements)):
        if i in assigned:
            continue
        members = tuple(sorted({table[table[h][i]][inverses[h]]
                                for h in range(len(elements))}))
        assigned.update(members)
        classes.append(members)
    cyclic = [frozenset(walk) for walk in powers]
    # every cyclic subgroup with a generator of maximal order, ties to the
    # lowest index; then those contained in no other
    by_set = {}
    for i, s in enumerate(cyclic):
        gen = by_set.get(s)
        if gen is None or orders[i] > orders[gen]:
            by_set[s] = i
    maximal = sorted(((by_set[s], tuple(sorted(s))) for s in by_set
                      if not any(s < other for other in by_set)),
                     key=lambda sg: (len(sg[1]), sg[1]))
    return identity, table, inverses, orders, classes, cyclic, maximal


def assert_matches_reference(group):
    identity, table, inverses, orders, classes, cyclic, maximal = \
        reference_structure(group)
    n = len(group)
    assert identity == 0
    assert [[group.mul(i, j) for j in range(n)] for i in range(n)] == table
    assert [group.inv(i) for i in range(n)] == inverses
    assert [e.order for e in group.elements] == orders
    assert [c.members for c in group.classes] == classes
    assert [c.representative for c in group.classes] == [m[0] for m in classes]
    assert all(group.class_of[m] == k
               for k, members in enumerate(classes) for m in members)
    for i in range(n):
        # x^k and x^-k by repeated products with x and with x^-1
        up = down = identity
        for k in range(2 * orders[i] + 1):
            assert group.power(i, k) == up
            assert group.power(i, -k) == down == group.power(group.inv(i), k)
            up, down = table[up][i], table[down][inverses[i]]
    assert [group.cyclic_subgroup(i) for i in range(n)] == cyclic
    assert [(sg.generator, sg.members)
            for sg in group.maximal_cyclic_subgroups()] == maximal


@pytest.mark.parametrize("name", CORPUS)
def test_multiplication_table_matches_matrix_products(name):
    assert_matches_reference(closed_group(name))


@st.composite
def diagonal_sl_specs(draw, max_n=3):
    n = draw(st.integers(2, max_n))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.integers(2, 5))
        exps = draw(st.lists(st.integers(0, r - 1), min_size=n - 1, max_size=n - 1))
        gens.append((r, (*exps, -sum(exps) % r)))
    return DiagonalGroupSpec(n, tuple(gens))


@settings(max_examples=15, deadline=None)
@given(diagonal_sl_specs())
def test_multiplication_table_matches_matrix_products_diagonal(spec):
    group = close_group(spec.matrices())
    assert group.in_sl
    assert_matches_reference(group)


@settings(max_examples=25, deadline=None)
@given(diagonal_sl_specs(max_n=4))
def test_closure_matches_matrix_product_oracle_on_diagonal_groups(spec):
    assert assert_closure_matches_oracle(spec.matrices()).in_sl


def infinite_group():
    """<A, C> for the unipotent A = [[1,1,0],[0,1,0],[0,0,1]] and the
    3-cycle C: an infinite subgroup of SL(3, Z)."""
    f1 = cyclotomic_field(1)
    one, zero = f1.one(), f1.zero()
    a = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    c = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    return [a, c]


def test_closure_and_oracle_stop_at_the_cap_on_an_infinite_group():
    with pytest.raises(ClosureCapError):
        close_group(infinite_group(), cap=500)
    with pytest.raises(ClosureCapError):
        oracle_close_group(infinite_group(), cap=500)


@pytest.mark.parametrize("name", CORPUS)
def test_closure_multiplies_each_distinct_row_once_per_generator(name, monkeypatch):
    calls = []
    times_g = linalg.RightMultiplier.__call__

    def counted(self, a):
        calls.append(len(a))
        return times_g(self, a)

    gens = parse_group_file(group_path(name)).matrices()
    monkeypatch.setattr(linalg.RightMultiplier, "__call__", counted)
    group = close_group(gens)
    monkeypatch.undo()
    assert set(calls) == {1}
    distinct_rows = {row for e in group.elements for row in e.entries}
    assert len(calls) <= len(distinct_rows) * len(gens)
    if name == "icosahedral60":
        assert (len(distinct_rows), len(gens), len(calls)) == (30, 2, 60)


def test_group_operations_need_no_field_arithmetic(monkeypatch):
    group = parse_group_file(group_path("bd12")).close()

    def forbidden(*args):
        raise AssertionError("field arithmetic after closure")

    monkeypatch.setattr(linalg, "mat_mul", forbidden)
    monkeypatch.setattr(linalg.RightMultiplier, "__call__", forbidden)
    monkeypatch.setattr(cyclo.CycNum, "__mul__", forbidden)
    monkeypatch.setattr(cyclo.CycNum, "__init__", forbidden)
    n = len(group)
    for i in range(n):
        for j in range(n):
            group.mul(i, j)
        group.power(group.inv(i), 5)
        group.cyclic_subgroup(i)
    assert len(group.maximal_cyclic_subgroups()) == 4


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
    assert big._tree == group._tree
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
    # the identity is checked against the cap like every other element
    with pytest.raises(ClosureCapError):
        close_group([linalg.identity(f1, 2)], cap=0)
    assert len(close_group([linalg.identity(f1, 2)], cap=1)) == 1


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
    regen = parse_group_file(group_path("trihedral27")).inverted().close()
    assert len(regen) == len(group)
    assert sorted(e.order for e in regen.elements) == \
        sorted(e.order for e in group.elements)
