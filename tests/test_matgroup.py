import random
import tracemalloc
from fractions import Fraction
from itertools import groupby
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo, linalg, matgroup
from mckay.age import eigen_exponents, grade
from mckay.cyclo import CycNum, cyclotomic_field
from mckay.errors import ClosureCapError, InternalInvariantError, RequirementError
from mckay.groupfile import GroupFile, parse_group_file
from mckay.matgroup import MatrixGroup, close_group
from mckay.quiver import fold
from mckay.toric import DiagonalGroupSpec
from mckay.valuation import monomial_valuation, ram_group, stab_group

from conftest import (CORPUS, close, close_spec, closed_group, dense, element_matrix,
                      group_path, identity, mat_mul, oracle_det, oracle_mat_inv,
                      sparse, trace)
from test_linalg import oracle_mat_mul
from test_valuation import embed

def mul(group, i, j):
    """The index of elements[i] * elements[j]: i times the runs of j."""
    return group.times(i, group.runs(j))


MATRIX_FILES = [name for name in CORPUS
                if "format matrix" in group_path(name).read_text()]

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
    assert group.orders[rep] == 2
    a = group.generator_indices[0]
    assert rep == group.power(a, 2)
    # A and A^3 are conjugate (via B), as are B and B^3
    b = group.generator_indices[1]
    assert group.class_of[a] == group.class_of[group.power(a, 3)]
    assert group.class_of[b] == group.class_of[group.power(b, 3)]
    assert group.class_of[a] != group.class_of[b]


def test_element_orders_bd8():
    group = closed_group("bd8")
    orders = sorted(group.orders)
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
            assert mul(group, mul(group, i, j), k) == mul(group, i, mul(group, j, k))
            assert mul(group, i, group.inverses[i]) == 0
            assert mul(group, 0, i) == i


def test_lagrange_and_class_equation():
    for name in EXPECTED_ORDERS:
        group = closed_group(name)
        assert sum(len(c) for c in group.classes) == len(group)
        for c in group.classes:
            assert len(group) % len(c) == 0
        for order in group.orders:
            assert len(group) % order == 0
            assert group.exponent % order == 0


def test_class_membership_is_conjugacy():
    group = closed_group("bd12")
    rng = random.Random(3)
    for _ in range(30):
        i = rng.randrange(len(group))
        h = rng.randrange(len(group))
        conj = mul(group, mul(group, h, i), group.inverses[h])
        assert group.class_of[conj] == group.class_of[i]


def test_element_names():
    group = closed_group("bd8")
    a, b = group.generator_indices
    assert group.element_name(0) == "e"
    assert group.element_name(a) == "A"
    assert group.element_name(group.power(a, 2)) == "A^2"
    assert group.element_name(mul(group, a, b)) == "A*B"



def test_power_walk_that_misses_the_identity_is_an_internal_error():
    # a right table that is not a group table: the generator fixes every
    # element but the identity, so g1, g1^2, ... never returns to e
    group = close_spec(DiagonalGroupSpec(3, ((7, (1, 2, 4)),)))
    right = [[row[0]] + list(range(1, len(row))) for row in group._right]
    with pytest.raises(InternalInvariantError,
                       match=r"powers of element g1 do not reach the identity "
                             r"within 7 steps"):
        MatrixGroup(group.dimension, group.field, group.rows, group.elements,
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
            elements.append(entries)
            words.append(word)
            index_of[key] = index
        return index

    add(identity(field, n), ())
    generator_indices = tuple(add(tuple(tuple(row) for row in g), (k,))
                              for k, g in enumerate(generators))
    right = [[] for _ in generators]
    for element, word in zip(elements, words):
        for k, g in enumerate(generators):
            right[k].append(add(oracle_mat_mul(element, g), word + (k,)))
    index_of_word = {word: i for i, word in enumerate(words)}
    tree = [(0, None, 0)]
    for word in words[1:]:
        j = len(word)
        while j and word[j - 1] == word[-1]:
            j -= 1
        tree.append((index_of_word[word[:j]], word[-1], len(word) - j))
    in_sl = all(oracle_det(g) == 1 for g in generators)
    # the oracle group keeps each element's matrix in place of its row ids
    return (MatrixGroup(n, field, None, elements, generator_indices, names, right,
                        tree, in_sl), words)


def element_matrices(group):
    return [element_matrix(group, i) for i in range(len(group))]


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
    group = close(generators, names=names)
    oracle, words = oracle_close_group(generators)
    assert element_matrices(group) == oracle.elements
    assert group.generator_indices == oracle.generator_indices
    assert group._right == oracle._right
    assert group._tree == oracle._tree
    for i, word in enumerate(words):
        assert group.runs(i) == [(k, len(list(run))) for k, run in groupby(word)]
        assert group.element_name(i) == oracle_name(word, group.generator_names)
    assert group.in_sl == oracle.in_sl
    assert group.orders == oracle.orders
    assert group.inverses == oracle.inverses
    assert group.class_of == oracle.class_of
    return group


def inverted_generators(gf):
    """The generators a file closes on, as matrices of CycNum: under
    `--choice inverse`, a matrix file's generators inverted by the
    test-side oracle."""
    field = cyclotomic_field(gf.cyclotomic_order)
    generators = [dense(field, g) for g in gf.matrices()]
    if gf.inverse:
        return [oracle_mat_inv(g) for g in generators]
    return generators


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_closure_matches_matrix_product_oracle_on_corpus(name, choice):
    gf = parse_group_file(group_path(name))
    if choice == "inverse":
        gf = gf.inverted()
    assert_closure_matches_oracle(inverted_generators(gf), gf.generator_names)


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_traces_match_the_dense_oracle_on_corpus(name, choice):
    # the integer numerators of every trace give the trace of the element's
    # matrix; bt48 has entries with denominator 2, which the trace scales
    # to a common denominator and cancels
    gf = parse_group_file(group_path(name))
    group = (gf.inverted() if choice == "inverse" else gf).close()
    for i in range(len(group)):
        t = group.trace(i)
        assert type(t) is tuple and all(type(c) is int for c in t)
        assert CycNum(group.field, t) == trace(element_matrix(group, i))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 12]), st.integers(1, 4), st.data())
def test_trace_sums_mixed_denominators_like_the_dense_oracle(order, n, data):
    # diagonal entries over different denominators, zero entries included:
    # the numerators are scaled to the lcm, summed, and cancelled to the
    # normal form of the oracle's CycNum sum
    field = cyclotomic_field(order)
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    matrix = [[field.element(data.draw(st.dictionaries(st.integers(0, order - 1),
                                                       coefficient, max_size=3)))
               for _ in range(n)] for _ in range(n)]
    expected = trace(matrix)
    assert matgroup._trace(field, sparse(matrix), range(n)) == (expected.nums, expected.den)


def test_equal_traces_are_one_tuple():
    # (1/12)(1,11,0) + (1/12)(0,1,11): the 144 elements have 31 traces,
    # each kept once however many elements share it
    group = close_spec(DiagonalGroupSpec(3, ((12, (1, 11, 0)), (12, (0, 1, 11)))))
    traces = [group.trace(i) for i in range(len(group))]
    for i, t in enumerate(traces):
        for j in range(i):
            assert (t is traces[j]) == (t == traces[j])
    assert len({id(t) for t in traces}) == len(set(traces)) < len(traces)


def _repeated_generators():
    """Generators that collapse in the scan: a repeated one, the identity,
    and one whose inverse is another generator."""
    f4 = cyclotomic_field(4)
    z, zero = f4.zeta(), f4.zero()
    g = ((z, zero), (zero, f4.zeta(3)))
    h = ((zero, f4.one()), (-f4.one(), zero))
    return [sparse(m) for m in (g, identity(f4, 2), g, h, ((f4.zeta(3), zero), (zero, z)))]


@pytest.mark.parametrize("name", MATRIX_FILES + ["repeated"])
def test_choice_inverse_equals_the_closure_of_the_inverted_matrices(name):
    # the inverse tables of the file's own closure, scanned again, give the
    # group that closing the inverted matrices gives
    if name == "repeated":
        generators = _repeated_generators()
        gf = GroupFile("matrix", 2, 4, ["A", "I", "B", "C", "D"], generators, [], True)
    else:
        gf = parse_group_file(group_path(name)).inverted()
    group = gf.close()
    oracle = close(inverted_generators(gf), names=gf.generator_names)
    assert element_matrices(group) == element_matrices(oracle)
    assert group._tree == oracle._tree
    assert group._right == oracle._right
    assert group.generator_indices == oracle.generator_indices
    assert group.in_sl == oracle.in_sl
    assert group.generator_names == oracle.generator_names


def test_closure_record_is_linear_in_the_order():
    # (1/100)(1,99,0) + (1/100)(0,1,99) has order 10^4 and breadth-first
    # words of up to 198 letters; one tree entry per element keeps the
    # record linear, where a word tuple per element held 13.1 MB
    spec = DiagonalGroupSpec(3, ((100, (1, 99, 0)), (100, (0, 1, 99))))
    field, generators = cyclotomic_field(100), spec.matrices()
    tracemalloc.start()
    try:
        group = close_group(field, generators)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group) == 10_000
    assert retained < 8_000_000


def test_closure_of_a_high_dimensional_generator_stays_small():
    # the dimension family: one order-3 generator (1/3)(1, 2, 0, ..., 0) in
    # dimension 3000.  A sparse row stores no zero entry, so each of the
    # distinct rows, the n unit rows and z, z^2 in columns 0 and 1, is one
    # entry; dense rows of n entries, an integer and a CycNum copy of each,
    # took hundreds of MB here
    n = 3000
    spec = DiagonalGroupSpec(n, ((3, (1, 2) + (0,) * (n - 2)),))
    field, generators = cyclotomic_field(3), spec.matrices()
    tracemalloc.start()
    try:
        group = close_group(field, generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(group), len(group.rows)) == (3, n + 4)
    assert all(len(row) == 1 for row in group.rows)
    assert peak < 10_000_000


def test_determinant_off_sl_still_closes():
    # diag(zeta, 1) has the determinant zeta, a root of unity but not 1
    f5 = cyclotomic_field(5)
    one, zero = f5.one(), f5.zero()
    group = close([((f5.zeta(), zero), (zero, one))])
    assert (len(group), group.in_sl) == (5, False)
    assert close([((f5.zeta(), zero), (zero, f5.zeta(4)))]).in_sl


def test_a_denominator_divisible_by_the_split_prime_takes_the_next(monkeypatch):
    # [[-1, 1/P], [0, 1]] has order 2; its entry 1/P has no image mod P
    prime, omega = cyclo.split_prime(1)
    f1 = cyclotomic_field(1)
    g = sparse(((-f1.one(), f1.from_rational(Fraction(1, prime))), (f1.zero(), f1.one())))
    with pytest.raises(ValueError):
        linalg.det_image(f1, g, prime, omega)
    primes, det_image = [], linalg.det_image

    def recorded(field, a, p, w):
        primes.append(p)
        return det_image(field, a, p, w)

    monkeypatch.setattr(linalg, "det_image", recorded)
    group = close_group(f1, [g])
    assert primes == [cyclo.split_prime(1, prime)[0]]
    assert (len(group), group.in_sl) == (2, False)


def reference_structure(group):
    """Products, inverses, orders, conjugacy classes, power lists, cyclic
    subgroups and maximal cyclic subgroups of a closed group, found by brute
    force from per-scalar matrix products and the dedup key alone."""
    elements = element_matrices(group)
    index = {_key(e): i for i, e in enumerate(elements)}
    identity_index = index[_key(identity(group.field, group.dimension))]
    table = [[index[_key(oracle_mat_mul(a, b))] for b in elements]
             for a in elements]
    inverses = [row.index(identity_index) for row in table]
    # x^0, x^1, ... up to the last power before the identity comes back
    powers = []
    for i in range(len(elements)):
        walk, acc = [identity_index], i
        while acc != identity_index:
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
    return identity_index, table, inverses, orders, classes, cyclic, maximal


def oracle_centralizer(group, g):
    """The member test `stab_group` made before `MatrixGroup.centralizer`:
    h * g == g * h, each product a walk of its right factor's word."""
    return [h for h in range(len(group)) if mul(group, h, g) == mul(group, g, h)]


def assert_matches_reference(group):
    identity, table, inverses, orders, classes, cyclic, maximal = \
        reference_structure(group)
    n = len(group)
    assert identity == 0
    assert [[mul(group, i, j) for j in range(n)] for i in range(n)] == table
    assert group.inverses == inverses
    assert [group.centralizer(g) for g in range(n)] == \
        [oracle_centralizer(group, g) for g in range(n)]
    assert group.orders == orders
    assert [c.members for c in group.classes] == classes
    assert [c.representative for c in group.classes] == [m[0] for m in classes]
    assert group.class_of == [next(k for k, members in enumerate(classes)
                                   if i in members) for i in range(n)]
    for i in range(n):
        # x^k and x^-k by repeated products with x and with x^-1
        up = down = identity
        for k in range(2 * orders[i] + 1):
            assert group.power(i, k) == up
            assert group.power(i, -k) == down == group.power(group.inverses[i], k)
            up, down = table[up][i], table[down][inverses[i]]
    assert [group.cyclic_subgroup(i) for i in range(n)] == cyclic
    assert [(sg.generator, sg.members)
            for sg in group.maximal_cyclic_subgroups()] == maximal


@pytest.mark.parametrize("name", ["bd8", "cyclic_7_124"])
def test_inverted_file_inverts_only_the_generators(name):
    gf = parse_group_file(group_path(name))
    inverted = gf.inverted()
    assert repr(inverted).startswith(f"GroupFile(format={gf.format!r}, ")
    assert (inverted.format, inverted.dimension, inverted.cyclotomic_order,
            inverted.generator_names) == \
        (gf.format, gf.dimension, gf.cyclotomic_order, gf.generator_names)
    assert inverted.inverse == (gf.format == "matrix")
    assert not inverted.inverted().inverse
    field = cyclotomic_field(gf.cyclotomic_order)
    for g, h in zip(gf.matrices(), inverted.matrices(), strict=True):
        if gf.format == "matrix":  # inverted when the group is closed
            assert h is g
        else:
            assert mat_mul(dense(field, g), dense(field, h)) == identity(field, gf.dimension)


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
    group = close_spec(spec)
    assert group.in_sl
    assert_matches_reference(group)


@settings(max_examples=25, deadline=None)
@given(diagonal_sl_specs(max_n=4))
def test_closure_matches_matrix_product_oracle_on_diagonal_groups(spec):
    field = cyclotomic_field(spec.exponent_vectors()[0])
    assert assert_closure_matches_oracle([dense(field, g) for g in spec.matrices()]).in_sl


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
        close(infinite_group(), cap=500)
    with pytest.raises(ClosureCapError):
        oracle_close_group(infinite_group(), cap=500)


@pytest.mark.parametrize("name", CORPUS)
def test_closure_multiplies_each_distinct_row_once_per_generator(name, monkeypatch):
    calls = []
    times_g = linalg.RightMultiplier.__call__

    def counted(self, row, left):
        calls.append((id(self), row))
        return times_g(self, row, left)

    gf = parse_group_file(group_path(name))
    gens = gf.matrices()
    monkeypatch.setattr(linalg.RightMultiplier, "__call__", counted)
    group = gf.close()
    monkeypatch.undo()
    # each kernel call multiplies one distinct row of the group by one
    # generator, and a row is its nonzero entries (column, nums, den),
    # sorted by column
    assert len(calls) == len(set(calls)) <= len(group.rows) * len(gens)
    assert {row for _, row in calls} <= set(group.rows)
    assert len(set(group.rows)) == len(group.rows)
    for row in group.rows:
        assert [j for j, _, _ in row] == sorted({j for j, _, _ in row})
        assert all(0 <= j < group.dimension and len(nums) == group.field.degree
                   and any(nums) for j, nums, _ in row)
    # the elements hold row ids, every row of `rows` used by some element
    distinct_rows = {r for e in group.elements for r in e}
    assert distinct_rows == set(range(len(group.rows)))
    if name == "icosahedral60":
        assert (len(distinct_rows), len(gens), len(calls)) == (30, 2, 60)


def test_group_operations_need_no_field_arithmetic(monkeypatch):
    group = parse_group_file(group_path("bd12")).close()

    def forbidden(*args):
        raise AssertionError("field arithmetic after closure")

    monkeypatch.setattr(cyclo, "_dot", forbidden)  # every field product
    monkeypatch.setattr(linalg.RightMultiplier, "__call__", forbidden)
    monkeypatch.setattr(cyclo.CycNum, "__mul__", forbidden)
    monkeypatch.setattr(cyclo.CycNum, "__init__", forbidden)
    n = len(group)
    for i in range(n):
        for j in range(n):
            mul(group, i, j)
        group.power(group.inverses[i], 5)
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
    big = close([embed(dense(group.field, g), field) for g in gens])
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
        close([unipotent], cap=50)
    # the identity is checked against the cap like every other element
    with pytest.raises(ClosureCapError):
        close([identity(f1, 2)], cap=0)
    assert len(close([identity(f1, 2)], cap=1)) == 1


def test_closure_rejects_bad_generators():
    f1 = cyclotomic_field(1)
    one, zero = f1.one(), f1.zero()
    with pytest.raises(RequirementError):
        close_group(f1, [])
    with pytest.raises(RequirementError):
        close([((one, zero), (zero,))])
    with pytest.raises(RequirementError):
        close([((zero, zero), (zero, zero))])
    f3 = cyclotomic_field(3)
    mixed = ((f3.one(), f3.zero()), (zero, one))
    with pytest.raises(RequirementError):
        close([mixed])
    # the sparse form: a column out of range, columns out of order or
    # repeated, and entries that are zero or not in normal form
    unit = (1,)
    for rows, message in (
            ((((0, unit, 1),), ((2, unit, 1),)), "square"),
            ((((1, unit, 1), (0, unit, 1)), ((1, unit, 1),)), "sorted by column"),
            ((((0, unit, 1), (0, unit, 1)), ((1, unit, 1),)), "sorted by column"),
            ((((0, (0,), 1),), ((1, unit, 1),)), "normal form"),
            ((((0, (2,), 2),), ((1, unit, 1),)), "normal form"),
            ((((0, unit, 0),), ((1, unit, 1),)), "normal form"),
            ((((0, (1, 0), 1),), ((1, unit, 1),)), "normal form")):
        with pytest.raises(RequirementError, match=message):
            close_group(f1, [rows])


def test_duplicate_generators_collapse():
    f4 = cyclotomic_field(4)
    z, zero = f4.zeta(), f4.zero()
    g = ((z, zero), (zero, f4.zeta(3)))
    group = close([g, g], names=["A", "B"])
    assert len(group) == 4
    assert group.generator_indices[0] == group.generator_indices[1]


def test_inverted_generators_generate_same_group():
    group = closed_group("trihedral27")
    regen = parse_group_file(group_path("trihedral27")).inverted().close()
    assert len(regen) == len(group)
    assert sorted(regen.orders) == sorted(group.orders)
