import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import age
from mckay.age import (
    ClassGrading,
    FractionalExpression,
    GradedClassTable,
    betti_prediction,
    eigen_exponents,
    elementary_symmetric_exponents,
    fix_junior_check,
    grade,
    inverse_bijection,
)
from mckay.cyclo import cyclotomic_field
from mckay.errors import InternalInvariantError, RequirementError
from mckay.groupfile import parse_group_file
from mckay.toric import DiagonalGroupSpec

from conftest import (CORPUS, close, close_spec, closed_group, dense, element_matrix,
                      graded_table, group_path, mat_mul, oracle_mat_inv, oracle_rref,
                      oracle_walk_exponents, trace)
from test_toric import diagonal_specs


def _flipped(expr):
    """The expression of the inverse element: each nonzero a becomes r - a."""
    return FractionalExpression(expr.r, tuple(sorted(
        0 if a == 0 else expr.r - a for a in expr.exponents)))


def _diag_group(n, generators):
    return close_spec(DiagonalGroupSpec(n, tuple(generators)))


def oracle_eigen_exponents(group, index):
    """The trace formula m_a = (1/r) * sum_k zeta_r^(-a*k) * Tr(g^k), which
    `eigen_exponents` replaced: r^2 products in Q(zeta_lcm(N, r)) for one
    element, with integrality of every multiplicity as its check."""
    r = group.orders[index]
    field = cyclotomic_field(lcm(group.field.order, r))
    step = field.order // r
    zeta_r_powers = [field.zeta(step * e) for e in range(r)]
    traces = [trace(element_matrix(group, group.power(index, k))).embed(field)
              for k in range(r)]
    n = group.dimension
    exponents = []
    total = 0
    for a in range(r):
        m = field.zero()
        for k in range(r):
            m = m + zeta_r_powers[(-a * k) % r] * traces[k]
        value = (m * Fraction(1, r)).as_rational()
        if value is None or value.denominator != 1 or value < 0:
            raise InternalInvariantError(
                f"multiplicity of exponent {a} for element "
                f"{group.describe(index)} is {value}, not a nonnegative integer"
            )
        exponents.extend([a] * value.numerator)
        total += value.numerator
    if total != n:
        raise InternalInvariantError(
            f"exponent multiplicities of element {group.describe(index)} "
            f"sum to {total}, expected {n}"
        )
    return FractionalExpression(r, tuple(exponents))


def _assert_matches_oracle(group):
    for i in range(len(group)):
        assert eigen_exponents(group, i) == oracle_eigen_exponents(group, i), \
            group.describe(i)


@pytest.mark.parametrize("choice", ["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_eigen_exponents_match_the_trace_formula_on_the_corpus(name, choice):
    gf = parse_group_file(group_path(name))
    _assert_matches_oracle((gf.inverted() if choice == "inverse" else gf).close())


@settings(max_examples=30, deadline=None)
@given(spec=diagonal_specs(max_index=30, max_order=10, sl=None))
def test_eigen_exponents_match_the_trace_formula_on_diagonal_groups(spec):
    _assert_matches_oracle(close_spec(spec))


@st.composite
def unimodular_matrices(draw, n):
    """Integer matrices of determinant +-1: a sign times a lower and an
    upper unitriangular matrix, so the entries are dense in general."""
    entry = st.integers(-2, 2)
    lower = [[draw(entry) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[draw(entry) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    sign = draw(st.sampled_from((1, -1)))
    return [[(sign if i == 0 else 1) * sum(lower[i][k] * upper[k][j]
                                           for k in range(n))
             for j in range(n)] for i in range(n)]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eigen_exponents_match_the_trace_formula_off_the_diagonal(data):
    # P^-1 D P for a diagonal D and an integer P of determinant +-1: the
    # walks, the traces and the trace-sum check run on dense matrices whose
    # diagonal entries are not their eigenvalues
    spec = data.draw(diagonal_specs(max_index=24, max_order=8, sl=None))
    field = cyclotomic_field(spec.exponent_vectors()[0])
    diagonal = [dense(field, g) for g in spec.matrices()]
    p = tuple(tuple(field.from_rational(c) for c in row)
              for row in data.draw(unimodular_matrices(spec.n)))
    p_inv = oracle_mat_inv(p)
    _assert_matches_oracle(close([mat_mul(mat_mul(p_inv, d), p) for d in diagonal]))


def _counted_walks(monkeypatch):
    """The walks `age._walk_exponents` is called on, one entry a call."""
    walks, real = [], age._walk_exponents

    def counted(group, walk):
        walks.append(walk)
        return real(group, walk)

    monkeypatch.setattr(age, "_walk_exponents", counted)
    return walks


def _assert_walks_match_exact_search(group):
    for walk in group._walks:
        if walk[1 % len(walk)]:  # the identity's walk needs no polynomial
            assert age._walk_exponents(group, walk) == oracle_walk_exponents(group, walk)


@settings(max_examples=60, deadline=None)
@given(spec=diagonal_specs(max_index=240, max_order=60, sl=None, dims=(1, 6)))
def test_modular_exponents_match_the_exact_search_on_diagonal_groups(spec):
    _assert_walks_match_exact_search(close_spec(spec))


@pytest.mark.parametrize("inverse", [False, True], ids=["standard", "inverse"])
@pytest.mark.parametrize("name", CORPUS)
def test_modular_exponents_match_the_exact_search_on_the_corpus(name, inverse):
    group_file = parse_group_file(group_path(name))
    _assert_walks_match_exact_search(
        (group_file.inverted() if inverse else group_file).close())


def test_grade_builds_one_polynomial_for_a_cyclic_group(monkeypatch):
    # every nonidentity element of (1/211)(1,2,208) lies in the walk of g1,
    # and the identity's eigenvalues need no polynomial
    walks = _counted_walks(monkeypatch)
    group = _diag_group(3, [(211, (1, 2, 208))])
    table = grade(group)
    assert len(table.classes) == 211
    assert walks == [group.places[group.generator_indices[0]][0]]


@pytest.mark.parametrize("name", CORPUS)
def test_grade_builds_at_most_one_polynomial_per_walk(monkeypatch, name):
    # a fresh closure: a shared group keeps the exponents of earlier calls
    walks = _counted_walks(monkeypatch)
    group = parse_group_file(group_path(name)).close()
    grade(group)
    assert len(walks) == len(set(walks))
    assert set(walks) <= {walk for walk, _ in group.places}


def test_grade_reads_the_multiplicity_of_the_eigenvalue_1_off_the_traces(monkeypatch):
    # one order-3 generator with exponents (1, 2, 0, ..., 0) in dimension
    # 200: the eigenvalue 1 of multiplicity 198 is read off the trace total,
    # so Horner's rule runs on the quadratic of the other two alone, in 3
    # passes: a = 1 divides out, a = 1 again does not, a = 2 divides out
    n = 200
    group = _diag_group(n, [(3, (1, 2) + (0,) * (n - 2))])
    passes, real = [], age.accumulate

    def counted(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(age, "accumulate", counted)
    table = grade(group)
    assert [c.expression.exponents for c in table.classes[1:]] == \
        [(0,) * (n - 2) + (1, 2)] * 2
    assert len(passes) == 3


def test_cyclic_7_exponents():
    group = _diag_group(3, [(7, (1, 2, 4))])
    g = group.generator_indices[0]
    ages = {}
    for k in range(1, 7):
        expr = eigen_exponents(group, group.power(g, k))
        assert expr.exponents == tuple(sorted((k % 7, 2 * k % 7, 4 * k % 7)))
        ages[k] = expr.age
    assert all(ages[k] == 1 for k in (1, 2, 4))
    assert all(ages[k] == 2 for k in (3, 5, 6))


def test_eigen_exponents_match_diagonal_readoff():
    # independent oracle: the exponents of a diagonal element can be read
    # straight off its entries
    group = _diag_group(3, [(7, (1, 2, 4))])
    field = group.field
    for i in range(len(group)):
        element = element_matrix(group, i)
        r = group.orders[i]
        step = field.order // r
        read = []
        for k in range(3):
            entry = element[k][k]
            exp = next(e for e in range(r) if entry == field.zeta(step * e))
            read.append(exp)
        assert eigen_exponents(group, i).exponents == tuple(sorted(read))


def test_eigen_exponents_match_kernel_ranks():
    # independent oracle: multiplicity of zeta_r^a equals the kernel
    # dimension of g - zeta_r^a * I, n minus the rank `oracle_rref` finds
    for name in ("bd8", "trihedral27"):
        group = closed_group(name)
        field = group.field
        n = group.dimension
        for cls in group.classes:
            i = cls.representative
            element = element_matrix(group, i)
            r = group.orders[i]
            step = field.order // r
            expr = eigen_exponents(group, i)
            for a in range(r):
                eigval = field.zeta(step * a)
                shifted = tuple(
                    tuple(
                        element[p][q] - (eigval if p == q else field.zero())
                        for q in range(n)
                    )
                    for p in range(n)
                )
                rank_defect = n - len(oracle_rref(shifted)[1])
                assert rank_defect == expr.exponents.count(a)


def test_fractional_expression_properties():
    expr = FractionalExpression(7, (1, 2, 4))
    assert expr.age == 1
    assert expr.fix_dim == 0
    assert expr.primitive
    assert str(expr) == "(1/7)(1,2,4)"
    assert _flipped(expr) == FractionalExpression(7, (3, 5, 6))
    assert FractionalExpression(3, (2, 2, 2)).primitive
    assert not FractionalExpression(4, (2, 2)).primitive
    assert _flipped(FractionalExpression(3, (0, 1, 2))) == \
        FractionalExpression(3, (0, 1, 2))


def test_fractional_expression_is_a_value():
    # compared and hashed by its fields, as a frozen record
    expr = FractionalExpression(7, (1, 2, 4))
    assert expr == FractionalExpression(7, (1, 2, 4))
    assert hash(expr) == hash(FractionalExpression(7, (1, 2, 4)))
    assert len({expr, FractionalExpression(7, (1, 2, 4))}) == 1
    assert expr != FractionalExpression(7, (3, 5, 6))
    assert expr != FractionalExpression(14, (1, 2, 4))
    assert expr != (7, (1, 2, 4))
    assert repr(expr) == "FractionalExpression(r=7, exponents=(1, 2, 4))"


def test_age_requires_integrality():
    with pytest.raises(RequirementError):
        FractionalExpression(4, (1, 0)).age


def test_grade_rejects_gl_groups():
    group = _diag_group(2, [(4, (1, 0))])
    assert not group.in_sl
    with pytest.raises(RequirementError):
        grade(group)


def test_trihedral_grading():
    table = graded_table("trihedral27")
    counts = {a: len(ids) for a, ids in table.buckets.items()}
    assert counts == {0: 1, 1: 9, 2: 1}
    by_age_elements = {a: sum(table.classes[k].size for k in ids)
                       for a, ids in table.buckets.items()}
    assert by_age_elements == {0: 1, 1: 25, 2: 1}
    assert len(table.gamma1_zero) == 1
    junior_isolated = table.classes[table.gamma1_zero[0]]
    assert junior_isolated.expression == FractionalExpression(3, (1, 1, 1))
    senior = table.classes[[k for age, ids in sorted(table.buckets.items())
                            if age >= 2 for k in ids][0]]
    assert senior.expression == FractionalExpression(3, (2, 2, 2))


def test_trihedral_betti():
    prediction = betti_prediction(graded_table("trihedral27"))
    assert (prediction.h0, prediction.h2, prediction.h4) == (1, 9, 1)
    assert prediction.euler == 11


def test_icosahedral_grading():
    table = graded_table("icosahedral60")
    ages = sorted(c.age for c in table.classes)
    assert ages == [0, 1, 1, 1, 1]
    prediction = betti_prediction(table)
    assert (prediction.h0, prediction.h2, prediction.h4) == (1, 4, 0)
    assert prediction.euler == 5
    assert table.gamma1_zero == []


def test_sl2_nonidentity_is_junior():
    for name in ("bd8", "bd12", "bt48"):
        table = graded_table(name)
        for grading in table.classes:
            assert grading.age == (0 if grading.representative == 0 else 1)


def test_inverse_bijection_cyclic7():
    group = closed_group("cyclic_7_124")
    table = graded_table("cyclic_7_124")
    mapping = inverse_bijection(table)
    assert len(mapping) == 3
    assert sorted(mapping.values()) == sorted(table.buckets[2])
    # the map is induced by g -> g^-1
    for src, dst in mapping.items():
        rep = group.classes[src].representative
        assert group.class_of[group.inverses[rep]] == dst


def test_inverse_duality_of_expressions():
    # for fix_dim 0 elements in SL(n), age(g) + age(g^-1) = n
    for name in ("trihedral27", "cyclic_7_124", "icosahedral60"):
        group = closed_group(name)
        n = group.dimension
        for cls in group.classes:
            i = cls.representative
            if i == 0:
                continue
            expr = eigen_exponents(group, i)
            inv_expr = eigen_exponents(group, group.inverses[i])
            assert inv_expr == _flipped(expr)
            if expr.fix_dim == 0:
                assert expr.age + inv_expr.age == n


def test_fix_junior_check_corpus():
    for name in ("trihedral27", "icosahedral60", "cyclic_7_124"):
        assert fix_junior_check(graded_table(name))


def test_betti_requires_dimension3():
    with pytest.raises(RequirementError):
        betti_prediction(graded_table("bd8"))


def test_elementary_symmetric_exponents():
    expr = FractionalExpression(7, (1, 2, 4))
    values = elementary_symmetric_exponents(expr)
    assert values == [Fraction(1), Fraction(2, 7), Fraction(8, 343)]
    identity = FractionalExpression(1, (0, 0))
    assert elementary_symmetric_exponents(identity) == [Fraction(0), Fraction(0)]


def test_grade_rejects_a_class_that_is_not_age_constant(monkeypatch):
    # forge the class of g (age 1) to also hold g^3 (age 2)
    group = parse_group_file(group_path("cyclic_7_124")).close()
    g = group.generator_indices[0]
    k = group.class_of[g]
    monkeypatch.setattr(group.classes[k], "members",
                        tuple(sorted((g, group.power(g, 3)))))
    with pytest.raises(InternalInvariantError,
                       match=f"conjugacy class {k} is not age-constant") as info:
        grade(group)
    assert group.describe(group.power(g, 3)) in str(info.value)
    assert group.describe(group.classes[k].representative) in str(info.value)


def _inverse_class(table, k):
    group = table.group
    return group.class_of[group.inverses[group.classes[k].representative]]


def _class_name(table, k):
    return table.group.describe(table.group.classes[k].representative)


@pytest.mark.parametrize("check", [inverse_bijection, betti_prediction])
def test_unpaired_age2_class_is_named(check):
    # drop one junior isolated-fixed-point class: the age-2 class of its
    # inverses is left without a partner, and both checks name it
    table = graded_table("cyclic_7_124")
    dropped = table.gamma1_zero[-1]
    tampered = GradedClassTable(table.group, table.classes, table.buckets,
                                table.gamma1_zero[:-1])
    unpaired = _inverse_class(table, dropped)
    with pytest.raises(InternalInvariantError,
                       match=re.escape(f"the class of {_class_name(table, unpaired)}")):
        check(tampered)


def test_junior_class_with_inverse_of_wrong_age_is_named():
    # declare one age-2 class junior: its inverse class is junior, not age 2
    table = graded_table("cyclic_7_124")
    k = table.buckets[2][0]
    tampered = GradedClassTable(table.group, table.classes, table.buckets,
                                sorted([*table.gamma1_zero, k]))
    with pytest.raises(InternalInvariantError,
                       match=re.escape(
                           f"the class of {_class_name(table, k)}, of age 2, inverts "
                           f"into the class of "
                           f"{_class_name(table, _inverse_class(table, k))}, of age 1")):
        inverse_bijection(tampered)


def test_euler_mismatch_names_an_uncounted_class():
    # move one age-2 class to age 3, and its inverse class out of the
    # junior isolated-fixed-point list, so that only the Euler count fails
    table = graded_table("cyclic_7_124")
    k = table.buckets[2][0]
    classes = [ClassGrading(c.class_id, c.representative, c.size, c.expression, 3)
               if c.class_id == k else c for c in table.classes]
    buckets = {**table.buckets, 2: table.buckets[2][1:], 3: [k]}
    gamma1_zero = [j for j in table.gamma1_zero if j != _inverse_class(table, k)]
    tampered = GradedClassTable(table.group, classes, buckets, gamma1_zero)
    with pytest.raises(InternalInvariantError,
                       match=re.escape(f"euler number 6 differs from class count 7: "
                                       f"the class of {_class_name(table, k)} has age 3")):
        betti_prediction(tampered)
