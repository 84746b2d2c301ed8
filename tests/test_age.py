from fractions import Fraction

import pytest

from mckay import linalg
from mckay.age import (
    FractionalExpression,
    betti_prediction,
    eigen_exponents,
    elementary_symmetric_exponents,
    fix_junior_check,
    grade,
    inverse_bijection,
)
from mckay.errors import RequirementError
from mckay.matgroup import close_group
from mckay.toric import DiagonalGroupSpec

from conftest import CORPUS, closed_group, graded_table


def _diag_group(n, generators):
    spec = DiagonalGroupSpec(n, tuple(generators))
    return close_group(spec.matrices())


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
        element = group.elements[i]
        r = element.order
        step = field.order // r
        read = []
        for k in range(3):
            entry = element.entries[k][k]
            exp = next(e for e in range(r) if entry == field.zeta(step * e))
            read.append(exp)
        assert eigen_exponents(group, i).exponents == tuple(sorted(read))


def test_eigen_exponents_match_kernel_ranks():
    # independent oracle: multiplicity of zeta_r^a equals the kernel
    # dimension of g - zeta_r^a * I
    for name in ("bd8", "trihedral27"):
        group = closed_group(name)
        field = group.field
        n = group.dimension
        for cls in group.classes:
            i = cls.representative
            element = group.elements[i]
            r = element.order
            step = field.order // r
            expr = eigen_exponents(group, i)
            for a in range(r):
                eigval = field.zeta(step * a)
                shifted = tuple(
                    tuple(
                        element.entries[p][q] - (eigval if p == q else field.zero())
                        for q in range(n)
                    )
                    for p in range(n)
                )
                rank_defect = len(linalg.kernel_basis(shifted))
                assert rank_defect == expr.exponents.count(a)


def test_fractional_expression_properties():
    expr = FractionalExpression(7, (1, 2, 4))
    assert expr.age == 1
    assert expr.fix_dim == 0
    assert expr.primitive
    assert str(expr) == "(1/7)(1,2,4)"
    assert expr.inverse() == FractionalExpression(7, (3, 5, 6))
    assert FractionalExpression(3, (2, 2, 2)).primitive
    assert not FractionalExpression(4, (2, 2)).primitive
    assert FractionalExpression(3, (0, 1, 2)).inverse() == \
        FractionalExpression(3, (0, 1, 2))


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
    senior = table.classes[table.senior_classes()[0]]
    assert senior.expression == FractionalExpression(3, (2, 2, 2))


def test_trihedral_betti():
    group = closed_group("trihedral27")
    prediction = betti_prediction(group, graded_table("trihedral27"))
    assert (prediction.h0, prediction.h2, prediction.h4) == (1, 9, 1)
    assert prediction.euler == 11


def test_icosahedral_grading():
    table = graded_table("icosahedral60")
    ages = sorted(c.age for c in table.classes)
    assert ages == [0, 1, 1, 1, 1]
    group = closed_group("icosahedral60")
    prediction = betti_prediction(group, table)
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
    mapping = inverse_bijection(group, table)
    assert len(mapping) == 3
    assert sorted(mapping.values()) == sorted(table.buckets[2])
    # the map is induced by g -> g^-1
    for src, dst in mapping.items():
        rep = group.classes[src].representative
        assert group.class_of[group.inv(rep)] == dst


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
            inv_expr = eigen_exponents(group, group.inv(i))
            assert inv_expr == expr.inverse()
            if expr.fix_dim == 0:
                assert expr.age + inv_expr.age == n


def test_fix_junior_check_corpus():
    for name in ("trihedral27", "icosahedral60", "cyclic_7_124"):
        group = closed_group(name)
        assert fix_junior_check(group, graded_table(name))


def test_betti_requires_dimension3():
    with pytest.raises(RequirementError):
        betti_prediction(closed_group("bd8"))


def test_elementary_symmetric_exponents():
    expr = FractionalExpression(7, (1, 2, 4))
    values = elementary_symmetric_exponents(expr)
    assert values == [Fraction(1), Fraction(2, 7), Fraction(8, 343)]
    identity = FractionalExpression(1, (0, 0))
    assert elementary_symmetric_exponents(identity) == [Fraction(0), Fraction(0)]
