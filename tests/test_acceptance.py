"""End-to-end checks, one per shipped guarantee, each reporting a single
pass/fail line in the terminal summary."""

from contextlib import contextmanager
from fractions import Fraction

import conftest
from conftest import CORPUS, closed_group, graded_table, group_path

from mckay.age import (
    FractionalExpression,
    betti_prediction,
    eigen_exponents,
    inverse_bijection,
)
from mckay.groupfile import parse_group_file
from mckay.quiver import fold
from mckay.toric import (
    DiagonalGroupSpec,
    build_lattice,
    condition_i,
    crepant_divisor_count,
    gamma2_hyperplane_count,
    junior_points,
    resolve,
)
from mckay.valuation import monomial_valuation, quotient_discrepancy, ram_group, stab_group


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        _record(number, "FAIL", description)
        raise
    _record(number, "PASS", description)


def _record(number, verdict, description):
    line = f"acceptance criterion {number}: {verdict} - {description}"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)


def test_criterion_1_trihedral():
    with criterion(1, "trihedral group: order 27, 11 classes, betti (1,9,1)"):
        group = closed_group("trihedral27")
        table = graded_table("trihedral27")
        assert len(group) == 27
        assert len(group.classes) == 11
        juniors = table.buckets.get(1, [])
        assert len(juniors) == 9
        profile = sorted(
            (table.classes[k].size, table.classes[k].expression.exponents)
            for k in juniors
        )
        assert profile == [(1, (1, 1, 1))] + [(3, (0, 1, 2))] * 8
        seniors = [k for age, ids in sorted(table.buckets.items())
                   if age >= 2 for k in ids]
        assert [table.classes[k].expression for k in seniors] == \
            [FractionalExpression(3, (2, 2, 2))]
        assert [table.classes[k].expression for k in table.gamma1_zero] == \
            [FractionalExpression(3, (1, 1, 1))]
        prediction = betti_prediction(table)
        assert (prediction.h0, prediction.h2, prediction.h4) == (1, 9, 1)
        assert prediction.euler == 11


def test_criterion_2_icosahedral():
    with criterion(2, "icosahedral group: order 60, ages (0,1,1,1,1), euler 5"):
        group = closed_group("icosahedral60")
        assert len(group) == 60
        table = graded_table("icosahedral60")
        assert sorted(c.age for c in table.classes) == [0, 1, 1, 1, 1]
        assert len(table.buckets.get(1, [])) == 4
        assert table.buckets.get(2, []) == []
        assert betti_prediction(table).euler == 5


def test_criterion_3_ade_folds():
    with criterion(3, "BD8 -> D4, BD12 -> D5, binary tetrahedral -> E6"):
        bd8 = closed_group("bd8")
        d4 = fold(bd8)
        assert (len(d4.nodes), len(d4.edges)) == (4, 3)
        degrees = _degrees(d4)
        center = next(k for k, d in degrees.items() if d == 3)
        a = bd8.generator_indices[0]
        assert bd8.classes[center].representative == bd8.power(a, 2)

        d5 = fold(closed_group("bd12"))
        assert (len(d5.nodes), len(d5.edges)) == (5, 4)
        assert sorted(_degrees(d5).values()) == [1, 1, 1, 2, 3]

        bt = closed_group("bt48")
        e6 = fold(bt)
        assert (len(e6.nodes), len(e6.edges)) == (6, 5)
        assert sorted(_degrees(e6).values()) == [1, 1, 1, 2, 2, 3]
        a, b, c = bt.generator_indices
        assert bt.class_of[a] == bt.class_of[bt.power(a, 3)] == bt.class_of[b]
        c_classes = [bt.class_of[bt.power(c, k)] for k in range(1, 6)]
        assert len(set(c_classes)) == 5


def _degrees(graph):
    out = {n: 0 for n in graph.nodes}
    for u, v in graph.edges:
        out[u] += 1
        out[v] += 1
    return out


def test_criterion_4_cyclic_7_ages_and_inversion():
    with criterion(4, "(1/7)(1,2,4): ages split {1,2,4} / {3,5,6} and swap "
                      "under generator inversion"):
        group = closed_group("cyclic_7_124")
        g = group.generator_indices[0]
        for k in (1, 2, 4):
            assert eigen_exponents(group, group.power(g, k)).age == 1
        for k in (3, 5, 6):
            assert eigen_exponents(group, group.power(g, k)).age == 2
        inverted = parse_group_file(group_path("cyclic_7_124")).inverted().close()
        gi = inverted.generator_indices[0]
        for k in (1, 2, 4):
            assert eigen_exponents(inverted, inverted.power(gi, k)).age == 2
        for k in (3, 5, 6):
            assert eigen_exponents(inverted, inverted.power(gi, k)).age == 1


def test_criterion_5_terminal_quotient():
    with criterion(5, "(1/5)(1,4,2,3): no juniors, 4 age-2 points, "
                      "condition (i) fails"):
        spec = parse_group_file(group_path("terminal_5_1423")).to_spec()
        lattice = build_lattice(spec)
        assert junior_points(lattice) == []
        assert gamma2_hyperplane_count(lattice) == 4
        witness = condition_i(lattice)
        assert not witness.holds
        assert witness.witness is not None


def test_criterion_6_quarter_1111():
    with criterion(6, "(1/4)(1,1,1,1): exactly one junior point"):
        lattice = build_lattice(DiagonalGroupSpec(4, ((4, (1, 1, 1, 1)),)))
        points = junior_points(lattice)
        assert points == [(Fraction(1, 4),) * 4]


def test_criterion_7_toric_resolutions():
    with criterion(7, "basic toric resolutions match Pick and "
                      "continued-fraction oracles"):
        for gens, triangles, divisors in (
            (((3, (1, 1, 1)),), 3, 1),
            (((7, (1, 2, 4)),), 7, 3),
        ):
            lattice = build_lattice(DiagonalGroupSpec(3, gens))
            tri = resolve(lattice)
            assert crepant_divisor_count(lattice) == divisors
            assert len(tri.simplices) == triangles
            # Pick oracle: T = 2 * interior + boundary - 2
            boundary = sum(1 for v in tri.vertices if any(c == 0 for c in v))
            interior = len(tri.vertices) - boundary
            assert len(tri.simplices) == 2 * interior + boundary - 2
        for r in range(2, 13):
            lattice = build_lattice(DiagonalGroupSpec(2, ((r, (1, r - 1)),)))
            tri = resolve(lattice)
            assert len(tri.vertices) - tri.n == r - 1
            assert len(tri.simplices) == r
            assert _hirzebruch_jung_length(r, r - 1) == r - 1


def _hirzebruch_jung_length(r, a):
    count = 0
    while a:
        b = -(-r // a)
        r, a = a, b * a - r
        count += 1
    return count


def test_criterion_8_ramification_suite():
    with criterion(8, "junior valuations: Ram = <g>, crepant downstairs, "
                      "Ram <= Stab"):
        for name in CORPUS:
            group = closed_group(name)
            if not group.in_sl:
                continue
            for cls in group.classes:
                rep = cls.representative
                if rep == 0:
                    continue
                expr = eigen_exponents(group, rep)
                if expr.age != 1:
                    continue
                v = monomial_valuation(group, rep)
                ram = ram_group(group, v)  # cyclicity asserted inside
                assert set(ram.members) == group.cyclic_subgroup(rep), name
                assert ram.degree == group.orders[rep]
                a_f = sum(expr.exponents) - 1
                assert quotient_discrepancy(a_f, ram.degree) == 0
                assert set(ram.members) <= set(stab_group(group, v))


def test_criterion_9_property_invariants():
    with criterion(9, "corpus-wide invariants: exact multiplicities, "
                      "age-constant classes, junior structure, bijection"):
        for name in CORPUS:
            group = closed_group(name)
            n = group.dimension
            for i in range(len(group)):
                # eigen_exponents raises unless the characteristic
                # polynomial of the element's walk generator splits into n
                # linear factors over the roots of unity of its order, and
                # the roots derived for the element sum to its trace
                expr = eigen_exponents(group, i)
                assert len(expr.exponents) == n
            table = graded_table(name)  # asserts age-constant classes
            if n == 2:
                for grading in table.classes:
                    if grading.representative != 0:
                        assert grading.age == 1
            if n == 3:
                for grading in table.classes:
                    if grading.age != 0 and grading.expression.fix_dim > 0:
                        assert grading.age == 1
                mapping = inverse_bijection(table)
                assert len(mapping) == len(table.buckets.get(2, []))
                assert len(mapping) == len(table.gamma1_zero)
