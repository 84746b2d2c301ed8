from fractions import Fraction

import pytest

from mckay.errors import RequirementError
from mckay.matgroup import close_group
from mckay.toric import (
    DiagonalGroupSpec,
    build_lattice,
    condition_i,
    crepant_divisor_count,
    discrepancy,
    gamma2_hyperplane_count,
    junior_points,
    resolve,
)


def lattice(n, *generators):
    return build_lattice(DiagonalGroupSpec(n, tuple(generators)))


def frac_point(*nums, den):
    return tuple(Fraction(a, den) for a in nums)


def test_box_one_third_111():
    lat = lattice(3, (3, (1, 1, 1)))
    assert lat.index == 3
    coords = [bp.coords for bp in lat.box_points]
    assert coords == [
        frac_point(0, 0, 0, den=1),
        frac_point(1, 1, 1, den=3),
        frac_point(2, 2, 2, den=3),
    ]
    assert junior_points(lat) == [frac_point(1, 1, 1, den=3)]
    assert crepant_divisor_count(lat) == 1


def test_box_one_seventh_124():
    lat = lattice(3, (7, (1, 2, 4)))
    assert lat.index == 7
    juniors = junior_points(lat)
    assert len(juniors) == 3
    assert frac_point(1, 2, 4, den=7) in juniors
    assert frac_point(2, 4, 1, den=7) in juniors
    assert frac_point(4, 1, 2, den=7) in juniors


def test_box_is_closed_under_addition():
    lat = lattice(3, (7, (1, 2, 4)))
    for p in lat.box_points:
        for q in lat.box_points:
            s = tuple(a + b for a, b in zip(p.coords, q.coords))
            assert lat.contains(s)


def test_primitivity_flags():
    lat = lattice(3, (3, (1, 1, 1)))
    flags = {bp.coords: bp.primitive for bp in lat.box_points}
    assert flags[frac_point(1, 1, 1, den=3)]
    assert not flags[frac_point(2, 2, 2, den=3)]  # = 2 * (1/3)(1,1,1) in L
    assert not flags[frac_point(0, 0, 0, den=1)]


def test_discrepancy_examples():
    assert discrepancy((1, 1, 1), 3) == 0
    assert discrepancy((2, 2, 2), 3) == 1
    assert discrepancy((1, 1), 2) == 0
    assert discrepancy((1, 2, 4), 7) == 0
    assert discrepancy((3, 5, 6), 7) == 1
    assert discrepancy((1, 0, 0), 1) == 0  # a coordinate axis divisor
    assert discrepancy((Fraction(2, 3),) * 3) == 1


def test_discrepancy_rejects_bad_input():
    with pytest.raises(RequirementError):
        discrepancy((2, 2, 2), 6)  # not primitive
    with pytest.raises(RequirementError):
        discrepancy((0, 0, 0), 3)
    with pytest.raises(RequirementError):
        discrepancy((1, -1, 1), 3)
    with pytest.raises(RequirementError):
        discrepancy((1, 1, 1), 0)


def test_junior_requires_sl():
    lat = lattice(2, (4, (1, 0)))
    with pytest.raises(RequirementError):
        junior_points(lat)


def test_condition_i_holds():
    for gens in (
        [(3, (1, 1, 1))],
        [(7, (1, 2, 4))],
        [(3, (1, 2, 0)), (3, (0, 1, 2))],
        [(2, (1, 1))],
        [(12, (1, 11))],
    ):
        witness = condition_i(lattice(len(gens[0][1]), *gens))
        assert witness.holds, gens
        assert witness.witness is None


def test_condition_i_fails_for_terminal_example():
    lat = lattice(4, (5, (1, 4, 2, 3)))
    witness = condition_i(lat)
    assert not witness.holds
    assert witness.witness is not None
    assert sum(witness.witness) == 2


def test_gamma2_hyperplane_counts():
    assert gamma2_hyperplane_count(lattice(4, (5, (1, 4, 2, 3)))) == 4
    assert gamma2_hyperplane_count(lattice(4, (4, (1, 3, 1, 3)))) == 3
    assert junior_points(lattice(4, (4, (1, 1, 1, 1)))) == \
        [frac_point(1, 1, 1, 1, den=4)]
    with pytest.raises(RequirementError):
        gamma2_hyperplane_count(lattice(3, (3, (1, 1, 1))))


def _pick_triangle_count(tri):
    # Pick oracle in the chart lattice: T = 2i + b - 2, where boundary points
    # of the junior triangle are exactly those with a zero coordinate
    boundary = interior = 0
    for v in tri.vertices:
        if any(c == 0 for c in v):
            boundary += 1
        else:
            interior += 1
    return 2 * interior + boundary - 2


@pytest.mark.parametrize("gens,expected_triangles,expected_juniors", [
    ([(3, (1, 1, 1))], 3, 1),
    ([(7, (1, 2, 4))], 7, 3),
    ([(3, (1, 2, 0)), (3, (0, 1, 2))], 9, 7),
    ([(11, (1, 3, 7))], 11, 5),
])
def test_resolve_dim3(gens, expected_triangles, expected_juniors):
    lat = lattice(3, *gens)
    tri = resolve(lat)
    assert len(tri.simplices) == expected_triangles
    assert len(tri.junior_vertex_ids) == expected_juniors
    assert _pick_triangle_count(tri) == expected_triangles
    # every vertex is used and simplices only reference known vertices
    used = {v for s in tri.simplices for v in s}
    assert used == set(range(len(tri.vertices)))


def _hirzebruch_jung_length(r, a):
    # continued fraction r/a = b1 - 1/(b2 - ...); length = exceptional curves
    count = 0
    while a:
        b = -(-r // a)
        r, a = a, b * a - r
        count += 1
    return count


@pytest.mark.parametrize("r", range(2, 13))
def test_resolve_dim2_chain(r):
    lat = lattice(2, (r, (1, r - 1)))
    tri = resolve(lat)
    assert len(tri.junior_vertex_ids) == r - 1
    assert len(tri.simplices) == r
    assert _hirzebruch_jung_length(r, r - 1) == r - 1
    # the junior adjacency is a path
    degrees = {}
    for a, b in tri.adjacency:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    if r > 2:
        assert sorted(degrees.values()) == [1, 1] + [2] * (r - 3)


def test_resolve_unsupported_dimension():
    with pytest.raises(RequirementError):
        resolve(lattice(4, (4, (1, 1, 1, 1))))


def test_box_ages_match_matrix_grading():
    # cross-check: box point ages equal element ages of the closed
    # diagonal matrix group (abelian, so classes are singletons)
    from mckay.age import eigen_exponents

    spec = DiagonalGroupSpec(3, ((7, (1, 2, 4)),))
    lat = build_lattice(spec)
    group = close_group(spec.matrices())
    matrix_ages = sorted(
        eigen_exponents(group, i).age for i in range(1, len(group))
    )
    box_ages = sorted(
        int(bp.age) for bp in lat.box_points if any(bp.coords)
    )
    assert matrix_ages == box_ages


def test_spec_validation():
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(3, ((0, (0, 0, 0)),))
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(3, ((3, (1, 1)),))
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(2, ((3, (1, 3)),))
