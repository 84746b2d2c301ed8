import contextlib
import io
import json
import pathlib
import tempfile
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mckay import toric
from mckay.age import betti_prediction, grade
from mckay.cli import main
from mckay.errors import ClosureCapError, InternalInvariantError, RequirementError
from mckay.groupfile import parse_group_file, parse_group_text
from mckay.matgroup import DEFAULT_CAP
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

from conftest import group_path


def lattice(n, *generators):
    return build_lattice(DiagonalGroupSpec(n, tuple(generators)))


@st.composite
def diagonal_specs(draw, max_index, max_order=12, sl=True, dims=(2, 4)):
    """Diagonal specs of dimension in `dims` (a range) with generator orders
    <= `max_order` whose product is at most `max_index`; SL when `sl`,
    either kind when `sl` is None."""
    if sl is None:
        sl = draw(st.booleans())
    n = draw(st.integers(*dims))
    gens, bound = [], max_index
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.integers(1, min(max_order, bound)))
        bound //= r
        exps = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        if sl:
            exps[-1] = -sum(exps[:-1]) % r
        gens.append((r, tuple(exps)))
    return DiagonalGroupSpec(n, tuple(gens))


def spec_text(spec):
    lines = ["format diagonal", f"dimension {spec.n}"] + [
        f"generator {r} : {' '.join(map(str, exps))}"
        for r, exps in spec.generators
    ]
    return "\n".join(lines) + "\n"


def frac_point(*nums, den):
    return tuple(Fraction(a, den) for a in nums)


def contains(lat, point):
    """Whether `point` lies in the overlattice: D * point is integral and
    its residue mod D is one of the scaled box points."""
    scaled = [Fraction(c) * lat.denominator for c in point]
    return all(c.denominator == 1 for c in scaled) and tuple(
        int(c) % lat.denominator for c in scaled) in set(lat.scaled_points)


class OracleLattice:
    """The Fraction scan that the integer OverLattice replaced: box points
    as exact rationals, primitivity by trying every m <= denominator."""

    def __init__(self, spec):
        residues = [
            tuple(Fraction(a, r) for a in exps) for r, exps in spec.generators
        ]
        found = [(Fraction(0),) * spec.n]
        points = set(found)
        for p in found:
            for g in residues:
                q = tuple((a + b) % 1 for a, b in zip(p, g))
                if q not in points:
                    points.add(q)
                    found.append(q)
        self.denominator = lcm(1, *(c.denominator for p in points for c in p))
        self.points = points
        self.box = [
            (p, sum(p, Fraction(0)), self.is_primitive(p)) for p in sorted(points)
        ]

    def contains(self, point):
        return tuple(c % 1 for c in point) in self.points

    def is_primitive(self, point):
        if not any(point):
            return False
        for m in range(2, self.denominator + 1):
            if tuple(c / m for c in point) in self.points:
                return False
        return True

    def juniors(self):
        return [p for p, age, _ in self.box if age == 1]

    def condition_i(self):
        juniors = self.juniors()
        for p, _, _ in self.box:
            if any(p) and not any(
                all(d <= c for c, d in zip(p, j)) for j in juniors
            ):
                return False, p
        return True, None


@settings(max_examples=150, deadline=None)
@given(diagonal_specs(max_index=150, sl=None))
@example(DiagonalGroupSpec(3, ((6, (2, 4, 0)),)))  # element order 3 < r
@example(DiagonalGroupSpec(3, ((6, (2, 4, 0)), (4, (2, 2, 0)))))
@example(DiagonalGroupSpec(4, ((12, (6, 0, 4, 2)), (10, (5, 5, 0, 0)))))
@example(DiagonalGroupSpec(3, ((1, (0, 0, 0)),)))
@example(DiagonalGroupSpec(2, ((9, (3, 0)),)))  # not SL
@example(DiagonalGroupSpec(4, ((5, (1, 4, 2, 3)),)))  # condition (i) fails
def test_lattice_matches_fraction_oracle(spec):
    lat, oracle = build_lattice(spec), OracleLattice(spec)
    assert [(bp.coords, bp.age, bp.primitive) for bp in lat.box_points] \
        == oracle.box
    assert all(isinstance(c, Fraction) for bp in lat.box_points
               for c in bp.coords + (bp.age,))
    assert (lat.index, lat.denominator) == (len(oracle.box), oracle.denominator)
    points = [p for p, _, _ in oracle.box]
    offset = (Fraction(1, 2 * oracle.denominator),) + (Fraction(0),) * (spec.n - 1)
    probes = [tuple(a + b for a, b in zip(p, q))
              for p in points[:8] for q in points[-8:]]
    probes += [tuple(a - b for a, b in zip(p, offset)) for p in points[:8]]
    for probe in probes:
        assert contains(lat, probe) == oracle.contains(probe), probe
    if not spec.is_sl:
        return
    assert junior_points(lat) == oracle.juniors()
    witness = condition_i(lat)
    assert (witness.holds, witness.witness) == oracle.condition_i()
    if spec.n == 4:
        assert gamma2_hyperplane_count(lat) == \
            sum(1 for _, age, _ in oracle.box if age == 2)


def _oracle_orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _oracle_on_segment(p, a, b):
    if _oracle_orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
        min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) and p != a and p != b


def oracle_insert_triangulate(corners, interior_points):
    """The point insertion that `_walk` replaced: every point scans every
    triangle for its host, O(J^2) in all."""
    triangles = [tuple(corners)]
    for p in sorted(interior_points):
        strict_host = None
        edge_hosts = []
        for tri in triangles:
            a, b, c = tri
            o1, o2, o3 = (_oracle_orient(a, b, p), _oracle_orient(b, c, p),
                          _oracle_orient(c, a, p))
            if o1 == o2 == o3 and o1 != 0:
                strict_host = tri
                break
            for (u, v), w in (((a, b), c), ((b, c), a), ((c, a), b)):
                if _oracle_on_segment(p, u, v):
                    edge_hosts.append((tri, (u, v), w))
        if strict_host is not None:
            a, b, c = strict_host
            triangles.remove(strict_host)
            triangles.extend([(a, b, p), (b, c, p), (c, a, p)])
        elif edge_hosts:
            for tri, (u, v), w in edge_hosts:
                triangles.remove(tri)
                triangles.extend([(u, p, w), (p, v, w)])
        else:
            raise AssertionError(f"{p} lies outside the triangle")
    return triangles


@settings(max_examples=60, deadline=None)
@given(diagonal_specs(max_index=400, max_order=30, dims=(3, 3)))
@example(DiagonalGroupSpec(3, ((10, (1, 9, 0)), (10, (0, 1, 9)))))
@example(DiagonalGroupSpec(3, ((17, (1, 16, 0)), (17, (0, 1, 16)))))
@example(DiagonalGroupSpec(3, ((30, (1, 29, 0)), (30, (0, 1, 29)))))
def test_walk_triangulation_matches_scan_oracle(spec):
    lat = build_lattice(spec)
    walked = resolve(lat)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toric, "_insert_triangulate", oracle_insert_triangulate)
        scanned = resolve(lat)
    assert (walked.simplices, walked.adjacency, walked.vertices) == \
        (scanned.simplices, scanned.adjacency, scanned.vertices)


def test_walk_outside_the_triangle_names_the_point():
    with pytest.raises(InternalInvariantError,
                       match=r"lattice point \(2, 1\) lies outside the junior"):
        toric._insert_triangulate([(0, 0), (2, 0), (0, 2)], [(1, 1), (2, 1)])


def test_toric_hot_path_does_no_fraction_arithmetic(monkeypatch):
    """The scan, primitivity, junior counts, condition (i) and both
    resolutions run on integers: building the Fraction outputs is allowed,
    arithmetic and comparison on them is not."""
    dim4 = DiagonalGroupSpec(
        4, ((5, (1, 4, 0, 0)), (5, (0, 1, 4, 0)), (5, (0, 0, 1, 4))))
    dim3 = DiagonalGroupSpec(3, ((6, (1, 5, 0)), (6, (0, 1, 5))))
    dim2 = DiagonalGroupSpec(2, ((7, (1, 6)),))
    expected = [resolve(build_lattice(s)).simplices for s in (dim2, dim3)]
    primitive = [bp.primitive for bp in build_lattice(dim4).box_points]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the toric hot path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                 "__pow__", "__neg__", "__abs__", "__eq__", "__lt__", "__le__",
                 "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(AssertionError):
        Fraction(1, 2) < 1
    lat = build_lattice(dim4)
    assert crepant_divisor_count(lat) == 52
    assert gamma2_hyperplane_count(lat) == 68
    assert condition_i(lat).holds
    assert [bp.primitive for bp in lat.box_points] == primitive
    assert [resolve(build_lattice(s)).simplices for s in (dim2, dim3)] == expected


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
            assert contains(lat, s)


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


def multiset_condition_i(lattice):
    """Reference for condition_i: search the multisets of a juniors summing
    to each nonzero box point of age a, in lexicographic order."""
    juniors = junior_points(lattice)
    for bp in lattice.box_points:
        if not any(bp.coords):
            continue
        a = bp.age.numerator
        if not any(
            tuple(sum(cs, Fraction(0)) for cs in zip(*combo)) == bp.coords
            for combo in combinations_with_replacement(juniors, a)
        ):
            return False, bp.coords
    return True, None


def assert_matches_multiset_search(lat):
    witness = condition_i(lat)
    assert (witness.holds, witness.witness) == multiset_condition_i(lat)


@settings(max_examples=60, deadline=None)
@given(diagonal_specs(max_index=150))
def test_condition_i_matches_multiset_search(spec):
    assert_matches_multiset_search(build_lattice(spec))


@pytest.mark.parametrize("spec", [
    parse_group_file(group_path("terminal_5_1423")).to_spec(),
    DiagonalGroupSpec(4, ((5, (1, 4, 0, 0)), (5, (0, 1, 4, 0)), (5, (0, 0, 1, 4)))),
], ids=["terminal_5_1423", "dim4_index125"])
def test_condition_i_matches_multiset_search_examples(spec):
    assert_matches_multiset_search(build_lattice(spec))


def oracle_kd_tree(points, depth=0):
    """The top-down build that `toric._kd_tree` replaced: each node's corner
    is the minimum over every point of its subtree."""
    if not points:
        return None
    axis = depth % len(points[0])
    points = sorted(points, key=lambda p: p[axis])
    mid = len(points) // 2
    return (tuple(map(min, zip(*points))), points[mid],
            oracle_kd_tree(points[:mid], depth + 1),
            oracle_kd_tree(points[mid + 1:], depth + 1))


def toric_dim4_specs():
    """Both families of the `toric_dim4` benchmark: (1/r)(1,r-1,0,0) +
    (1/r)(0,u,r-u,0) + (1/r)(0,0,v,r-v) for r = 5, 6 and all units u, v,
    and (1/7)(1,6,a,7-a) for every a."""
    for r in (5, 6):
        units = [u for u in range(1, r) if gcd(u, r) == 1]
        for u in units:
            for v in units:
                yield DiagonalGroupSpec(4, ((r, (1, r - 1, 0, 0)),
                                            (r, (0, u, r - u, 0)),
                                            (r, (0, 0, v, r - v))))
    for a in range(1, 7):
        yield DiagonalGroupSpec(4, ((7, (1, 6, a, 7 - a)),))


def assert_index_matches_the_scans(lat):
    """The sums index, the juniors and the k-d tree against the scans they
    replaced, and each dominance query against a scan of the juniors."""
    assert lat.sums == [sum(p) for p in lat.scaled_points]
    juniors = [p for p in lat.scaled_points if sum(p) == lat.denominator]
    assert lat.scaled_juniors == juniors
    tree = toric._kd_tree(juniors)
    assert tree == oracle_kd_tree(juniors)
    for p in lat.scaled_points:
        assert toric._dominates_one(tree, p) == any(
            all(map(le, j, p)) for j in juniors), p


@settings(max_examples=150, deadline=None)
@given(diagonal_specs(max_index=150, sl=None))
def test_sums_index_and_kd_tree_match_the_scans(spec):
    assert_index_matches_the_scans(build_lattice(spec))


@pytest.mark.parametrize("spec", list(toric_dim4_specs()),
                         ids=lambda spec: str(spec.generators))
def test_sums_index_and_kd_tree_match_the_scans_on_the_dim4_families(spec):
    assert_index_matches_the_scans(build_lattice(spec))


def test_lattice_cap_counts_box_points():
    spec = DiagonalGroupSpec(3, ((7, (1, 2, 4)),))
    assert build_lattice(spec, cap=7).index == 7
    with pytest.raises(ClosureCapError, match="cap of 6 elements"):
        build_lattice(spec, cap=6)
    with pytest.raises(ClosureCapError):
        build_lattice(spec, cap=0)


def oracle_bfs_scan(spec, cap=DEFAULT_CAP):
    """The breadth-first box scan that the coset scan replaced: every point
    plus every step, with a membership test per sum.  Returns the set of
    scaled box points; raises ClosureCapError past `cap` of them."""
    d, steps = spec.exponent_vectors()
    g = gcd(d, *(a for step in steps for a in step))
    den = d // g
    steps = [tuple(a // g for a in step) for step in steps]
    found = [(0,) * spec.n]
    points = set(found)
    for p in found:
        if len(found) > cap:
            raise ClosureCapError(cap)
        for step in steps:
            q = tuple((a + b) % den for a, b in zip(p, step))
            if q not in points:
                points.add(q)
                found.append(q)
    return points


def _raises_cap(scan, spec, cap):
    try:
        scan(spec, cap)
    except ClosureCapError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(diagonal_specs(max_index=150, sl=None))
@example(DiagonalGroupSpec(3, ((6, (2, 4, 0)), (4, (2, 2, 0)))))
@example(DiagonalGroupSpec(3, ((5, (1, 2, 2)), (5, (1, 2, 2)))))
@example(DiagonalGroupSpec(3, ((6, (1, 5, 0)), (3, (1, 2, 0)))))
@example(DiagonalGroupSpec(3, ((1, (0, 0, 0)),)))
def test_coset_scan_matches_bfs_oracle(spec):
    # later generators may fall into earlier cosets, or repeat one
    lat, points = build_lattice(spec), oracle_bfs_scan(spec)
    assert lat._point_set == points
    assert lat.scaled_points == sorted(points)
    assert lat.index == len(points)
    for cap in (0, lat.index // 2, lat.index - 1, lat.index):
        assert _raises_cap(build_lattice, spec, cap) \
            == _raises_cap(oracle_bfs_scan, spec, cap) == (lat.index > cap)


def test_cap_is_checked_before_each_coset():
    # index 125, built as the cosets of 1, 5 and 25 points: caps 26 and 100
    # fall inside a coset
    spec = DiagonalGroupSpec(
        4, ((5, (1, 4, 0, 0)), (5, (0, 1, 4, 0)), (5, (0, 0, 1, 4))))
    for cap in (0, 26, 100, 124):
        with pytest.raises(ClosureCapError, match=f"cap of {cap} elements"):
            build_lattice(spec, cap)
    for cap in (125, 126):
        assert build_lattice(spec, cap).index == 125
    # index 10^6: the scan stops at the cap, so it holds about 1000 points,
    # well under 1 MB, where the whole box would take over 100 MB
    big = DiagonalGroupSpec(3, ((1000, (1, 999, 0)), (1000, (0, 1, 999))))
    tracemalloc.start()
    try:
        with pytest.raises(ClosureCapError, match="cap of 1000 elements"):
            build_lattice(big, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_large_cyclic_box_scan_is_linear_like_the_bfs():
    # every coset of a cyclic group is one point, so work of order n * D
    # per coset would make the scan quadratic in the index; the BFS oracle
    # is linear, and the scan (with its sort) must stay within 3 times it
    spec = DiagonalGroupSpec(3, ((10**5, (1, 2, 99997)),))

    def best_of_two(scan):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            result = scan(spec)
            times.append(time.perf_counter() - start)
        return result, min(times)

    lat, scan_s = best_of_two(build_lattice)
    points, bfs_s = best_of_two(oracle_bfs_scan)
    assert lat.index == len(points) == 10**5
    assert scan_s < 3 * bfs_s


def test_fraction_coordinates_are_built_once_per_lattice():
    lat = lattice(4, (6, (1, 5, 0, 0)), (6, (0, 1, 5, 0)), (6, (0, 0, 1, 5)))
    pts = junior_points(lat)
    assert len(pts) == 80
    assert len({id(c) for p in pts for c in p}) <= lat.denominator + 1
    # the ages, up to n * D over D, share the table with the coordinates
    values = [c for bp in lat.box_points for c in bp.coords + (bp.age,)]
    assert len({id(c) for c in values}) == len(set(values))
    lat = lattice(3, (6, (1, 5, 0)), (6, (0, 1, 5)))
    vertices = resolve(lat).vertices
    assert len({id(c) for p in vertices for c in p}) <= lat.denominator + 1


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
    assert len(tri.vertices) - tri.n == expected_juniors
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
    assert len(tri.vertices) - tri.n == r - 1
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


def cli_group_block(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())["group"]


@settings(max_examples=15, deadline=None)
@given(text=diagonal_specs(max_index=16, max_order=4, sl=None).map(spec_text))
@example(text=group_path("cyclic_7_124").read_text())
@example(text=group_path("terminal_5_1423").read_text())
def test_box_ages_match_matrix_grading(text):
    # cross-check of the two sides on a diagonal group: box points are the
    # elements of the closed matrix group, an abelian group
    gf = parse_group_text(text)
    lat = build_lattice(gf.to_spec())
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "group.grp")
        pathlib.Path(path).write_text(text)
        for choice in ("standard", "inverse"):
            assert cli_group_block("toric", "box", path, "--choice", choice) \
                == cli_group_block("info", path, "--choice", choice)
    if not lat.is_sl:
        return
    group = gf.close()
    table = grade(group)
    box_ages = Counter(int(bp.age) for bp in lat.box_points)
    assert box_ages == Counter({
        age: sum(table.classes[k].size for k in ids)
        for age, ids in table.buckets.items()
    })
    assert len(table.buckets.get(1, [])) == crepant_divisor_count(lat)
    if lat.n == 3:
        betti = betti_prediction(table)
        assert (betti.h2, betti.h4) == (box_ages[1], box_ages[2])


def test_spec_validation():
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(3, ((0, (0, 0, 0)),))
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(3, ((3, (1, 1)),))
    with pytest.raises(RequirementError):
        DiagonalGroupSpec(2, ((3, (1, 3)),))
