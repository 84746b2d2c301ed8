"""The abelian / toric side: overlattice, unit-box points, junior simplex,
discrepancies, and crepant toric resolutions in dimensions 2 and 3.

Points are exact rationals with denominators dividing the lcm of the
generator orders.  The n = 3 resolution charts the lattice points of the
junior triangle into an affine Z^2 and triangulates by point insertion;
every cell is then verified to be basic (normalized volume 1), which for a
planar full triangulation is automatic but asserted anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from .cyclo import cyclotomic_field
from .errors import InternalInvariantError, RequirementError

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class DiagonalGroupSpec:
    """A diagonal abelian group given by generators (1/r)(a_1,...,a_n)."""

    n: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        for r, exps in self.generators:
            if r < 1:
                raise RequirementError(f"generator order {r} must be positive")
            if len(exps) != self.n:
                raise RequirementError(
                    f"generator exponents {exps} do not have length {self.n}"
                )
            for a in exps:
                if not 0 <= a < r:
                    raise RequirementError(
                        f"exponent {a} out of range [0, {r})"
                    )

    @property
    def is_sl(self) -> bool:
        return all(sum(exps) % r == 0 for r, exps in self.generators)

    def matrices(self):
        """The generators as diagonal matrices over Q(zeta_d)."""
        d = lcm(1, *(r for r, _ in self.generators))
        field = cyclotomic_field(d)
        mats = []
        for r, exps in self.generators:
            step = d // r
            mats.append(tuple(
                tuple(
                    field.zeta(step * exps[i]) if i == j else field.zero()
                    for j in range(self.n)
                )
                for i in range(self.n)
            ))
        return mats


@dataclass(frozen=True)
class BoxPoint:
    coords: Point
    age: Fraction
    primitive: bool

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


class OverLattice:
    """L = Z^n + sum Z*g_i with the box points L intersected with [0,1)^n."""

    def __init__(self, spec: DiagonalGroupSpec):
        self.spec = spec
        self.n = spec.n
        self.is_sl = spec.is_sl
        residues = [
            tuple(Fraction(a, r) for a in exps) for r, exps in spec.generators
        ]
        points = {tuple(Fraction(0) for _ in range(self.n))}
        frontier = list(points)
        while frontier:
            new = []
            for p in frontier:
                for g in residues:
                    q = tuple((a + b) % 1 for a, b in zip(p, g))
                    if q not in points:
                        points.add(q)
                        new.append(q)
            frontier = new
        self.denominator = lcm(1, *(c.denominator for p in points for c in p))
        self._point_set = points
        self.box_points = [
            BoxPoint(p, sum(p, Fraction(0)), self._is_primitive(p))
            for p in sorted(points)
        ]
        self.index = len(points)

    def contains(self, point: Point) -> bool:
        return tuple(c % 1 for c in point) in self._point_set

    def _is_primitive(self, point: Point) -> bool:
        if not any(point):
            return False
        for m in range(2, self.denominator + 1):
            if tuple(c / m for c in point) in self._point_set:
                return False
        return True

    def __repr__(self):
        return f"OverLattice(n={self.n}, index={self.index})"


def build_lattice(spec: DiagonalGroupSpec) -> OverLattice:
    return OverLattice(spec)


def _require_sl(lattice: OverLattice):
    if not lattice.is_sl:
        raise RequirementError("operation requires an SL (sum = 0 mod r) spec")


def junior_points(lattice: OverLattice) -> list[Point]:
    """Box points on the hyperplane sum = 1, in lexicographic order."""
    _require_sl(lattice)
    return [bp.coords for bp in lattice.box_points if bp.age == 1]


def crepant_divisor_count(lattice: OverLattice) -> int:
    return len(junior_points(lattice))


def gamma2_hyperplane_count(lattice: OverLattice) -> int:
    """Box points with coordinate sum 2 (n = 4 diagnostics)."""
    _require_sl(lattice)
    if lattice.n != 4:
        raise RequirementError(
            f"hyperplane count requires dimension 4, got {lattice.n}"
        )
    return sum(1 for bp in lattice.box_points if bp.age == 2)


def discrepancy(weights, order: int = 1) -> Fraction:
    """Discrepancy (sum b_i)/r' - 1 of the divisor of the lattice point
    (1/r')(b_1,...,b_n) in the closed positive octant.

    The expression must be primitive, gcd(r', b_1,...,b_n) = 1; callers
    holding a non-primitive expression must reduce it first.  Fractional
    coordinates may be passed directly with order 1.
    """
    if order < 1:
        raise RequirementError("order must be >= 1")
    point = tuple(Fraction(b, order) for b in weights)
    if any(c < 0 for c in point) or not any(point):
        raise RequirementError("point must be nonzero with nonnegative coordinates")
    if all(isinstance(b, int) for b in weights):
        if gcd(order, *weights) != 1:
            raise RequirementError(
                f"(1/{order}){tuple(weights)} is not primitive"
            )
    return sum(point, Fraction(0)) - 1


@dataclass
class ConditionWitness:
    holds: bool
    witness: Point | None
    variant: str


def condition_i(lattice: OverLattice) -> ConditionWitness:
    """Check that every nonzero box point is an integral combination of
    junior points with coefficients >= 1.

    Coordinate sums add, so a point of age a needs exactly a junior summands;
    the search runs over multisets of that size.  Allowing coefficients >= 0
    over all juniors would select the same multisets, since zero
    coefficients drop out; the variant name is still carried through to
    reports.
    """
    _require_sl(lattice)
    variant = "coefficients >= 1"
    juniors = junior_points(lattice)
    junior_set = set(juniors)
    for bp in lattice.box_points:
        if not any(bp.coords):
            continue
        a = bp.age
        if a.denominator != 1:
            raise InternalInvariantError("SL box point with non-integer age")
        a = a.numerator
        if a == 1:
            continue  # a junior point represents itself
        found = False
        for combo in combinations_with_replacement(juniors, a):
            total = tuple(sum(cs, Fraction(0)) for cs in zip(*combo))
            if total == bp.coords:
                found = True
                break
        if not found:
            return ConditionWitness(False, bp.coords, variant)
    # with no juniors, any nonzero point above already failed
    return ConditionWitness(True, None, variant)


@dataclass
class JuniorTriangulation:
    n: int
    vertices: list[Point]  # unit vectors first, then junior points (lex)
    simplices: list[tuple[int, ...]]
    adjacency: list[tuple[int, int]]  # junior vertex pairs sharing an edge

    @property
    def junior_vertex_ids(self) -> list[int]:
        return list(range(self.n, len(self.vertices)))


def resolve(lattice: OverLattice) -> JuniorTriangulation:
    """Crepant toric resolution data: a basic subdivision of the junior
    simplex using every lattice point on it (n = 2 or 3)."""
    _require_sl(lattice)
    if lattice.n == 2:
        return _resolve_dim2(lattice)
    if lattice.n == 3:
        return _resolve_dim3(lattice)
    raise RequirementError(
        f"toric resolution implemented for n in (2, 3), got {lattice.n}"
    )


def _unit_vectors(n: int) -> list[Point]:
    return [
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    ]


def _resolve_dim2(lattice: OverLattice) -> JuniorTriangulation:
    juniors = junior_points(lattice)
    vertices = _unit_vectors(2) + juniors
    # order along the segment e1 -> e2 by decreasing first coordinate
    chain = [0] + sorted(
        range(2, len(vertices)), key=lambda i: vertices[i][0], reverse=True
    ) + [1]
    d = lattice.denominator
    simplices = []
    for a, b in zip(chain, chain[1:]):
        p, q = vertices[a], vertices[b]
        det = (p[0] * q[1] - p[1] * q[0]) * d * d
        if det.denominator != 1 or abs(det.numerator) * lattice.index != d * d:
            raise InternalInvariantError(
                f"cone on {p}, {q} is not basic for the overlattice"
            )
        simplices.append(tuple(sorted((a, b))))
    adjacency = [
        (a, b) for a, b in zip(chain, chain[1:]) if a >= 2 and b >= 2
    ]
    adjacency = sorted(tuple(sorted(e)) for e in adjacency)
    return JuniorTriangulation(2, vertices, sorted(simplices), adjacency)


def _hnf_basis(rows: list[tuple[int, ...]]) -> list[list[int]]:
    """Row-style Hermite reduction returning a basis of the integer lattice
    spanned by the rows (full rank assumed)."""
    m = [list(r) for r in rows]
    rank_row = 0
    ncols = len(m[0])
    for col in range(ncols):
        # gcd elimination in this column below rank_row
        while True:
            nonzero = [i for i in range(rank_row, len(m)) if m[i][col]]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda i: abs(m[i][col]))
            m[rank_row], m[pivot] = m[pivot], m[rank_row]
            done = True
            for i in range(rank_row + 1, len(m)):
                if m[i][col]:
                    q = m[i][col] // m[rank_row][col]
                    m[i] = [a - q * b for a, b in zip(m[i], m[rank_row])]
                    if m[i][col]:
                        done = False
            if done:
                break
        if any(m[i][col] for i in range(rank_row, len(m))):
            rank_row += 1
    basis = [row for row in m[:rank_row] if any(row)]
    return basis


def _integer_kernel_2d(s: tuple[int, int, int]) -> list[list[int]]:
    """Basis of {c in Z^3 : c . s = 0} via unimodular column reduction."""
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    v = list(s)
    while True:
        nonzero = [i for i in range(3) if v[i]]
        if len(nonzero) <= 1:
            break
        i = min(nonzero, key=lambda k: abs(v[k]))
        for j in nonzero:
            if j != i:
                q = v[j] // v[i]
                v[j] -= q * v[i]
                u[j] = [a - q * b for a, b in zip(u[j], u[i])]
    kernel = [u[i] for i in range(3) if not v[i]]
    if len(kernel) != 2:
        raise InternalInvariantError("sum form has degenerate kernel")
    return kernel


def _resolve_dim3(lattice: OverLattice) -> JuniorTriangulation:
    juniors = junior_points(lattice)
    vertices = _unit_vectors(3) + juniors
    d = lattice.denominator
    # integer model of d*L
    rows = [tuple(d if i == j else 0 for j in range(3)) for i in range(3)]
    rows += [
        tuple(int(c * d) for c in bp.coords) for bp in lattice.box_points
    ]
    basis = _hnf_basis(rows)
    if len(basis) != 3:
        raise InternalInvariantError("overlattice model is not full rank")
    sums = tuple(sum(row) for row in basis)
    kernel = _integer_kernel_2d(sums)
    w1 = [sum(c * b for c, b in zip(kernel[0], col)) for col in zip(*basis)]
    w2 = [sum(c * b for c, b in zip(kernel[1], col)) for col in zip(*basis)]

    def chart(point: Point) -> tuple[int, int]:
        # solve d*(p - e3) = x*w1 + y*w2 exactly
        rhs = [d * (c - (1 if i == 2 else 0)) for i, c in enumerate(point)]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            det = w1[i] * w2[j] - w1[j] * w2[i]
            if det:
                x = Fraction(rhs[i] * w2[j] - rhs[j] * w2[i], det)
                y = Fraction(w1[i] * rhs[j] - w1[j] * rhs[i], det)
                break
        else:  # pragma: no cover
            raise InternalInvariantError("chart directions are collinear")
        if x.denominator != 1 or y.denominator != 1:
            raise InternalInvariantError(f"point {point} not integral in chart")
        for k in range(3):
            if x * w1[k] + y * w2[k] != rhs[k]:
                raise InternalInvariantError(f"chart solve inconsistent at {point}")
        return int(x), int(y)

    coords = [chart(v) for v in vertices]
    triangles = _insert_triangulate(coords[:3], coords[3:])
    chart_to_id = {c: i for i, c in enumerate(coords)}
    simplices = sorted(
        tuple(sorted(chart_to_id[p] for p in tri)) for tri in triangles
    )
    for tri in triangles:
        (ax, ay), (bx, by), (cx, cy) = tri
        area2 = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if area2 != 1:
            raise InternalInvariantError(
                "triangulation produced a non-basic cell"
            )
    edges = set()
    for s in simplices:
        for a, b in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
            if a >= 3 and b >= 3:
                edges.add((a, b))
    return JuniorTriangulation(3, vertices, simplices, sorted(edges))


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
        min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) and p != a and p != b


def _insert_triangulate(corners, interior_points):
    """Triangulate the triangle on `corners` by inserting each point,
    splitting the containing cell (or the cells sharing a split edge)."""
    triangles = [tuple(corners)]
    for p in sorted(interior_points):
        strict_host = None
        edge_hosts = []
        for tri in triangles:
            a, b, c = tri
            o1, o2, o3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
            if o1 == o2 == o3 and o1 != 0:
                strict_host = tri
                break
            for (u, v), w in (((a, b), c), ((b, c), a), ((c, a), b)):
                if _on_segment(p, u, v):
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
            raise InternalInvariantError(
                f"lattice point {p} lies outside the junior triangle"
            )
    return triangles
