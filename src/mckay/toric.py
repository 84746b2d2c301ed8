"""The abelian / toric side: overlattice, unit-box points, junior simplex,
discrepancies, and crepant toric resolutions in dimensions 2 and 3.

Every point of the overlattice has coordinates over one denominator D, the
exponent of the group, so a box point p is kept as the integer vector
P = D*p with entries in [0, D).  The box is the group, built one cyclic
factor at a time: each generator's step adds the cosets of the subgroup
found so far, so every point is computed once.  The age of p is sum(P)/D.
The lattice sums each P once, right after sorting, into an index that the
ages of `box_points`, the juniors (sum(P) = D), the sum-2 count and
condition (i) all read.  `Fraction` points are built only for output
(`box_points`, `junior_points`, the condition (i) witness and the
resolution's vertices), each c/D once per lattice.

Condition (i) asks, for each box point of age >= 2, whether it dominates a
junior, in a k-d tree of the juniors (Bentley, 1975) whose nodes carry the
least corner of their subtree.  The tree is built bottom-up: a node's
corner is the coordinatewise minimum of its own point and its children's
corners, O(n) per node.

The n = 3 resolution charts the lattice points of the junior triangle into
an affine Z^2 and triangulates by point insertion, locating each point by a
straight walk from the newest triangle (Devillers, Pion and Teillaud,
"Walking in a triangulation", 2002).  Every cell is then verified to be
basic (normalized volume 1), which for a planar full triangulation is
automatic but asserted anyway.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import add, itemgetter, le, mod

from .cyclo import cyclotomic_field, prime_factors
from .errors import ClosureCapError, InternalInvariantError, RequirementError
from .matgroup import DEFAULT_CAP, _Lazy
from .record import Record

Point = tuple[Fraction, ...]


class DiagonalGroupSpec(Record):
    """A diagonal abelian group given by generators (1/r)(a_1,...,a_n)."""
    __slots__ = ("n", "generators")
    def __init__(self, n: int, generators: tuple[tuple[int, tuple[int, ...]], ...]):
        self.n = n
        self.generators = generators
        for r, exps in generators:
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

    def exponent_vectors(self) -> tuple[int, list[tuple[int, ...]]]:
        """L = lcm(r_i) and the generators as vectors over L: the
        generator (1/r)(a_1,...,a_n) is (L/r)(a_1,...,a_n)."""
        L = lcm(1, *(r for r, _ in self.generators))
        return L, [tuple(a * (L // r) for a in exps)
                   for r, exps in self.generators]

    def word_vector(self, runs) -> tuple[int, ...]:
        """The vector over L of the product g_k^m * ... of the runs
        [(k, m), ...]: the sum of m times generator k's vector, mod L."""
        L, vectors = self.exponent_vectors()
        out = (0,) * self.n
        for k, m in runs:
            out = tuple((a + m * b) % L for a, b in zip(out, vectors[k]))
        return out

    def matrices(self):
        """The generators over Q(zeta_L) as diagonal sparse rows (`linalg`)."""
        L, vectors = self.exponent_vectors()
        field = cyclotomic_field(L)
        nums = {a: field.zeta(a).nums for v in vectors for a in v}
        return [tuple(((i, nums[a], 1),) for i, a in enumerate(v)) for v in vectors]


class BoxPoint(Record):
    __slots__ = ("coords", "age", "primitive")
    def __init__(self, coords: Point, age: Fraction, primitive: bool):
        self.coords = coords
        self.age = age
        self.primitive = primitive


class OverLattice:
    """L = Z^n + sum Z*g_i with the box points L intersected with [0,1)^n,
    the elements of the diagonal group.  For each step s the scan walks
    t = s, 2s, ... until t falls in the subgroup H of the earlier steps,
    then adds the cosets H + t.  Like close_group it raises
    ClosureCapError past `cap` points; the walk checks the cap before it
    takes each coset, so the scan never holds more than `cap`.

    `scaled_points` are the box points times `denominator`, as integer
    vectors in lexicographic order; `box_points` is their `Fraction` view.
    `sums[i]` is the sum of `scaled_points[i]`, its age times `denominator`,
    and `scaled_juniors` are the points whose sum is `denominator`.
    """

    def __init__(self, spec: DiagonalGroupSpec, cap: int = DEFAULT_CAP):
        self.n = spec.n
        self.is_sl = spec.is_sl
        d, steps = spec.exponent_vectors()
        # points are sums of steps, so dividing out the steps' common factor
        # with d leaves the lcm of the reduced point denominators
        g = gcd(d, *(a for step in steps for a in step))
        self.denominator = den = d // g
        steps = [tuple(a // g for a in step) for step in steps]
        if cap < 1:
            raise ClosureCapError(cap)
        found = [(0,) * self.n]
        points = set(found)
        dens = (den,) * self.n
        # H = found[:size] starts with 0, so the coset H + t starts with t
        for step in steps:
            size, reps, t = len(found), [], step
            while t not in points:
                if size * (len(reps) + 2) > cap:
                    raise ClosureCapError(cap)
                reps.append(t)
                t = tuple(map(mod, map(add, t, step), dens))
            cosets = reps + [tuple(map(mod, map(add, h, t), dens))
                             for t in reps for h in found[1:size]]
            found += cosets
            points.update(cosets)
        self._point_set = points
        self.scaled_points = sorted(points)
        self.index = len(points)
        self.sums = list(map(sum, self.scaled_points))
        self.scaled_juniors = list(
            compress(self.scaled_points, map(den.__eq__, self.sums)))
        # c / denominator, one Fraction per numerator and lattice
        self._fractions = _Lazy(lambda c: Fraction(c, den))

    @cached_property
    def box_points(self) -> list[BoxPoint]:
        fractions = self._fractions
        return [
            BoxPoint(self._fraction_point(p), fractions[age],
                     self._is_primitive(p))
            for p, age in zip(self.scaled_points, self.sums)
        ]

    def _fraction_point(self, scaled: tuple[int, ...]) -> Point:
        return tuple(map(self._fractions.__getitem__, scaled))

    def _is_primitive(self, scaled: tuple[int, ...]) -> bool:
        # p/m lies in L only if m divides every entry of P = D*p, and then so
        # does p/q for a prime q | m, as the multiple (m/q)*(p/m)
        g = gcd(*scaled)
        return bool(g) and not any(
            tuple(c // q for c in scaled) in self._point_set
            for q in prime_factors(g)
        )

    def __repr__(self):
        return f"OverLattice(n={self.n}, index={self.index})"


def build_lattice(spec: DiagonalGroupSpec, cap: int = DEFAULT_CAP) -> OverLattice:
    return OverLattice(spec, cap)


def _require_sl(lattice: OverLattice):
    if not lattice.is_sl:
        raise RequirementError("operation requires an SL (sum = 0 mod r) spec")


def _juniors(lattice: OverLattice) -> list[tuple[int, ...]]:
    """Scaled box points on the hyperplane sum = 1, in lexicographic order."""
    _require_sl(lattice)
    return lattice.scaled_juniors


def junior_points(lattice: OverLattice) -> list[Point]:
    """Box points on the hyperplane sum = 1, in lexicographic order."""
    return [lattice._fraction_point(p) for p in _juniors(lattice)]


def crepant_divisor_count(lattice: OverLattice) -> int:
    return len(_juniors(lattice))


def gamma2_hyperplane_count(lattice: OverLattice) -> int:
    """Box points with coordinate sum 2 (n = 4 diagnostics)."""
    _require_sl(lattice)
    if lattice.n != 4:
        raise RequirementError(
            f"hyperplane count requires dimension 4, got {lattice.n}"
        )
    return lattice.sums.count(2 * lattice.denominator)


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


class ConditionWitness(Record):
    __slots__ = ("holds", "witness")
    def __init__(self, holds: bool, witness: Point | None):
        self.holds = holds
        self.witness = witness  # the lexicographically first box point not reached


def condition_i(lattice: OverLattice) -> ConditionWitness:
    """Check that every nonzero box point is a sum of junior points (an
    integral combination with coefficients >= 1), by reachability from 0.

    Juniors are nonnegative, so the partial sums of p = j_1 + ... + j_a lie
    in [0, p] and are box points: p is reachable iff p - j is, for a junior
    j <= p.  That p - j is a box point preceding p lexicographically, so one
    lexicographic pass reaches every earlier point before p, and p is
    reachable iff it dominates a junior; the witness is the first that
    does not.  A junior dominates itself, so only ages >= 2 are searched,
    in a k-d tree of the juniors.
    """
    juniors = _kd_tree(_juniors(lattice))
    den = lattice.denominator
    if any(map(den.__rmod__, lattice.sums)):
        raise InternalInvariantError("SL box point with non-integer age")
    for p in compress(lattice.scaled_points, map(den.__lt__, lattice.sums)):
        if not _dominates_one(juniors, p):
            return ConditionWitness(False, lattice._fraction_point(p))
    return ConditionWitness(True, None)


def _kd_tree(points, depth=0):
    """A k-d tree node (least corner, point, lower half, upper half), split
    at the median of coordinate depth mod n; None when `points` is empty.
    The corner is the least of the point's and the children's corners."""
    if not points:
        return None
    axis = depth % len(points[0])
    points = sorted(points, key=itemgetter(axis))
    mid = len(points) // 2
    point = points[mid]
    lower = _kd_tree(points[:mid], depth + 1)
    upper = _kd_tree(points[mid + 1:], depth + 1)
    if upper is not None:  # then mid >= 1, so lower is not empty either
        corner = tuple(map(min, point, lower[0], upper[0]))
    elif lower is not None:
        corner = tuple(map(min, point, lower[0]))
    else:
        corner = point
    return corner, point, lower, upper


def _dominates_one(node, p) -> bool:
    """Whether p >= some point of the k-d tree `node` in every coordinate.
    A subtree whose least corner p does not dominate holds no such point."""
    while node is not None:
        corner, point, lower, upper = node
        if not all(map(le, corner, p)):
            return False
        if all(map(le, point, p)) or _dominates_one(lower, p):
            return True
        node = upper
    return False


class JuniorTriangulation(Record):
    __slots__ = ("n", "vertices", "simplices", "adjacency")
    def __init__(self, n: int, vertices: list[Point],
                 simplices: list[tuple[int, ...]], adjacency: list[tuple[int, int]]):
        self.n = n
        self.vertices = vertices  # unit vectors first, then junior points (lex)
        self.simplices = simplices
        self.adjacency = adjacency  # junior vertex pairs sharing an edge


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


def _scaled_unit_vectors(n: int, den: int) -> list[tuple[int, ...]]:
    return [tuple(den if i == j else 0 for j in range(n)) for i in range(n)]


def _resolve_dim2(lattice: OverLattice) -> JuniorTriangulation:
    den = lattice.denominator
    scaled = _scaled_unit_vectors(2, den) + _juniors(lattice)
    vertices = [lattice._fraction_point(p) for p in scaled]
    # order along the segment e1 -> e2 by decreasing first coordinate
    chain = [0] + sorted(
        range(2, len(scaled)), key=lambda i: scaled[i][0], reverse=True
    ) + [1]
    simplices = []
    for a, b in zip(chain, chain[1:]):
        (p0, p1), (q0, q1) = scaled[a], scaled[b]
        # den^2 times the determinant of the cone's rays
        if abs(p0 * q1 - p1 * q0) * lattice.index != den * den:
            raise InternalInvariantError(
                f"cone on {vertices[a]}, {vertices[b]} is not basic for the "
                "overlattice"
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
    den = lattice.denominator
    units = _scaled_unit_vectors(3, den)
    scaled = units + _juniors(lattice)
    vertices = [lattice._fraction_point(p) for p in scaled]
    basis = _hnf_basis(units + lattice.scaled_points)  # a basis of den*L
    if len(basis) != 3:
        raise InternalInvariantError("overlattice model is not full rank")
    sums = tuple(sum(row) for row in basis)
    kernel = _integer_kernel_2d(sums)
    w1 = [sum(c * b for c, b in zip(kernel[0], col)) for col in zip(*basis)]
    w2 = [sum(c * b for c, b in zip(kernel[1], col)) for col in zip(*basis)]

    def chart(scaled_point, point: Point) -> tuple[int, int]:
        # solve den*(p - e3) = x*w1 + y*w2 exactly
        rhs = [c - (den if i == 2 else 0) for i, c in enumerate(scaled_point)]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            det = w1[i] * w2[j] - w1[j] * w2[i]
            if det:
                x, x_rem = divmod(rhs[i] * w2[j] - rhs[j] * w2[i], det)
                y, y_rem = divmod(w1[i] * rhs[j] - w1[j] * rhs[i], det)
                break
        else:  # pragma: no cover
            raise InternalInvariantError("chart directions are collinear")
        if x_rem or y_rem:
            raise InternalInvariantError(f"point {point} not integral in chart")
        for k in range(3):
            if x * w1[k] + y * w2[k] != rhs[k]:
                raise InternalInvariantError(f"chart solve inconsistent at {point}")
        return x, y

    coords = [chart(s, v) for s, v in zip(scaled, vertices)]
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


def _insert_triangulate(corners, interior_points):
    """Triangulate the triangle on `corners` by inserting each point in
    sorted order, splitting the cell that holds it (or the two cells sharing
    the edge it lies on).

    The triangles are kept counter-clockwise in an edge map: the directed
    edge (u, v) of the triangle (u, v, w) maps to w, so the neighbour across
    that edge is the triangle holding (v, u).  `_walk` finds each host,
    starting from the last triangle made."""
    a, b, c = corners
    if _orient(a, b, c) < 0:
        b, c = c, b
    third = {}

    def add(u, v, w):
        third[u, v], third[v, w], third[w, u] = w, u, v

    def remove(u, v, w):
        del third[u, v], third[v, w], third[w, u]

    add(a, b, c)
    newest = (a, b, c)
    for p in sorted(interior_points):
        a, b, c = _walk(third, newest, p, len(third) // 3)
        remove(a, b, c)
        if _orient(a, b, p) and _orient(b, c, p) and _orient(c, a, p):
            add(a, b, p)
            add(b, c, p)
            newest = (c, a, p)
        else:
            # rotate the host so that p lies on its edge (a, b)
            while _orient(a, b, p):
                a, b, c = b, c, a
            newest = (p, b, c)
            s = third.get((b, a))  # the host on the other side of the edge
            if s is not None:
                remove(b, a, s)
                add(b, p, s)
                add(p, a, s)
            add(a, p, c)
        add(*newest)
    return [(u, v, w) for (u, v), w in third.items() if u < v and u < w]


def _walk(third, start, p, max_steps):
    """The triangle of the edge map `third` whose closure holds p, by a
    straight walk from the centroid q of `start` towards p.

    The walk crosses the triangles that the segment qp meets, in order, so
    it ends within `max_steps` (the number of triangles) steps.  A vertex on
    the line qp counts as left of it, as if the line were moved a little to
    its right, off every vertex.  Leaving the junior triangle or exceeding
    `max_steps` is an internal error that names p."""
    a, b, c = start
    if _orient(a, b, p) >= 0 and _orient(b, c, p) >= 0 and _orient(c, a, p) >= 0:
        return start
    # q = (a + b + c)/3: points are scaled by 3 to stay integral
    qx, qy = a[0] + b[0] + c[0], a[1] + b[1] + c[1]
    dx, dy = 3 * p[0] - qx, 3 * p[1] - qy

    def left(s):
        return dx * (3 * s[1] - qy) - dy * (3 * s[0] - qx) >= 0

    # the edge (u, v) through which qp leaves: u right of it, v left
    u, v = next((u, v) for u, v in ((a, b), (b, c), (c, a))
                if not left(u) and left(v))
    for _ in range(max_steps):
        s = third.get((v, u))
        if s is None:
            raise InternalInvariantError(
                f"lattice point {p} lies outside the junior triangle"
            )
        # p lies beyond (u, v), so it is in (v, u, s) unless it lies beyond
        # the edge through which qp leaves
        if left(s):
            if _orient(u, s, p) >= 0:
                return v, u, s
            v = s
        else:
            if _orient(s, v, p) >= 0:
                return v, u, s
            u = s
    raise InternalInvariantError(
        f"walk to lattice point {p} took more than {max_steps} steps"
    )
