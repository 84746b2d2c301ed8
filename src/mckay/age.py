"""The age grading of conjugacy classes and the cohomology it predicts.

Eigenvalue exponents come from one characteristic polynomial per power
walk, of the d eigenvalues other than 1, in O(R*d) field products for a
walk of length R: the element x^k of the walk of x has the k-th powers of
the eigenvalues of x.  Grading is
attached to conjugacy classes through a representative, with
class-constancy asserted at runtime.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cyclo import cyclotomic_field
from .errors import InternalInvariantError, RequirementError
from .matgroup import MatrixGroup


@dataclass(frozen=True)
class FractionalExpression:
    """The data (1/r)(a_1,...,a_n): order, sorted eigenvalue exponents,
    the dimension of the fixed subspace, and primitivity of the vector."""

    r: int
    exponents: tuple[int, ...]

    @property
    def age_fraction(self) -> Fraction:
        return Fraction(sum(self.exponents), self.r)

    @property
    def age(self) -> int:
        a = self.age_fraction
        if a.denominator != 1:
            raise RequirementError(
                f"age {a} is not an integer; element is not in SL"
            )
        return a.numerator

    @property
    def fix_dim(self) -> int:
        return sum(1 for a in self.exponents if a == 0)

    @property
    def primitive(self) -> bool:
        return gcd(self.r, *self.exponents) == 1

    def __str__(self):
        return f"(1/{self.r})({','.join(map(str, self.exponents))})"


def _walk_exponents(group: MatrixGroup, walk, trace) -> list[int]:
    """The exponents a, ascending with multiplicity, of the eigenvalues
    zeta_R^a of x = walk[1], R = len(walk), from p_i = Tr(x^i) = trace(walk[i]).
    The eigenvalue 1 has multiplicity m = (p_0 + ... + p_(R-1)) / R, taken
    as 0 unless that is an integer in [0, n], so that wrong traces still
    fail the split check or the trace-sum check.  Newton's identities give the
    polynomial t^d + c_1 t^(d-1) + ... + c_d, d = n - m, of the others from
    q_i = p_i - m, c_0 = 1: k c_k = -(c_(k-1) q_1 + ... + c_0 q_k), where
    q_(i+R) = q_i folds the terms i >= R into (R + d - k) c_(k-R).  Horner's
    rule tries each R-th root but 1 and divides it out while it is a root;
    raises unless n roots are found."""
    n, R = group.dimension, len(walk)
    p = [trace(y) for y in walk]
    total = sum(p[1:], p[0])
    m = total.nums[0] // R
    if not (0 <= m <= n and total == R * m):
        m = 0
    d = n - m
    q = [x - m for x in p[:d + 1]]
    coeffs = [1]  # c_0
    for k in range(1, d + 1):
        s = sum((coeffs[k - i] * q[i] for i in range(1, min(k, R))),
                q[k] if k < R else (R + d - k) * coeffs[k - R])
        coeffs.append(-s if k == 1 else s * Fraction(-1, k))
    field = cyclotomic_field(lcm(group.field.order, R))
    coeffs = [c.embed(field) for c in coeffs[1:]]
    exponents, a = [0] * m, 1
    while coeffs and a < R:
        z = field.zeta(field.order // R * a)
        quotient = [coeffs[0] + z]  # its last entry is the remainder
        for c in coeffs[1:]:  # times z = -1 is no field product
            prev = quotient[-1]
            quotient.append(c + (-prev if 2 * a == R else prev * z))
        if quotient.pop():
            a += 1
        else:
            exponents.append(a)
            coeffs = quotient
    if len(exponents) != n:
        raise InternalInvariantError(
            f"the characteristic polynomial of element {group.describe(walk[1])} "
            f"has {len(exponents)} of its {n} roots among the {R}-th roots of unity")
    return exponents


def _expression(group: MatrixGroup, index: int, by_generator,
                trace) -> FractionalExpression:
    """`eigen_exponents`, with walk generators' exponents in `by_generator`
    and `trace(i)` the trace of element i."""
    walk, k = group.places[index]
    R, x = len(walk), walk[1 % len(walk)]
    if x not in by_generator:  # x == 0 only for e, whose eigenvalues are 1
        by_generator[x] = (_walk_exponents(group, walk, trace) if x
                           else [0] * group.dimension)
    g = gcd(R, k)
    r = R // g
    exponents = sorted(a * k % R // g for a in by_generator[x])
    field = cyclotomic_field(lcm(group.field.order, r))
    roots = field.element(Counter(field.order // r * e for e in exponents))
    if roots != trace(index).embed(field):
        raise InternalInvariantError(f"the eigenvalues derived for element "
                                     f"{group.describe(index)} do not sum to its trace")
    return FractionalExpression(r, tuple(exponents))


def eigen_exponents(group: MatrixGroup, index: int,
                    by_generator: dict | None = None) -> FractionalExpression:
    """Exponents (with multiplicity) of the element's eigenvalues as powers of
    zeta_r = zeta_L^(L/r), r its order, L = lcm(N, r), zeta_L^(L/N) = zeta_N
    of the group's field; read from the characteristic polynomial of its walk.
    `by_generator`, if given, maps walk generators to their exponents: read
    from it, and filled with each polynomial built, so that calls sharing it
    build one polynomial per walk."""
    return _expression(group, index, {} if by_generator is None else by_generator,
                       lambda i: group.elements[i].trace())


@dataclass
class ClassGrading:
    class_id: int
    representative: int
    size: int
    expression: FractionalExpression
    age: int


@dataclass
class GradedClassTable:
    group: MatrixGroup
    classes: list[ClassGrading]
    buckets: dict[int, list[int]]  # age -> class ids
    gamma1_zero: list[int]  # junior class ids with fix_dim = 0


def grade(group: MatrixGroup) -> GradedClassTable:
    """Grade every conjugacy class by the age of its representative (one
    characteristic polynomial per walk), asserting that all members share
    its fractional expression: a function of r and Tr(g^k), k < r, so
    members are compared on those, in the group's field."""
    if not group.in_sl:
        raise RequirementError("grading requires a subgroup of SL(n, C)")
    traces = [element.trace() for element in group.elements]

    def power_traces(x):  # its length is the order of x
        return [traces[group.power(x, k)] for k in range(group.elements[x].order)]

    gradings = []
    buckets: dict[int, list[int]] = {}
    gamma1_zero = []
    by_generator = {}
    for k, cls in enumerate(group.classes):
        expr = _expression(group, cls.representative, by_generator, traces.__getitem__)
        expected = power_traces(cls.representative) if len(cls) > 1 else None
        for member in cls.members:
            if member != cls.representative and power_traces(member) != expected:
                raise InternalInvariantError(
                    f"conjugacy class {k} is not age-constant: its member "
                    f"{group.describe(member)} differs from its representative "
                    f"{group.describe(cls.representative)}"
                )
        grading = ClassGrading(k, cls.representative, len(cls.members), expr, expr.age)
        gradings.append(grading)
        buckets.setdefault(expr.age, []).append(k)
        if expr.age == 1 and expr.fix_dim == 0:
            gamma1_zero.append(k)
    if buckets.get(0) != [group.class_of[0]] or gradings[group.class_of[0]].size != 1:
        raise InternalInvariantError("age-0 stratum is not exactly the identity class")
    return GradedClassTable(group, gradings, buckets, gamma1_zero)


def _unpaired_class(table: GradedClassTable) -> str:
    """Names the first class, junior with an isolated fixed point or of age
    2, whose inverse class is not on the other side: where g -> g^-1 fails
    to pair the two sets.  For error messages."""
    group = table.group
    junior0, age2 = set(table.gamma1_zero), set(table.buckets.get(2, []))
    for k in sorted(junior0 | age2):
        rep = group.classes[k].representative
        j = group.class_of[group.inv(rep)]
        if j not in (age2 if k in junior0 else junior0):
            return (f"the class of {group.describe(rep)}, of age "
                    f"{table.classes[k].age}, inverts into the class of "
                    f"{group.describe(group.classes[j].representative)}, "
                    f"of age {table.classes[j].age}")
    return "every class pairs with its inverse class"


def inverse_bijection(table: GradedClassTable) -> dict[int, int]:
    """The class-level map g -> g^{-1} from junior-with-isolated-fixed-point
    classes onto the age-2 classes (n = 3 only); verified bijective."""
    group = table.group
    if group.dimension != 3:
        raise RequirementError(
            f"inverse bijection requires dimension 3, got {group.dimension}"
        )
    mapping = {}
    for class_id in table.gamma1_zero:
        rep = group.classes[class_id].representative
        mapping[class_id] = group.class_of[group.inv(rep)]
    if sorted(mapping.values()) != sorted(table.buckets.get(2, [])):
        raise InternalInvariantError(
            "g -> g^-1 does not map junior isolated-fixed-point classes "
            f"bijectively onto the age-2 classes: {_unpaired_class(table)}"
        )
    return mapping


@dataclass(frozen=True)
class BettiPrediction:
    h0: int
    h2: int
    h4: int

    @property
    def euler(self) -> int:
        return self.h0 + self.h2 + self.h4


def betti_prediction(table: GradedClassTable) -> BettiPrediction:
    """Predicted Betti numbers of a crepant resolution of C^3/G:
    h2 = number of junior classes, h4 = number of age-2 classes."""
    group = table.group
    if group.dimension != 3:
        raise RequirementError(
            f"betti prediction requires dimension 3, got {group.dimension}"
        )
    h2 = len(table.buckets.get(1, []))
    h4 = len(table.buckets.get(2, []))
    if h4 != len(table.gamma1_zero):
        raise InternalInvariantError(
            f"age-2 class count {h4} differs from junior isolated-fixed-point "
            f"count {len(table.gamma1_zero)}: {_unpaired_class(table)}"
        )
    prediction = BettiPrediction(1, h2, h4)
    if prediction.euler != len(group.classes):
        message = (f"euler number {prediction.euler} differs from class "
                   f"count {len(group.classes)}")
        uncounted = next((c for c in table.classes if c.age not in (1, 2)
                          and c.class_id != group.class_of[0]), None)
        if uncounted is not None:
            message += (f": the class of {group.describe(uncounted.representative)}"
                        f" has age {uncounted.age}")
        raise InternalInvariantError(message)
    return prediction


def fix_junior_check(table: GradedClassTable) -> bool:
    """True iff every nonidentity element with a positive-dimensional fixed
    space is junior; guaranteed for subgroups of SL(3, C)."""
    group = table.group
    if group.dimension != 3:
        raise RequirementError(
            f"fix-junior check requires dimension 3, got {group.dimension}"
        )
    for grading in table.classes:
        if grading.age == 0:
            continue
        if grading.expression.fix_dim > 0 and grading.age != 1:
            return False
    return True


def elementary_symmetric_exponents(expr: FractionalExpression) -> list[Fraction]:
    """All elementary symmetric functions e_k(a_i)/r^k; reported as
    diagnostics only, no semantics attached."""
    n = len(expr.exponents)
    coeffs = [Fraction(1)]
    for a in expr.exponents:
        coeffs = coeffs + [Fraction(0)]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += coeffs[i - 1] * a
    return [coeffs[k] / Fraction(expr.r) ** k for k in range(1, n + 1)]
