"""The age grading of conjugacy classes and the cohomology it predicts.

Eigenvalue exponents are computed by the exact trace formula
    m_a = (1/r) * sum_k zeta_r^(-a*k) * Tr(g^k),
which self-checks integrality of every multiplicity.  The group stays in
its own field Q(zeta_N); only the r scalars Tr(g^k) are embedded into
Q(zeta_lcm(N, r)), the smallest cyclotomic field holding both them and
zeta_r.  Grading is attached to conjugacy classes through a
representative, with class-constancy asserted at runtime.
"""

from __future__ import annotations

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

    def inverse(self) -> "FractionalExpression":
        flipped = tuple(sorted(0 if a == 0 else self.r - a for a in self.exponents))
        return FractionalExpression(self.r, flipped)

    def __str__(self):
        return f"(1/{self.r})({','.join(map(str, self.exponents))})"


def eigen_exponents(group: MatrixGroup, index: int) -> FractionalExpression:
    """Exponents (with multiplicity) of the element's eigenvalues as powers
    of the distinguished primitive r-th root, r = element order.

    The traces Tr(g^k), k < r, are embedded into Q(zeta_L) with
    L = lcm(N, r), N the order of the group's field; the group itself is
    not touched.  The distinguished root is zeta_r = zeta_L^(L/r), which
    restricts to the group field's zeta_N as zeta_L^(L/N).
    """
    r = group.elements[index].order
    field = cyclotomic_field(lcm(group.field.order, r))
    zeta_r = field.zeta(field.order // r)
    traces = []
    acc = 0
    for k in range(r):
        traces.append(group.elements[acc].trace().embed(field))
        acc = group.mul(acc, index)
    n = group.dimension
    exponents = []
    total = 0
    for a in range(r):
        m = field.zero()
        for k in range(r):
            m = m + zeta_r ** ((-a * k) % r) * traces[k]
        value = (m * Fraction(1, r)).as_rational()
        if value is None or value.denominator != 1 or value < 0:
            raise InternalInvariantError(
                f"multiplicity of exponent {a} is {value}, not a nonnegative integer"
            )
        exponents.extend([a] * value.numerator)
        total += value.numerator
    if total != n:
        raise InternalInvariantError(
            f"exponent multiplicities sum to {total}, expected {n}"
        )
    return FractionalExpression(r, tuple(exponents))


def age_of(group: MatrixGroup, index: int) -> int:
    if not group.in_sl:
        raise RequirementError("age is only integral for SL groups")
    return eigen_exponents(group, index).age


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

    def junior_classes(self) -> list[int]:
        return self.buckets.get(1, [])

    def senior_classes(self) -> list[int]:
        out = []
        for a, ids in sorted(self.buckets.items()):
            if a >= 2:
                out.extend(ids)
        return out


def grade(group: MatrixGroup) -> GradedClassTable:
    """Grade every conjugacy class by the age of its representative,
    asserting that all members of a class share the fractional expression."""
    if not group.in_sl:
        raise RequirementError("grading requires a subgroup of SL(n, C)")
    gradings = []
    buckets: dict[int, list[int]] = {}
    gamma1_zero = []
    for k, cls in enumerate(group.classes):
        expr = eigen_exponents(group, cls.representative)
        for member in cls.members:
            if eigen_exponents(group, member) != expr:
                raise InternalInvariantError(
                    f"conjugacy class {k} is not age-constant"
                )
        grading = ClassGrading(k, cls.representative, len(cls.members), expr, expr.age)
        gradings.append(grading)
        buckets.setdefault(expr.age, []).append(k)
        if expr.age == 1 and expr.fix_dim == 0:
            gamma1_zero.append(k)
    if buckets.get(0) != [group.class_of[0]] or gradings[group.class_of[0]].size != 1:
        raise InternalInvariantError("age-0 stratum is not exactly the identity class")
    return GradedClassTable(group, gradings, buckets, gamma1_zero)


def gamma1_zero(group: MatrixGroup) -> list[int]:
    """Junior classes whose representatives fix only the origin."""
    return grade(group).gamma1_zero


def inverse_bijection(group: MatrixGroup, table: GradedClassTable | None = None) -> dict[int, int]:
    """The class-level map g -> g^{-1} from junior-with-isolated-fixed-point
    classes onto the age-2 classes (n = 3 only); verified bijective."""
    if group.dimension != 3:
        raise RequirementError(
            f"inverse bijection requires dimension 3, got {group.dimension}"
        )
    if table is None:
        table = grade(group)
    mapping = {}
    for class_id in table.gamma1_zero:
        rep = group.classes[class_id].representative
        mapping[class_id] = group.class_of[group.inv(rep)]
    targets = sorted(mapping.values())
    age2 = sorted(table.buckets.get(2, []))
    if targets != age2:
        raise InternalInvariantError(
            "g -> g^-1 does not map junior isolated-fixed-point classes "
            "bijectively onto the age-2 classes"
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


def betti_prediction(group: MatrixGroup, table: GradedClassTable | None = None) -> BettiPrediction:
    """Predicted Betti numbers of a crepant resolution of C^3/G:
    h2 = number of junior classes, h4 = number of age-2 classes."""
    if group.dimension != 3:
        raise RequirementError(
            f"betti prediction requires dimension 3, got {group.dimension}"
        )
    if table is None:
        table = grade(group)
    h2 = len(table.buckets.get(1, []))
    h4 = len(table.buckets.get(2, []))
    if h4 != len(table.gamma1_zero):
        raise InternalInvariantError(
            "age-2 class count differs from junior isolated-fixed-point count"
        )
    prediction = BettiPrediction(1, h2, h4)
    if prediction.euler != len(group.classes):
        raise InternalInvariantError("euler number differs from class count")
    return prediction


def fix_junior_check(group: MatrixGroup, table: GradedClassTable | None = None) -> bool:
    """True iff every nonidentity element with a positive-dimensional fixed
    space is junior; guaranteed for subgroups of SL(3, C)."""
    if group.dimension != 3:
        raise RequirementError(
            f"fix-junior check requires dimension 3, got {group.dimension}"
        )
    if table is None:
        table = grade(group)
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
