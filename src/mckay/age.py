"""The age grading of conjugacy classes and the cohomology it predicts.

Eigenvalue exponents are computed by the exact trace formula
    m_a = (1/r) * sum_k zeta_r^(-a*k) * Tr(g^k),
which self-checks integrality of every multiplicity.  The powers g^k are
looked up in the group's power walks, so Tr(g^k) is the trace of a stored
matrix.  The group stays in its own field Q(zeta_N); only the r scalars
Tr(g^k) are embedded into Q(zeta_lcm(N, r)), the smallest cyclotomic field
holding both them and zeta_r.  Grading is attached to conjugacy classes
through a representative, with class-constancy asserted at runtime.
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
    step = field.order // r
    zeta_r_powers = [field.zeta(step * e) for e in range(r)]
    traces = [group.elements[group.power(index, k)].trace().embed(field)
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
    """Grade every conjugacy class by the age of its representative,
    asserting that all members share its fractional expression.  That is a
    function of the order r and the traces Tr(g^k), k < r, so members are
    compared on those (in the group's field) without the trace formula."""
    if not group.in_sl:
        raise RequirementError("grading requires a subgroup of SL(n, C)")
    traces = [element.trace() for element in group.elements]

    def power_traces(x):  # its length is the order of x
        return [traces[group.power(x, k)] for k in range(group.elements[x].order)]

    gradings = []
    buckets: dict[int, list[int]] = {}
    gamma1_zero = []
    for k, cls in enumerate(group.classes):
        expr = eigen_exponents(group, cls.representative)
        expected = power_traces(cls.representative)
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
