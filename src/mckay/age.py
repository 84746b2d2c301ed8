"""The age grading of conjugacy classes and the cohomology it predicts.

Eigenvalue exponents come from one characteristic polynomial per power
walk, of the d eigenvalues other than 1: the element x^k of the walk of x
has the k-th powers of the eigenvalues of x.  Its roots are found in
O(R*d) products of integers modulo a split prime and certified by exact
power sums, all on the integer numerators of the traces.  Grading is
attached to conjugacy classes through a representative, with
class-constancy asserted at runtime.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .cyclo import cyclotomic_field, split_prime
from .errors import InternalInvariantError, RequirementError
from .matgroup import MatrixGroup
from .record import Record, ValueRecord


class FractionalExpression(ValueRecord):
    """The data (1/r)(a_1,...,a_n): order, sorted eigenvalue exponents,
    the dimension of the fixed subspace, and primitivity of the vector."""
    __slots__ = ("r", "exponents")
    def __init__(self, r: int, exponents: tuple[int, ...]):
        self.r = r
        self.exponents = exponents

    def __hash__(self):
        return hash((self.r, self.exponents))

    @property
    def age(self) -> int:
        age, rest = divmod(sum(self.exponents), self.r)
        if rest:
            raise RequirementError(f"age {Fraction(sum(self.exponents), self.r)} "
                                   "is not an integer; element is not in SL")
        return age

    @property
    def fix_dim(self) -> int:
        return sum(1 for a in self.exponents if a == 0)

    @property
    def primitive(self) -> bool:
        return gcd(self.r, *self.exponents) == 1

    def __str__(self):
        return f"(1/{self.r})({','.join(map(str, self.exponents))})"


def power_sum_miss(group: MatrixGroup, index: int, r: int, exponents, ks):
    """The first k in `ks` with sum_a zeta_r^(k a) != Tr(g^k), g of order r
    with the `exponents` a, compared on integers in Q(zeta_lcm(N, r)), or None."""
    field = cyclotomic_field(lcm(group.field.order, r))
    for k in ks:
        power_sum = field.element(Counter(field.order // r * k * a for a in exponents))
        if power_sum.nums != field.embed(group.trace(group.power(index, k)), group.field):
            return k


def _walk_exponents(group: MatrixGroup, walk) -> list[int]:
    """The exponents a, ascending with multiplicity, of the eigenvalues
    zeta_R^a of x = walk[1], R = len(walk), from p_i = Tr(x^i) = Tr(walk[i]).
    The eigenvalue 1 has multiplicity m = (p_0 + ... + p_(R-1)) / R, taken
    as 0 unless that is an integer in [0, n].  Newton's identities give the
    polynomial t^d + c_1 t^(d-1) + ... + c_d, d = n - m, of the others from
    q_i = p_i - m, c_0 = 1: k c_k = -(c_(k-1) q_1 + ... + c_0 q_k), where
    q_(i+R) = q_i folds the terms i >= R into (R + d - k) c_(k-R); Horner's
    rule divides out each R-th root but 1 while it is a root.  Both run
    modulo the split prime P of L = lcm(N, R), into which mu_L maps
    injectively; the exact power sums k = 1..min(d, R - 1), which fix the
    polynomial, certify the n roots."""
    n, R = group.dimension, len(walk)
    p = [group.trace(y) for y in walk]
    first, *rest = map(sum, zip(*p))  # the trace total, column by column
    m = first // R if first % R == 0 and 0 <= first <= n * R and not any(rest) else 0
    d, N, L = n - m, group.field.order, lcm(group.field.order, R)
    prime, omega = split_prime(cyclotomic_field(L).order)  # the field cap first
    powers = [pow(omega, L // N * k, prime) for k in range(group.field.degree)]
    q = [(sum(c * w for c, w in zip(t, powers)) - m) % prime for t in p[:d + 1]]
    coeffs = [1]  # c_0
    for k in range(1, d + 1):
        s = sum((coeffs[k - i] * q[i] for i in range(1, min(k, R))),
                q[k] if k < R else (R + d - k) * coeffs[k - R])
        coeffs.append(-s * pow(k, -1, prime) % prime)
    exponents, a = [0] * m, 1
    while len(coeffs) > 1 and a < R:  # coeffs[0] = 1 leads
        z = pow(omega, L // R * a, prime)
        *quotient, rest = accumulate(coeffs[1:], lambda b, c: (b * z + c) % prime, initial=1)
        if rest:
            a += 1
        else:
            exponents.append(a)
            coeffs = quotient
    if len(exponents) != n:
        raise InternalInvariantError(
            f"the characteristic polynomial of element {group.describe(walk[1])} "
            f"has {len(exponents)} of its {n} roots among the {R}-th roots of unity")
    if (k := power_sum_miss(group, walk[1], R, exponents,
                            range(1, min(d, R - 1) + 1))) is not None:
        raise InternalInvariantError(
            f"the roots found modulo the split prime for element {group.describe(walk[1])}, "
            f"raised to the power {k}, do not sum to the trace of its power {k}")
    return exponents


def eigen_exponents(group: MatrixGroup, index: int) -> FractionalExpression:
    """Exponents (with multiplicity) of the element's eigenvalues as powers of
    zeta_r = zeta_L^(L/r), r its order, L = lcm(N, r), zeta_L^(L/N) = zeta_N
    of the group's field; read from the characteristic polynomial of its
    walk, built once per walk and kept in `group.walk_exponents`."""
    walk, k = group.places[index]
    R, x = len(walk), walk[1 % len(walk)]
    known = group.walk_exponents
    if x not in known:  # x == 0 only for e, whose eigenvalues are 1
        known[x] = _walk_exponents(group, walk) if x else [0] * group.dimension
    g = gcd(R, k)
    r = R // g
    exponents = sorted(a * k % R // g for a in known[x])
    if power_sum_miss(group, index, r, exponents, (1,)) is not None:
        raise InternalInvariantError(f"the eigenvalues derived for element "
                                     f"{group.describe(index)} do not sum to its trace")
    return FractionalExpression(r, tuple(exponents))


class ClassGrading(Record):
    __slots__ = ("class_id", "representative", "size", "expression", "age")
    def __init__(self, class_id: int, representative: int, size: int,
                 expression: FractionalExpression, age: int):
        self.class_id = class_id
        self.representative = representative
        self.size = size
        self.expression = expression
        self.age = age


class GradedClassTable(Record):
    __slots__ = ("group", "classes", "buckets", "gamma1_zero")
    def __init__(self, group: MatrixGroup, classes: list[ClassGrading],
                 buckets: dict[int, list[int]], gamma1_zero: list[int]):
        self.group = group
        self.classes = classes
        self.buckets = buckets  # age -> class ids
        self.gamma1_zero = gamma1_zero  # junior class ids with fix_dim = 0


def grade(group: MatrixGroup) -> GradedClassTable:
    """Grade every conjugacy class by the age of its representative (one
    characteristic polynomial per walk), asserting that all members share
    its fractional expression: a function of r and Tr(g^k), k < r, so
    members are compared on those, in the group's field."""
    if not group.in_sl:
        raise RequirementError("grading requires a subgroup of SL(n, C)")

    def power_traces(x):  # its length is the order of x
        return [group.trace(group.power(x, k)) for k in range(group.orders[x])]

    gradings = []
    buckets: dict[int, list[int]] = {}
    gamma1_zero = []
    for k, cls in enumerate(group.classes):
        expr = eigen_exponents(group, cls.representative)
        expected = power_traces(cls.representative) if len(cls) > 1 else None
        for member in cls.members:
            if member != cls.representative and power_traces(member) != expected:
                raise InternalInvariantError(
                    f"conjugacy class {k} is not age-constant: its member "
                    f"{group.describe(member)} differs from its representative "
                    f"{group.describe(cls.representative)}"
                )
        age = expr.age
        gradings.append(ClassGrading(k, cls.representative, len(cls.members), expr, age))
        buckets.setdefault(age, []).append(k)
        if age == 1 and expr.fix_dim == 0:
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
        j = group.class_of[group.inverses[rep]]
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
        mapping[class_id] = group.class_of[group.inverses[rep]]
    if sorted(mapping.values()) != sorted(table.buckets.get(2, [])):
        raise InternalInvariantError(
            "g -> g^-1 does not map junior isolated-fixed-point classes "
            f"bijectively onto the age-2 classes: {_unpaired_class(table)}"
        )
    return mapping


class BettiPrediction(Record):
    __slots__ = ("h0", "h2", "h4")
    def __init__(self, h0: int, h2: int, h4: int):
        self.h0 = h0
        self.h2 = h2
        self.h4 = h4

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
