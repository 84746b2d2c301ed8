"""Monomial valuations and their stabilizer / ramification subgroups.

An element g of order r, diagonalized exactly over Q(zeta_lcm(N, r)) with
Q(zeta_N) the group's field, yields the weighting
beta = (b_1,...,b_n) on its eigencoordinates and the monomial valuation
x_i -> b_i.  A group element lies in the stabilizer iff it is block
diagonal with respect to the equal-weight eigenspace decomposition, and in
the ramification group iff it acts as diag(eps^{b_1},...,eps^{b_n}) for a
single root of unity eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .age import FractionalExpression, eigen_exponents
from .cyclo import cyclotomic_field
from .errors import InternalInvariantError, RequirementError
from .matgroup import MatrixGroup


@dataclass
class EigenDecomposition:
    element_index: int
    expression: FractionalExpression
    basis: linalg.Matrix  # eigenvector columns by exponent, over Q(zeta_lcm(N, r))
    basis_inverse: linalg.Matrix
    exponents: tuple[int, ...]  # aligned with the basis columns
    blocks: list[list[int]]  # column indices grouped by equal weight
    filtration: list[list[int]]  # nested index sets by increasing weight


@dataclass
class MonomialValuation:
    weights: tuple[int, ...]  # primitive, in the eigenbasis order
    source_index: int
    ramification_degree: int
    decomposition: EigenDecomposition


def eigen_decompose(group: MatrixGroup, index: int) -> EigenDecomposition:
    """Exact eigendecomposition via kernels of (g - zeta_r^a * I), with g
    embedded into Q(zeta_lcm(N, r)); kernel dimensions are cross-checked
    against the trace-formula multiplicities."""
    expr = eigen_exponents(group, index)
    r = group.elements[index].order
    field = cyclotomic_field(lcm(group.field.order, r))
    entries = linalg.mat_embed(group.elements[index].entries, field)
    step = field.order // r
    n = group.dimension
    columns = []
    exps = []
    for a in sorted(set(expr.exponents)):
        eigval = field.zeta(step * a)
        shifted = tuple(
            tuple(
                entries[i][j] - (eigval if i == j else field.zero())
                for j in range(n)
            )
            for i in range(n)
        )
        kernel = linalg.kernel_basis(shifted)
        expected = sum(1 for e in expr.exponents if e == a)
        if len(kernel) != expected:
            raise InternalInvariantError(
                f"kernel dimension {len(kernel)} for exponent {a} does not "
                f"match trace-formula multiplicity {expected}"
            )
        for vec in kernel:
            columns.append(vec)
            exps.append(a)
    basis = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
    basis_inverse = linalg.mat_inv(basis)
    # sanity: g * v = eigval * v for each column
    for j, a in enumerate(exps):
        eigval = field.zeta(step * a)
        image = linalg.mat_vec(entries, tuple(col[j] for col in basis))
        for i in range(n):
            if image[i] != eigval * basis[i][j]:
                raise InternalInvariantError("eigenvector verification failed")
    weights = _primitivize(exps)
    blocks = []
    filtration = []
    seen: list[int] = []
    for b in sorted(set(weights)):
        block = [j for j, w in enumerate(weights) if w == b]
        blocks.append(block)
        seen = seen + block
        filtration.append(list(seen))
    return EigenDecomposition(
        index, expr, basis, basis_inverse, tuple(exps), blocks, filtration
    )


def _primitivize(exponents) -> tuple[int, ...]:
    g = 0
    for a in exponents:
        g = gcd(g, a)
    if g == 0:
        raise RequirementError("zero weight vector is not a valuation")
    return tuple(a // g for a in exponents)


def monomial_valuation(group: MatrixGroup, index: int) -> MonomialValuation:
    """The monomial valuation attached to a group element through its
    eigenvalue exponents, primitivized to a lattice-primitive weighting."""
    decomposition = eigen_decompose(group, index)
    weights = _primitivize(decomposition.exponents)
    return MonomialValuation(
        weights, index, group.elements[index].order, decomposition
    )


def monomial_valuation_from_weights(
    group: MatrixGroup, weights: tuple[int, ...]
) -> MonomialValuation:
    """A monomial valuation in the standard coordinates, for weightings not
    tied to a group element (the eigenbasis is the identity)."""
    if len(weights) != group.dimension or any(w < 0 for w in weights):
        raise RequirementError("weights must be nonnegative of length n")
    weights = _primitivize(weights)
    ident = linalg.identity(group.field, group.dimension)
    decomposition = EigenDecomposition(
        0, eigen_exponents(group, 0), ident, ident, weights, [], []
    )
    return MonomialValuation(weights, 0, 1, decomposition)


def _in_eigenbasis(group: MatrixGroup, v: MonomialValuation, h: int) -> linalg.Matrix:
    d = v.decomposition
    entries = linalg.mat_embed(group.elements[h].entries, d.basis[0][0].field)
    return linalg.mat_mul(d.basis_inverse, linalg.mat_mul(entries, d.basis))


def stab_group(group: MatrixGroup, v: MonomialValuation) -> list[int]:
    """Elements preserving the equal-weight eigenspace decomposition,
    i.e. block diagonal in the eigenbasis; verified to form a subgroup."""
    weights = v.weights
    n = group.dimension
    members = []
    for h in range(len(group.elements)):
        m = _in_eigenbasis(group, v, h)
        if all(
            not m[i][j]
            for i in range(n)
            for j in range(n)
            if weights[i] != weights[j]
        ):
            members.append(h)
    member_set = set(members)
    for a in members:
        if group.inv(a) not in member_set:
            raise InternalInvariantError("stabilizer is not closed under inverse")
        for b in members:
            if group.mul(a, b) not in member_set:
                raise InternalInvariantError("stabilizer is not closed under product")
    return members


@dataclass
class RamificationGroup:
    members: list[int]
    generator: int
    degree: int


def ram_group(group: MatrixGroup, v: MonomialValuation) -> RamificationGroup:
    """The cyclic subgroup acting as diag(eps^{b_1},...,eps^{b_n}) in the
    eigenbasis; raises if the computed set fails to be cyclic."""
    weights = v.weights
    n = group.dimension
    field = v.decomposition.basis[0][0].field
    one = field.one()
    members = []
    # Bezout combination picking out eps from the diagonal entries
    nonzero = [i for i in range(n) if weights[i]]
    for h in range(len(group.elements)):
        m = _in_eigenbasis(group, v, h)
        if any(m[i][j] for i in range(n) for j in range(n) if i != j):
            continue
        diag = [m[i][i] for i in range(n)]
        if any(diag[i] != one for i in range(n) if weights[i] == 0):
            continue
        eps = _bezout_root(diag, weights, nonzero, field)
        if all(diag[i] == eps ** weights[i] for i in nonzero):
            members.append(h)
    ram = sorted(members)
    generator = next(
        (h for h in ram if group.cyclic_subgroup(h) == set(ram)), None
    )
    if generator is None:
        raise InternalInvariantError("ramification group is not cyclic")
    return RamificationGroup(ram, generator, len(ram))


def _bezout_root(diag, weights, nonzero, field):
    # find integers x_i with sum x_i * b_i = 1 over the nonzero weights
    coeffs = {}
    g, acc = 0, {}
    for i in nonzero:
        if g == 0:
            g, coeffs = weights[i], {i: 1}
        else:
            new_g, x, y = _ext_gcd(g, weights[i])
            coeffs = {k: v * x for k, v in coeffs.items()}
            coeffs[i] = coeffs.get(i, 0) + y
            g = new_g
    if g != 1:  # weights are primitive, so this cannot happen
        raise InternalInvariantError("weight vector is not primitive")
    eps = field.one()
    for i, x in coeffs.items():
        eps = eps * (diag[i] ** x if x >= 0 else diag[i].inverse() ** (-x))
    return eps


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def quotient_discrepancy(a_f, r: int) -> Fraction:
    """Discrepancy downstairs: (a_F - (r - 1)) / r for ramification degree r."""
    if r < 1:
        raise RequirementError("ramification degree must be >= 1")
    return Fraction(Fraction(a_f) - (r - 1), r)


def diagonal_exponents(group: MatrixGroup, index: int) -> tuple[int, ...]:
    """Exponents e_i with entry_ii = zeta_L^{e_i} for a diagonal element."""
    element = group.elements[index]
    n = group.dimension
    field = group.field
    if any(element.entries[i][j] for i in range(n) for j in range(n) if i != j):
        raise RequirementError("element is not diagonal")
    out = []
    for i in range(n):
        entry = element.entries[i][i]
        for k in range(field.order):
            if entry == field.zeta(k):
                out.append(k)
                break
        else:
            raise RequirementError("diagonal entry is not a power of zeta")
    return tuple(out)


def valuation_fingerprint(
    group: MatrixGroup, index: int, probe_degree: int
) -> dict[tuple[int, ...], int]:
    """Values of the restricted valuation v_g on all G-invariant monomials
    of total degree <= probe_degree (diagonal groups only)."""
    if probe_degree < 1:
        raise RequirementError("probe degree must be >= 1")
    n = group.dimension
    L = group.field.order
    generator_exps = [
        diagonal_exponents(group, i) for i in group.generator_indices
    ]
    g_exps = diagonal_exponents(group, index)
    r = group.elements[index].order
    # exponents of g as powers of zeta_r
    step = L // r
    a = tuple(e // step for e in g_exps)
    if any(e % step for e in g_exps):
        raise InternalInvariantError("diagonal exponents inconsistent with order")
    b = _primitivize(a)
    fingerprint = {}
    for m in _monomials(n, probe_degree):
        if all(
            sum(mi * ei for mi, ei in zip(m, exps)) % L == 0
            for exps in generator_exps
        ):
            value = Fraction(sum(mi * bi for mi, bi in zip(m, b)), r)
            fingerprint[m] = (
                value.numerator if value.denominator == 1 else value
            )
    return fingerprint


def _monomials(n: int, max_degree: int):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + (k,), remaining - k, slots - 1)

    for total in range(1, max_degree + 1):
        yield from rec((), total, n)
