"""Monomial valuations and their stabilizer / ramification subgroups.

An element g of order r has the eigenvalues zeta_r^(a_i), and its exponents
a_i are read off the characteristic polynomial of its power walk (`age`),
checked against the power sums Tr(g^k).  They yield the weighting
beta = (b_1,...,b_n) on g's eigencoordinates, the exponents divided by their
gcd, and the monomial valuation x_i -> b_i.  No eigenbasis is computed.

The stabilizer is the set of elements block diagonal with respect to the
equal-weight blocks.  Equal weights are equal exponents, so the
blocks are exactly the eigenspaces of g, and an element preserves every
eigenspace of the diagonalizable g iff it commutes with g.  The stabilizer
is therefore the centralizer C_G(g), read from the group's multiplication
table without field arithmetic.  The ramification group Ram is the set of
elements acting as diag(eps^{b_1},...,eps^{b_n}) in g's eigenbasis for a
single root of unity eps.  Since lambda -> diag(lambda^b) is injective,
Ram is cyclic, and it contains g, so it lies in a maximal cyclic subgroup
<x> through g.  Ram is read off the power walks of those x with integers
only: on the eigenvectors of x, where x has the exponents a_i over its
order R and g = x^m, every power x^j is diagonal with exponents a_i j.

Since gcd(b) = 1, a diagonal d is such a diag(eps^b) iff
d_i^{b_j} = d_j^{b_i} for every pair i < j: both sides are eps^{b_i b_j},
and conversely integers x with sum x_j b_j = 1 give eps = prod d_j^{x_j}
with eps^{b_i} = prod (d_j^{b_i})^{x_j} = prod (d_i^{b_j})^{x_j} = d_i.
Without primitivity the converse fails: (1, -1) passes the pairs for
b = (2, 2) but is no (eps^2, eps^2).  A zero weight b_i forces
d_i^{b_j} = 1 for all j, hence d_i = 1, with no special case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

from .age import FractionalExpression, eigen_exponents
from .cyclo import cyclotomic_field
from .errors import InternalInvariantError, ProbeCapError, RequirementError
from .matgroup import MatrixGroup
from .toric import DiagonalGroupSpec

# Largest number of monomials a fingerprint enumerates; larger probe degrees
# are refused before any is generated.  At this limit a whole `ram` command
# took at most 0.62 s, for (1/2)(1,1,0) at probe 82, (1/2)(1,1) at probe 445
# and a 6-dimensional group of order 30 at probe 16 (Python 3.11 on a 2-core
# x86-64 host); at 200000 monomials it took 1.1-1.3 s.
MAX_PROBE_MONOMIALS = 100_000


def default_probe_degree(group: MatrixGroup) -> int:
    """The probe degree `ram` uses when none is given: the group exponent,
    lowered to the largest degree whose monomials fit MAX_PROBE_MONOMIALS
    (82 in dimension 3)."""
    n, degree = group.dimension, group.exponent
    while degree > 1 and comb(n + degree, n) - 1 > MAX_PROBE_MONOMIALS:
        degree -= 1
    return degree


@dataclass
class MonomialValuation:
    weights: tuple[int, ...]  # primitive, in the order of expression.exponents
    source_index: int
    expression: FractionalExpression


def _primitivize(exponents) -> tuple[int, ...]:
    g = gcd(*exponents)
    if g == 0:
        raise RequirementError("zero weight vector is not a valuation")
    return tuple(a // g for a in exponents)


def monomial_valuation(group: MatrixGroup, index: int,
                       by_generator: dict | None = None) -> MonomialValuation:
    """The monomial valuation attached to a group element through its
    eigenvalue exponents, primitivized to a lattice-primitive weighting;
    `by_generator` is as in `eigen_exponents`.

    The exponents a_i of g, of order r, must give the power sums
    sum_i zeta_r^(k a_i) = Tr(g^k) for k = 1..min(n, r - 1).  Both sides
    have period r in k and equal n at k = 0, so these k give p_1..p_n, and
    by Newton's identities p_1..p_n fix the multiset of n eigenvalues."""
    expr = eigen_exponents(group, index, by_generator)
    field = cyclotomic_field(lcm(group.field.order, expr.r))
    step = field.order // expr.r
    for k in range(1, min(group.dimension, expr.r - 1) + 1):
        power_sum = field.element(Counter(step * k * a for a in expr.exponents))
        if power_sum != group.elements[group.power(index, k)].trace().embed(field):
            raise InternalInvariantError(
                f"the eigenvalues derived for element {group.describe(index)}, "
                f"raised to the power {k}, do not sum to the trace of its "
                f"power {k}")
    return MonomialValuation(_primitivize(expr.exponents), index, expr)


def stab_group(group: MatrixGroup, v: MonomialValuation) -> list[int]:
    """Elements preserving the equal-weight block structure of the
    source element g of `v`.  These blocks are the eigenspaces of g, so the
    stabilizer is the centralizer C_G(g), found from the multiplication
    table; it is verified to form a subgroup.

    The check builds generators T greedily, each member not yet in <T>
    joining T, and closes <T> under right multiplication by T; every
    element reached must be a member.  Every member is reached, so the
    members form the subgroup <T>, at |S| * |T| products."""
    g = v.source_index
    members = [h for h in range(len(group)) if group.mul(h, g) == group.mul(g, h)]
    member_set = set(members)
    what = f"stabilizer of the valuation of element {group.describe(g)}"
    if 0 not in member_set:
        raise InternalInvariantError(f"{what} does not contain the identity")
    span, gens = {0}, []
    for a in members:
        if a in span:
            continue
        gens.append(a)
        # the elements already in <T> need only the new generator
        todo = [(x, a) for x in sorted(span)]
        while todo:
            x, t = todo.pop()
            y = group.mul(x, t)
            if y in span:
                continue
            if y not in member_set:
                raise InternalInvariantError(
                    f"{what} is not closed under product: it contains "
                    f"{group.describe(x)} and {group.describe(t)} but not "
                    f"their product"
                )
            span.add(y)
            todo.extend((y, t) for t in gens)
    return members


@dataclass
class RamificationGroup:
    members: list[int]
    generator: int
    degree: int


def ram_group(group: MatrixGroup, v: MonomialValuation,
              by_generator: dict | None = None) -> RamificationGroup:
    """The cyclic subgroup acting as diag(eps^{b_1},...,eps^{b_n}) in the
    eigenbasis of the source element g; raises if it fails to be cyclic.
    `by_generator` is as in `eigen_exponents`.

    For each maximal walk through g, with generator x of order R, g = x^m
    and a_i the exponents of x: g has the exponents a_i m mod R, whose
    primitivization b must be the valuation's weights (else an internal
    error naming g and x).  By the pairwise criterion x^j is in Ram iff
    j (a_i b_k - a_k b_i) = 0 mod R for every pair i < k, that is iff j is
    a multiple of s = R / gcd(R, all a_i b_k - a_k b_i).  Each walk gives
    the subgroup <x^s> of Ram, and the walk that contains Ram gives Ram."""
    g = v.source_index
    ram = set()
    for subgroup in group.maximal_cyclic_subgroups():
        if g not in subgroup.members:
            continue
        x = subgroup.generator
        walk = group.places[x][0]
        R, a = len(walk), eigen_exponents(group, x, by_generator).exponents
        b = _primitivize(tuple(ai * walk.index(g) % R for ai in a))
        if sorted(b) != sorted(v.weights):
            raise InternalInvariantError(
                f"element {group.describe(g)} has the weights "
                f"{tuple(sorted(b))} on the walk of {group.describe(x)}, not "
                f"the weights {tuple(sorted(v.weights))} of its valuation")
        cross = gcd(R, *(a[i] * b[k] - a[k] * b[i]
                         for i in range(len(a)) for k in range(i + 1, len(a))))
        ram.update(walk[::R // cross])
    ram = sorted(ram)
    generator = next((h for h in ram if group.cyclic_subgroup(h) == set(ram)), None)
    if generator is None:
        raise InternalInvariantError(f"ramification group of the valuation of "
                                     f"element {group.describe(g)} is not cyclic")
    return RamificationGroup(ram, generator, len(ram))


def quotient_discrepancy(a_f, r: int) -> Fraction:
    """Discrepancy downstairs: (a_F - (r - 1)) / r for ramification degree r."""
    if r < 1:
        raise RequirementError("ramification degree must be >= 1")
    return Fraction(Fraction(a_f) - (r - 1), r)


def valuation_fingerprint(
    spec: DiagonalGroupSpec, group: MatrixGroup, index: int, probe_degree: int
) -> dict[tuple[int, ...], int]:
    """Values of the restricted valuation v_g on all G-invariant monomials
    of total degree <= probe_degree, for `group` closed from `spec`, keyed
    in no set order.  Only integers are read: g's exponent vector is the
    spec's word vector of g, whose order must be the closure's."""
    if probe_degree < 1:
        raise RequirementError("probe degree must be >= 1")
    n = spec.n
    count = comb(n + probe_degree, n) - 1
    if count > MAX_PROBE_MONOMIALS:
        raise ProbeCapError(probe_degree, n, count, MAX_PROBE_MONOMIALS)
    L, generator_exps = spec.exponent_vectors()
    g_exps = spec.word_vector(group.runs(index))
    r, step = group.elements[index].order, gcd(L, *g_exps)
    if L // step != r:
        raise InternalInvariantError(
            f"exponent vector (1/{L}){g_exps} of element "
            f"{group.describe(index)} has order {L // step}"
        )
    # exponents of g as powers of zeta_r
    b = _primitivize(tuple(e // step for e in g_exps))
    fingerprint = {}
    # a monomial of degree d as the sorted d-tuple of its variables
    for degree in range(1, probe_degree + 1):
        for support in combinations_with_replacement(range(n), degree):
            if all(sum(e[i] for i in support) % L == 0 for e in generator_exps):
                m = [0] * n
                for i in support:
                    m[i] += 1
                v = Fraction(sum(b[i] for i in support), r)
                fingerprint[tuple(m)] = v.numerator if v.denominator == 1 else v
    return fingerprint
