"""Exact McKay-correspondence computations for finite subgroups of SL(n, C).

Age gradings of conjugacy classes, crepant divisor counts, predicted Betti
and Euler numbers, toric resolutions of abelian quotients, monomial-valuation
ramification groups, and folded ADE resolution graphs for n = 2.
"""

from .age import (
    BettiPrediction,
    FractionalExpression,
    GradedClassTable,
    betti_prediction,
    eigen_exponents,
    fix_junior_check,
    grade,
    inverse_bijection,
)
from .cyclo import (
    CycNum,
    CyclotomicField,
    cyclotomic_field,
    cyclotomic_polynomial,
    parse_literal,
)
from .errors import (
    ClosureCapError,
    FieldCapError,
    GroupFileError,
    InternalInvariantError,
    McKayError,
    ProbeCapError,
    RequirementError,
)
from .groupfile import GroupFile, parse_group_file, parse_group_text
from .matgroup import MatrixGroup, close_group
from .quiver import fold, junior_chains, to_dot
from .toric import (
    DiagonalGroupSpec,
    OverLattice,
    build_lattice,
    condition_i,
    crepant_divisor_count,
    discrepancy,
    gamma2_hyperplane_count,
    junior_points,
    resolve,
)
from .valuation import (
    MonomialValuation,
    monomial_valuation,
    quotient_discrepancy,
    ram_group,
    stab_group,
    valuation_fingerprint,
)

__version__ = "0.1.0"
