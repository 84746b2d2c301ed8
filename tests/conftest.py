import pathlib
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm

from mckay.cyclo import CycNum, _terms, cyclotomic_field
from mckay.groupfile import parse_group_file
from mckay.linalg import RightMultiplier
from mckay.matgroup import close_group

GROUPS_DIR = pathlib.Path(__file__).resolve().parents[1] / "groups"

CORPUS = [
    "bd8",
    "bd12",
    "bt48",
    "trihedral27",
    "icosahedral60",
    "cyclic_7_124",
    "terminal_5_1423",
]

_closed = {}
_graded = {}


def group_path(name):
    return GROUPS_DIR / f"{name}.grp"


def identity(field, n):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def trace(a):
    return sum((a[i][i] for i in range(len(a))), a[0][0].field.zero())


def sparse(a):
    """A matrix of CycNum as the sparse rows of `linalg`."""
    return tuple(tuple((j, x.nums, x.den) for j, x in enumerate(row) if x) for row in a)


def dense(field, rows, n=None):
    """Sparse rows as a matrix of CycNum with n columns, n = len(rows) by
    default; each stored entry must be a nonzero normal form."""
    zero = field.zero()
    out = []
    for row in rows:
        entries = [zero] * (len(rows) if n is None else n)
        for j, nums, den in row:
            entries[j] = CycNum(field, nums, den)
            assert (entries[j].nums, entries[j].den) == (nums, den) and entries[j]
        out.append(tuple(entries))
    return tuple(out)


def element_matrix(group, i):
    """The matrix of element i, rebuilt from its rows in `group.rows`."""
    return dense(group.field, [group.rows[r] for r in group.elements[i]])


def close(generators, **kwargs):
    """`close_group` on matrices of CycNum over one field."""
    return close_group(generators[0][0][0].field, [sparse(g) for g in generators],
                       **kwargs)


def close_spec(spec, **kwargs):
    """`close_group` on the generators of a `DiagonalGroupSpec`."""
    return close_group(cyclotomic_field(spec.exponent_vectors()[0]), spec.matrices(),
                       **kwargs)


def mat_mul(a, b):
    """The matrix product a * b through the closure's row kernel
    `linalg.RightMultiplier`, one sparse row of a at a time; `dense` checks
    that each entry the kernel returns is a nonzero normal form."""
    field = b[0][0].field
    times_b = RightMultiplier(field, sparse(b))
    return dense(field, [times_b(row, [(den, _terms(nums)) for _, nums, den in row])
                         for row in sparse(a)], len(b[0]))


def inverse(x):
    """x^-1 as the product of the Galois conjugates of x other than x,
    over its norm, the rational product of all of them: CycNum products
    only, since the package has no field inverse."""
    if not x:
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    field, others = x.field, x.field.one()
    for a in range(2, field.order):
        if gcd(a, field.order) == 1:
            others = others * field.element(
                {a * k: c for k, c in enumerate(x.nums)}, x.den)
    return others * (1 / Fraction((x * others).as_rational()))


@lru_cache(maxsize=None)
def oracle_cyclotomic_polynomial(order):
    """Phi_order, ascending, by exact division of x^order - 1 by the
    product of Phi_d over the proper divisors d, recursively."""
    den = [1]
    for d in range(1, order):
        if order % d == 0:
            phi_d, product = oracle_cyclotomic_polynomial(d), den
            den = [0] * (len(product) + len(phi_d) - 1)
            for i, a in enumerate(product):
                if a:
                    for j, b in enumerate(phi_d):
                        den[i + j] += a * b
    num = [-1] + [0] * (order - 1) + [1]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):  # den is monic
        out[k] = q = num[k + len(den) - 1]
        for j, b in enumerate(den):
            num[k + j] -= q * b
    assert not any(num), "x^order - 1 is not divisible by the product"
    return tuple(out)


def oracle_walk_exponents(group, walk):
    """The exponents of the eigenvalues zeta_R^a of x = walk[1], R =
    len(walk), by the exact search `age._walk_exponents` replaced: Newton's
    identities and Horner's rule on CycNum values with Fraction factors in
    Q(zeta_lcm(N, R)).  None where the polynomial does not split into n
    roots among the R-th roots of unity."""
    n, R = group.dimension, len(walk)
    p = [CycNum(group.field, group.trace(y)) for y in walk]
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
        for c in coeffs[1:]:
            quotient.append(c + quotient[-1] * z)
        if quotient.pop():
            a += 1
        else:
            exponents.append(a)
            coeffs = quotient
    return exponents if len(exponents) == n else None


def oracle_det(a):
    """Leibniz formula: the sum over permutations, no division."""
    n = len(a)
    total = a[0][0].field.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = a[0][0].field.one() if inversions % 2 == 0 else -a[0][0].field.one()
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


def oracle_rref(a):
    """Gauss-Jordan that inverts every pivot by `inverse`: the reduced row
    echelon form and its pivot columns."""
    rows = [list(row) for row in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inverse(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_mat_inv(a):
    """The inverse of an invertible matrix: `oracle_rref` of [a | I]."""
    n = len(a)
    echelon, pivots = oracle_rref(tuple(
        row + e for row, e in zip(a, identity(a[0][0].field, n))))
    assert pivots[:n] == tuple(range(n)), "matrix is singular"
    return tuple(row[n:] for row in echelon)


def closed_group(name):
    if name not in _closed:
        _closed[name] = parse_group_file(group_path(name)).close()
    return _closed[name]


def graded_table(name):
    from mckay.age import grade

    if name not in _graded:
        _graded[name] = grade(closed_group(name))
    return _graded[name]


ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
