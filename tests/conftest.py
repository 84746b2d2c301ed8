import pathlib
from fractions import Fraction
from itertools import permutations
from math import gcd

from mckay.cyclo import CycNum
from mckay.groupfile import parse_group_file
from mckay.linalg import RightMultiplier, identity, row_terms

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


def mat_mul(a, b):
    """The matrix product a * b through the closure's row kernel
    `linalg.RightMultiplier`, one integer row of a at a time; each entry the
    kernel returns must already be in normal form."""
    times_b, field = RightMultiplier(b), b[0][0].field
    out = []
    for row in a:
        pairs = tuple((x.nums, x.den) for x in row)
        product = times_b(pairs, row_terms(pairs))
        out.append(tuple(CycNum(field, *pair) for pair in product))
        assert tuple((x.nums, x.den) for x in out[-1]) == product
    return tuple(out)


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
