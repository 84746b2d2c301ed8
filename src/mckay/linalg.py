"""Exact dense linear algebra over a cyclotomic field.

Matrices are tuples of row tuples of CycNum.  A product entry is computed
in integers: the products x*y of its row and column are put over one
common denominator, their numerators are convolved into one buffer, the
buffer is reduced modulo Phi_R once, and one CycNum is built from it.
`RightMultiplier` keeps the nonzero numerator terms of a fixed right
factor, so a closure multiplying many rows by one generator extracts
them once.  Elimination (`det`, `rref`) divides by pivots; entries are
exact and the sizes this library sees are small (n <= 4).
"""

from __future__ import annotations

from math import lcm

from .cyclo import CyclotomicField, CycNum
from .errors import RequirementError

Matrix = tuple[tuple[CycNum, ...], ...]


def identity(field: CyclotomicField, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def _field_of(a: Matrix) -> CyclotomicField:
    field = a[0][0].field
    for row in a:
        for x in row:
            if x.field is not field:
                raise RequirementError(f"field mismatch: {field} vs {x.field}")
    return field


def _terms(x: CycNum) -> tuple[tuple[int, int], ...]:
    """The nonzero numerators of x as (power of zeta, integer) pairs."""
    return tuple((i, c) for i, c in enumerate(x.nums) if c)


def _dot(field: CyclotomicField, pairs) -> CycNum:
    """sum of x*y over `pairs` of (x.den * y.den, terms of x, terms of y):
    every product over the lcm of the denominators, one convolution buffer,
    one reduction modulo Phi_R."""
    if not pairs:
        return field.zero()
    den = lcm(*(d for d, _, _ in pairs))
    conv = [0] * (2 * field.degree - 1)
    for d, left, right in pairs:
        scale = den // d
        for i, a in left:
            a *= scale
            for j, b in right:
                conv[i + j] += a * b
    return CycNum(field, field.reduce(conv), den)


class RightMultiplier:
    """The map a -> a*b for a fixed matrix b.  Each column of b is kept as
    its nonzero entries (row, denominator, numerator terms)."""

    __slots__ = ("field", "columns")

    def __init__(self, b: Matrix):
        self.field = _field_of(b)
        self.columns = tuple(
            tuple((k, y.den, _terms(y)) for k, y in enumerate(column) if y)
            for column in zip(*b)
        )

    def __call__(self, a: Matrix) -> Matrix:
        field = self.field
        if _field_of(a) is not field:
            raise RequirementError(f"field mismatch: {a[0][0].field} vs {field}")
        out = []
        for row in a:
            left = [(x.den, _terms(x)) if x else None for x in row]
            out.append(tuple(
                _dot(field, [(left[k][0] * den, left[k][1], right)
                             for k, den, right in column if left[k]])
                for column in self.columns
            ))
        return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return RightMultiplier(b)(a)


def trace(a: Matrix) -> CycNum:
    return sum((a[i][i] for i in range(len(a))), a[0][0].field.zero())


def det(a: Matrix) -> CycNum:
    n = len(a)
    field = a[0][0].field
    m = [list(row) for row in a]
    result = field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return field.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result = result * m[col][col]
        inv = None  # the pivot is inverted only if a row below needs it
        for r in range(col + 1, n):
            if m[r][col]:
                if inv is None:
                    inv = m[col][col].inverse()
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] = m[r][c] - f * m[col][c]
    return result


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with lexicographic pivot order."""
    rows = [list(row) for row in a]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
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


def kernel_basis(a: Matrix) -> list[tuple[CycNum, ...]]:
    """Basis of the right kernel, deterministic (free columns in order)."""
    field = a[0][0].field
    echelon, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for r, p in enumerate(pivots):
            v[p] = -echelon[r][f]
        basis.append(tuple(v))
    return basis


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    field = a[0][0].field
    aug = tuple(row + ident_row for row, ident_row in zip(a, identity(field, n)))
    echelon, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in echelon)


def mat_embed(a: Matrix, target: CyclotomicField) -> Matrix:
    return tuple(tuple(x.embed(target) for x in row) for row in a)
