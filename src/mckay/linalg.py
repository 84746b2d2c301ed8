"""Exact dense linear algebra over a cyclotomic field.

Matrices are tuples of row tuples of CycNum.  Everything here is fraction-free
in spirit but not in implementation: entries are exact, so plain Gaussian
elimination with division is fine at the sizes this library sees (n <= 4).
"""

from __future__ import annotations

from .cyclo import CyclotomicField, CycNum

Matrix = tuple[tuple[CycNum, ...], ...]


def identity(field: CyclotomicField, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), row[0].field.zero()) for col in bt)
        for row in a
    )


def mat_vec(a: Matrix, v: tuple[CycNum, ...]) -> tuple[CycNum, ...]:
    return tuple(sum((x * y for x, y in zip(row, v)), row[0].field.zero()) for row in a)


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
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col]:
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
