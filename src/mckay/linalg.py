"""Exact dense linear algebra over a cyclotomic field.

Matrices are tuples of row tuples of CycNum.  Each product entry is one
call of the integer kernel `cyclo._dot`, and `RightMultiplier` extracts the
numerator terms of a fixed right factor once.  `det`, `rref`,
`kernel_basis` and `mat_inv` run on one elimination, `_eliminate`, which
inverts a pivot only when an entry must be divided by it.
"""

from __future__ import annotations

from .cyclo import CyclotomicField, CycNum, _dot, _terms
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


def _eliminate(rows: list[list[CycNum]], reduced: bool):
    """Gaussian elimination on `rows`, in place, column by column.  For
    each pivot it finds it yields (column, pivot, whether a row swap brought
    it up), and then clears the pivot's column: below the pivot only, or,
    if `reduced`, also above it, after scaling the pivot row to a leading 1,
    which leaves the reduced row echelon form.  A pivot is inverted only
    when an entry must be divided by it: not when it is 1 or alone in its
    row, and in the forward pass not when no row below needs clearing."""
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot, tail = rows[r][c], rows[r][c + 1:]
        yield c, pivot, p != r
        targets = [i for i in range(0 if reduced else r + 1, len(rows))
                   if i != r and rows[i][c]]
        if pivot != 1 and any(tail) and (reduced or targets):
            inverse = pivot.inverse()
            tail = [x * inverse for x in tail]
        if reduced:
            rows[r][c:] = [pivot.field.one(), *tail]
        for i in targets:  # row i minus rows[i][c] times the scaled pivot row
            f, row = rows[i][c], rows[i]
            row[c:] = [pivot.field.zero(), *(x - f * y if y else x
                                             for x, y in zip(row[c + 1:], tail))]
        r += 1


def det(a: Matrix) -> CycNum:
    """The product of the forward pass's pivots, up to the sign of its row
    swaps; it stops at the first column without a pivot."""
    result, rank = a[0][0].field.one(), 0
    for c, pivot, swapped in _eliminate([list(row) for row in a], False):
        if c != rank:
            break
        result = -(result * pivot) if swapped else result * pivot
        rank += 1
    return result if rank == len(a) else a[0][0].field.zero()


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with lexicographic pivot order."""
    rows = [list(row) for row in a]
    pivots = tuple(c for c, _, _ in _eliminate(rows, True))
    return tuple(tuple(row) for row in rows), pivots


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
