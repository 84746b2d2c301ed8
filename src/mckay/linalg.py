"""Exact dense linear algebra over a cyclotomic field.

Matrices are tuples of row tuples of CycNum.  An integer row is the tuple
of the normal forms (nums, den) of its entries.  The closure's kernel
`RightMultiplier` maps an integer row to its product with a fixed matrix,
one call of the integer kernel `cyclo._dot` per entry; the matrix's
numerator terms are taken once, and the row's are passed in by the
caller.  `det`, `rref` and `mat_inv`
run on one elimination, `_eliminate`, which inverts a pivot only when an
entry must be divided by it.
"""

from __future__ import annotations

from .cyclo import CyclotomicField, CycNum, _dot, _terms

Matrix = tuple[tuple[CycNum, ...], ...]
IntRow = tuple[tuple[tuple[int, ...], int], ...]


def identity(field: CyclotomicField, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def row_terms(row: IntRow) -> list:
    """Each entry (nums, den) of an integer row as (den, numerator terms),
    or None for zero: the left operand of `RightMultiplier`."""
    return [(den, _terms(nums)) if any(nums) else None for nums, den in row]


class RightMultiplier:
    """The kernel row -> row * b for a fixed matrix b, on integer rows.
    Each column of b is kept as its nonzero entries (row, denominator,
    numerator terms), or, if its only nonzero entry is 1, as that row's
    index: the product then copies the entry's pair."""

    __slots__ = ("field", "columns")

    def __init__(self, b: Matrix):
        self.field = b[0][0].field
        columns = []
        for column in zip(*b):
            nonzero = [(k, y) for k, y in enumerate(column) if y]
            if len(nonzero) == 1 and nonzero[0][1] == 1:
                columns.append(nonzero[0][0])
            else:
                columns.append(tuple((k, y.den, _terms(y.nums)) for k, y in nonzero))
        self.columns = tuple(columns)

    def __call__(self, row: IntRow, left: list) -> IntRow:
        """The integer row `row` * b, given `left = row_terms(row)`."""
        field = self.field
        return tuple(
            row[column] if column.__class__ is int else
            _dot(field, [(left[k][0] * den, left[k][1], right)
                         for k, den, right in column if left[k]])
            for column in self.columns
        )


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


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    field = a[0][0].field
    aug = tuple(row + ident_row for row, ident_row in zip(a, identity(field, n)))
    echelon, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in echelon)
