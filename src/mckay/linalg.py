"""Exact dense linear algebra over a cyclotomic field, without division.

Matrices are tuples of row tuples of CycNum.  An integer row is the tuple
of the normal forms (nums, den) of its entries.  The closure's kernel
`RightMultiplier` maps an integer row to its product with a fixed matrix,
one call of the integer kernel `cyclo._dot` per entry; the matrix's
numerator terms are taken once, and the row's are passed in by the
caller.  The one computation that divides, the determinant, runs modulo a
split prime of the field (`cyclo.split_prime`), on integers: `det_image`.
"""

from __future__ import annotations

from operator import mul

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


def det_image(a: Matrix, prime: int, omega: int) -> int:
    """The image of det(a) in F_prime under zeta -> omega, by Gaussian
    elimination mod `prime`: no field element is inverted.  Raises
    ValueError if `prime` divides the denominator of an entry."""
    powers = [pow(omega, k, prime) for k in range(a[0][0].field.degree)]
    rows = [[sum(map(mul, x.nums, powers)) * pow(x.den, -1, prime) % prime
             if any(x.nums) else 0 for x in row] for row in a]
    result = 1
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            result = -result
        pivot = rows[c]
        result = result * pivot[c] % prime
        for row in rows[c + 1:]:
            if row[c]:
                f = row[c] * pow(pivot[c], -1, prime) % prime
                row[c:] = [(x - f * y) % prime for x, y in zip(row[c:], pivot[c:])]
    return result % prime
