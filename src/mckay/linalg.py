"""Exact sparse linear algebra over a cyclotomic field, without division.

A row is the tuple of its nonzero entries (column, nums, den), sorted by
column, each the normal form of a field element; a matrix is a tuple of
rows, which carry no field.  The closure's kernel `RightMultiplier` maps
a row to its product with a fixed matrix, one call of the integer kernel
`cyclo._dot` per nonzero output entry.  The determinant, the one
computation that divides, runs modulo a split prime of the field
(`cyclo.split_prime`), on integers: `det_image`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter, mul

from .cyclo import _dot, _terms


class RightMultiplier:
    """The kernel row -> row * b for a fixed matrix b, on sparse rows.
    Row k of b is kept as its entries (column, den, numerator terms), or
    (column, None, None) for an entry 1 that is the only nonzero entry of
    its column: the product then copies the left entry's pair there."""

    __slots__ = ("field", "rows")

    def __init__(self, field, b):
        self.field = field
        one = field.one().nums
        in_column = Counter(j for row in b for j, _, _ in row)
        self.rows = tuple(
            tuple((j, None, None) if in_column[j] == 1 and den == 1 and nums == one
                  else (j, den, _terms(nums)) for j, nums, den in row)
            for row in b)

    def __call__(self, row, left):
        """`row` * b, the sum of x * (row k of b) over the entries x of `row`
        at columns k, given `left`, those entries as (den, numerator terms)."""
        field, out, sums = self.field, [], defaultdict(list)
        for (k, nums, den), (dx, terms) in zip(row, left):
            for j, d, right in self.rows[k]:
                if right is None:
                    out.append((j, nums, den))
                else:
                    sums[j].append((dx * d, terms, right))
        for j, pairs in sums.items():
            nums, den = _dot(field, pairs)
            if any(nums):
                out.append((j, nums, den))
        out.sort(key=itemgetter(0))
        return tuple(out)


def det_image(field, a, prime: int, omega: int) -> int:
    """The image of det(a) in F_prime under zeta -> omega, by Gaussian
    elimination mod `prime` on the sparse rows of `a`: no field element is
    inverted.  `holders[c]` is the set of rows not yet pivoted with a
    nonzero entry in column c, so pivot search and elimination visit only
    those; an entry that becomes 0 may stay in its row's dict.  `prime`
    must divide no denominator."""
    powers = [pow(omega, k, prime) for k in range(field.degree)]
    rows = [{j: sum(map(mul, nums, powers)) * pow(den, -1, prime) % prime
             for j, nums, den in row} for row in a]
    holders = [set() for _ in a]
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x:
                holders[j].add(i)
    result, pivot_rows = 1, []
    for c, held in enumerate(holders):
        if not held:
            return 0
        p = min(held)
        pivot = rows[p]
        for j in pivot:
            holders[j].discard(p)
        pivot_rows.append(p)
        result = result * pivot[c] % prime
        inverse = pow(pivot[c], -1, prime)
        for i in list(held):
            row = rows[i]
            f = row[c] * inverse % prime
            for j, y in pivot.items():
                x = row[j] = (row.get(j, 0) - f * y) % prime
                (holders[j].add if x else holders[j].discard)(i)
    for c in range(len(a)):  # the sign of c -> pivot_rows[c], a swap at a time
        while pivot_rows[c] != c:
            p = pivot_rows[c]
            pivot_rows[c], pivot_rows[p] = pivot_rows[p], p
            result = -result
    return result % prime
