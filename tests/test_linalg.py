from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo, linalg
from mckay.cyclo import cyclotomic_field
from mckay.errors import RequirementError


def oracle_mat_mul(a, b):
    """a * b entry by entry through CycNum `*` and `+`: the per-scalar
    product that the integer kernel of `linalg` replaced."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), row[0].field.zero()) for col in bt)
        for row in a
    )


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


def oracle_eliminating_det(a):
    """Forward elimination that inverts a pivot whenever a row below has an
    entry in its column: the `det` that `linalg._eliminate` replaced."""
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


def oracle_rref(a):
    """Gauss-Jordan that inverts every pivot: the `rref` that
    `linalg._eliminate` replaced."""
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


@contextmanager
def counted_inverses():
    """A list that gains one entry for each `CycNum.inverse` call."""
    calls, real = [], cyclo.CycNum.inverse

    def counted(x):
        calls.append(x)
        return real(x)

    with mock.patch.object(cyclo.CycNum, "inverse", counted):
        yield calls


def assert_same_entries(got, want):
    """Equal as values and in normal form: `nums`, `den` and `hash` agree."""
    assert got == want
    flat_got = [x for row in got for x in row]
    flat_want = [x for row in want for x in row]
    assert len(flat_got) == len(flat_want)
    for x, y in zip(flat_got, flat_want):
        assert x.field is y.field
        assert (x.nums, x.den, hash(x)) == (y.nums, y.den, hash(y))


ORDERS = (1, 2, 5, 12, 15, 30)
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def _entries(field):
    """Zero, rational, and general elements with mixed denominators."""
    return st.one_of(
        st.just(field.zero()),
        _fractions.map(field.from_rational),
        st.dictionaries(st.integers(0, field.order - 1), _fractions, max_size=4)
        .map(field.element),
    )


@st.composite
def operands(draw):
    """(a, b, c): a is n x m, b is m x p and c is m x m, over one field."""
    field = cyclotomic_field(draw(st.sampled_from(ORDERS)))
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    entry = _entries(field)

    def matrix(rows, cols):
        return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))

    return matrix(n, m), matrix(m, p), matrix(m, m)


@settings(max_examples=100, deadline=None)
@given(operands())
def test_products_match_per_scalar_oracle(operands):
    a, b, c = operands
    assert_same_entries(linalg.mat_mul(a, b), oracle_mat_mul(a, b))
    # one prepared multiplier reused on several left factors
    times_b = linalg.RightMultiplier(b)
    for left in (a, c, linalg.identity(b[0][0].field, len(b))):
        assert_same_entries(times_b(left), oracle_mat_mul(left, b))
    assert linalg.det(c) == oracle_det(c)


@settings(max_examples=100, deadline=None)
@given(operands())
def test_eliminations_match_the_eager_oracles(operands):
    """On square, rank-deficient, rectangular and augmented [c | I]
    matrices: the same determinant, reduced row echelon form, kernel basis
    and inverse as the oracles, and `det` inverts no more pivots."""
    a, _, c = operands
    field = c[0][0].field
    deficient = c[:-1] + c[:1] if len(c) > 1 else ((field.zero(),),)
    augmented = tuple(row + e for row, e in zip(c, linalg.identity(field, len(c))))
    for m in (c, deficient):
        with counted_inverses() as ours:
            value = linalg.det(m)
        with counted_inverses() as theirs:
            expected = oracle_eliminating_det(m)
        assert_same_entries(((value,),), ((expected,),))
        assert len(ours) <= len(theirs)
        with mock.patch.object(linalg, "rref", oracle_rref):
            expected = linalg.mat_inv(m) if expected else None
        if expected is None:
            with pytest.raises(ZeroDivisionError, match="singular"):
                linalg.mat_inv(m)
        else:
            assert_same_entries(linalg.mat_inv(m), expected)
    for m in (c, deficient, a, tuple(zip(*a)), augmented):
        echelon, pivots = linalg.rref(m)
        expected, expected_pivots = oracle_rref(m)
        assert pivots == expected_pivots
        assert_same_entries(echelon, expected)
        with mock.patch.object(linalg, "rref", oracle_rref):
            expected = linalg.kernel_basis(m)
        assert_same_entries(tuple(linalg.kernel_basis(m)), tuple(expected))


def test_field_mismatch_raises():
    f3, f5 = cyclotomic_field(3), cyclotomic_field(5)
    a = linalg.identity(f3, 2)
    b = linalg.identity(f5, 2)
    mixed = ((f3.one(), f3.zero()), (f5.zero(), f3.one()))
    with pytest.raises(RequirementError, match="field mismatch"):
        linalg.mat_mul(a, b)
    with pytest.raises(RequirementError, match="field mismatch"):
        linalg.mat_mul(a, mixed)
    with pytest.raises(RequirementError, match="field mismatch"):
        linalg.mat_mul(mixed, a)
    with pytest.raises(RequirementError, match="field mismatch"):
        linalg.RightMultiplier(a)(b)


def test_det_of_monomial_matrix_inverts_no_pivot(monkeypatch):
    """A pivot alone in its row is never inverted: not by `det`, `rref`
    or `kernel_basis`."""
    field = cyclotomic_field(7)
    z, zero = field.zeta(), field.zero()
    diagonal = ((z, zero, zero), (zero, z ** 2, zero), (zero, zero, z ** 4))
    third = field.from_rational(Fraction(1, 3))
    monomial = ((zero, z, zero), (zero, zero, z ** 2), (third, zero, zero))
    expected = [oracle_det(diagonal), oracle_det(monomial)]
    assert expected == [field.one(), third * z ** 3]  # an even permutation

    def forbidden(*args):
        raise AssertionError("pivot inverted with no entry to divide by it")

    singular = ((z, zero, zero), (zero, zero, zero), (zero, third, zero))
    echelons = [oracle_rref(m) for m in (diagonal, monomial, singular)]

    monkeypatch.setattr(cyclo.CycNum, "inverse", forbidden)
    assert [linalg.det(diagonal), linalg.det(monomial)] == expected
    assert linalg.det(singular) == zero
    for m, (echelon, pivots) in zip((diagonal, monomial, singular), echelons):
        assert linalg.rref(m) == (echelon, pivots)
    assert echelons[0][0] == echelons[1][0] == linalg.identity(field, 3)
    assert [linalg.kernel_basis(m) for m in (diagonal, monomial)] == [[], []]
    assert linalg.kernel_basis(singular) == [(zero, zero, field.one())]
