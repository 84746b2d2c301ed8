from fractions import Fraction
from itertools import permutations

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
    field = cyclotomic_field(7)
    z, zero = field.zeta(), field.zero()
    diagonal = ((z, zero, zero), (zero, z ** 2, zero), (zero, zero, z ** 4))
    third = field.from_rational(Fraction(1, 3))
    monomial = ((zero, z, zero), (zero, zero, z ** 2), (third, zero, zero))
    expected = [oracle_det(diagonal), oracle_det(monomial)]
    assert expected == [field.one(), third * z ** 3]  # an even permutation

    def forbidden(*args):
        raise AssertionError("pivot inverted with no row to eliminate")

    monkeypatch.setattr(cyclo.CycNum, "inverse", forbidden)
    assert [linalg.det(diagonal), linalg.det(monomial)] == expected
