import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo, linalg
from mckay.cyclo import cyclotomic_field, split_prime
from mckay.errors import RequirementError
from mckay.matgroup import close_group

from conftest import mat_mul, oracle_det


def oracle_mat_mul(a, b):
    """a * b entry by entry through CycNum `*` and `+`: the per-scalar
    product that the integer kernel of `linalg` replaced."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), row[0].field.zero()) for col in bt)
        for row in a
    )


def image(x, prime, omega):
    """x in F_prime under zeta -> omega: sum_k nums[k] * omega^k / den."""
    return sum(c * omega ** k for k, c in enumerate(x.nums)) * \
        pow(x.den, prime - 2, prime) % prime


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
    # the row kernel, on general columns and on the copied columns of I
    field = b[0][0].field
    for left in (a, c, linalg.identity(field, len(b))):
        assert_same_entries(mat_mul(left, b), oracle_mat_mul(left, b))
    assert_same_entries(mat_mul(b, linalg.identity(field, len(b[0]))), b)
    prime, omega = split_prime(field.order)
    assert linalg.det_image(c, prime, omega) == image(oracle_det(c), prime, omega)


def test_field_mismatch_raises():
    # integer rows carry no field: the closure refuses generators of two
    # fields before any row reaches the kernel, and scalars check their own
    f3, f5 = cyclotomic_field(3), cyclotomic_field(5)
    a = linalg.identity(f3, 2)
    b = linalg.identity(f5, 2)
    mixed = ((f3.one(), f3.zero()), (f5.zero(), f3.one()))
    for generators in ([a, b], [mixed], [a, mixed]):
        with pytest.raises(RequirementError, match="share one cyclotomic field"):
            close_group(generators)
    with pytest.raises(RequirementError, match="field mismatch"):
        a[0][0] * b[0][0]


def test_no_field_division_is_left_in_the_package():
    # the determinant runs modulo a split prime and `--choice inverse` on
    # the closed group's tables, so nothing inverts a field element
    assert not hasattr(cyclo.CycNum, "inverse")
    assert not hasattr(cyclo.CycNum, "__truediv__")
    assert not {"det", "rref", "mat_inv", "_eliminate"} & set(vars(linalg))
