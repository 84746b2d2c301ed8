import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo, linalg
from mckay.cyclo import _terms, cyclotomic_field, split_prime
from mckay.errors import RequirementError
from mckay.matgroup import close_group

from conftest import dense, identity, mat_mul, oracle_det, sparse


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
    for left in (a, c, identity(field, len(b))):
        assert_same_entries(mat_mul(left, b), oracle_mat_mul(left, b))
    assert_same_entries(mat_mul(b, identity(field, len(b[0]))), b)
    prime, omega = split_prime(field.order)
    assert linalg.det_image(field, sparse(c), prime, omega) == \
        image(oracle_det(c), prime, omega)


def assert_kernel_matches_oracle(a, b):
    """RightMultiplier(b) on each sparse row of a: the row of the per-scalar
    product, its entries sorted by column, and no entry zero."""
    field = b[0][0].field
    times_b = linalg.RightMultiplier(field, sparse(b))
    for row, want in zip(sparse(a), oracle_mat_mul(a, b)):
        got = times_b(row, [(den, _terms(nums)) for _, nums, den in row])
        columns = [j for j, _, _ in got]
        assert columns == sorted(set(columns))
        assert all(any(nums) for _, nums, _ in got)
        assert got == sparse((want,))[0]
        assert dense(field, (got,), len(want)) == (want,)


@settings(max_examples=100, deadline=None)
@given(operands())
def test_sparse_kernel_matches_per_scalar_oracle_row_by_row(operands):
    a, b, c = operands
    field = b[0][0].field
    permutation = tuple(tuple(field.one() if j == (i + 1) % len(b) else field.zero()
                              for j in range(len(b))) for i in range(len(b)))
    for left, right in ((a, b), (c, c), (a, c), (a, permutation),
                        (b, identity(field, len(b[0])))):
        assert_kernel_matches_oracle(left, right)


def test_sparse_kernel_stores_no_cancelled_entry():
    # [[0, -1], [1, -1]] has order 3; its square [[-1, 1], [-1, 0]] has a
    # zero entry (1, 1), made by cancellation: -1 * 1 + 1 * 1
    for order in (1, 6):
        field = cyclotomic_field(order)
        one, zero = field.one(), field.zero()
        g = ((zero, -one), (one, -one))
        assert_kernel_matches_oracle(g, g)
        times_g = linalg.RightMultiplier(field, sparse(g))
        row = sparse(g)[1]
        assert times_g(row, [(den, _terms(nums)) for _, nums, den in row]) == \
            ((0, (-1,) + (0,) * (field.degree - 1), 1),)
        # a stored zero would have split the row of g^3 = I into two ids
        group = close_group(field, [sparse(g)])
        assert len(group) == 3
        assert len(group.rows) == len(set(group.rows)) == 6


@st.composite
def sparse_square_matrices(draw):
    """Square matrices with mostly zero entries: some need a row swap to
    find a pivot, and some are singular, with a zero row or column or two
    equal rows."""
    field = cyclotomic_field(draw(st.sampled_from(ORDERS)))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()), _entries(field))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        shape = draw(st.sampled_from(("swap", "row", "column", "equal")))
        if shape == "swap":
            rows[i][0], rows[j][0] = field.zero(), draw(_entries(field))
        elif shape == "row":
            rows[i] = [field.zero()] * n
        elif shape == "column":
            for row in rows:
                row[j] = field.zero()
        else:
            rows[i] = list(rows[j])
    return tuple(tuple(row) for row in rows)


@settings(max_examples=150, deadline=None)
@given(sparse_square_matrices())
def test_det_image_matches_the_leibniz_oracle_on_sparse_matrices(a):
    field = a[0][0].field
    prime, omega = split_prime(field.order)
    assert linalg.det_image(field, sparse(a), prime, omega) == \
        image(oracle_det(a), prime, omega)


def test_det_image_of_a_permutation_takes_its_sign():
    # the pivots all sit off the diagonal: the sign is the permutation's
    field = cyclotomic_field(1)
    prime, omega = split_prime(1)
    one = field.one().nums
    for perm, sign in (((1, 0), -1), ((1, 2, 0), 1), ((3, 2, 1, 0), 1),
                       ((1, 0, 3, 2, 4), 1), ((4, 0, 1, 2, 3), 1), ((1, 2, 3, 4, 0), 1),
                       ((2, 0, 1, 4, 3), -1)):
        rows = tuple(((j, one, 1),) for j in perm)
        assert linalg.det_image(field, rows, prime, omega) == sign % prime


def test_field_mismatch_raises():
    # integer rows carry no field: the closure refuses an entry that is no
    # normal form of its field before any row reaches the kernel, and
    # scalars check their own
    f3, f5 = cyclotomic_field(3), cyclotomic_field(5)
    a = identity(f3, 2)
    b = identity(f5, 2)
    mixed = ((f3.one(), f3.zero()), (f5.zero(), f5.one()))
    for generators in ([a, b], [mixed], [a, mixed]):
        with pytest.raises(RequirementError, match="share one cyclotomic field"):
            close_group(f3, [sparse(g) for g in generators])
    with pytest.raises(RequirementError, match="field mismatch"):
        a[0][0] * b[0][0]


def test_no_field_division_is_left_in_the_package():
    # the determinant runs modulo a split prime and `--choice inverse` on
    # the closed group's tables, so nothing inverts a field element
    assert not hasattr(cyclo.CycNum, "inverse")
    assert not hasattr(cyclo.CycNum, "__truediv__")
    assert not {"det", "rref", "mat_inv", "_eliminate"} & set(vars(linalg))
