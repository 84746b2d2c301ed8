import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay.cyclo import (
    LiteralSyntaxError,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
    parse_literal,
)
from mckay.errors import RequirementError


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


def test_cyclotomic_polynomial_oracle():
    # independent check: product over all divisors reconstructs x^R - 1
    for r in range(1, 25):
        product = [1]
        for d in range(1, r + 1):
            if r % d == 0:
                phi_d = cyclotomic_polynomial(d)
                new = [0] * (len(product) + len(phi_d) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
                product = new
        expected = [0] * (r + 1)
        expected[0], expected[-1] = -1, 1
        assert product == expected
        assert len(cyclotomic_polynomial(r)) - 1 == euler_phi(r)


def test_zeta_squared_in_q_i():
    field = cyclotomic_field(4)
    z = field.zeta()
    assert z * z == field.from_rational(-1)


def test_sqrt2_in_q_zeta8():
    field = cyclotomic_field(8)
    z = field.zeta()
    root2 = z - z ** 3
    assert root2 * root2 == field.from_rational(2)
    half = root2 * Fraction(1, 2)
    assert half * half == field.from_rational(Fraction(1, 2))


def test_additive_identity():
    field = cyclotomic_field(9)
    a = field.element({0: Fraction(3, 7), 2: Fraction(-1), 5: Fraction(2)})
    assert a + field.zero() == a


def test_invert_examples():
    f8 = cyclotomic_field(8)
    assert f8.zeta().inverse() == f8.zeta(7)
    assert f8.zeta(7) == -f8.zeta(3)
    assert f8.from_rational(2).inverse() == f8.from_rational(Fraction(1, 2))
    f3 = cyclotomic_field(3)
    a = f3.one() + f3.zeta()
    assert a.inverse() == -f3.zeta()
    assert a * a.inverse() == f3.one()


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyclotomic_field(5).zero().inverse()


def test_embed_examples():
    f2, f4, f8 = cyclotomic_field(2), cyclotomic_field(4), cyclotomic_field(8)
    assert f2.from_rational(-1).embed(f4) == f4.zeta(2)
    assert f4.zeta().embed(f8) == f8.zeta(2)


def test_embed_requires_divisibility():
    with pytest.raises(RequirementError):
        cyclotomic_field(3).zeta().embed(cyclotomic_field(4))


def test_embed_commutes_with_inverse():
    f3, f12 = cyclotomic_field(3), cyclotomic_field(12)
    a = f3.one() + f3.zeta()
    assert a.inverse().embed(f12) == a.embed(f12).inverse()


def test_embed_is_homomorphism_on_random_products():
    rng = random.Random(7)
    f6, f24 = cyclotomic_field(6), cyclotomic_field(24)
    for _ in range(50):
        a = f6.element({k: Fraction(rng.randint(-5, 5)) for k in range(2)})
        b = f6.element({k: Fraction(rng.randint(-5, 5)) for k in range(2)})
        assert (a * b).embed(f24) == a.embed(f24) * b.embed(f24)
        assert (a + b).embed(f24) == a.embed(f24) + b.embed(f24)


def test_as_rational():
    f5 = cyclotomic_field(5)
    assert f5.from_rational(Fraction(7, 2)).as_rational() == Fraction(7, 2)
    assert f5.zeta().as_rational() is None
    s = f5.zeta(1) + f5.zeta(2) + f5.zeta(3) + f5.zeta(4)
    assert s.as_rational() == -1


def test_hash_agrees_with_equality_for_rationals():
    f5 = cyclotomic_field(5)
    assert f5.one() == 1
    assert 1 in {f5.one()}
    half = f5.from_rational(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert {half: "x"}[Fraction(1, 2)] == "x"
    s = f5.zeta(1) + f5.zeta(2) + f5.zeta(3) + f5.zeta(4)  # sums to -1
    assert hash(s) == hash(-1)


@pytest.mark.parametrize("op", [
    lambda x: x + "x", lambda x: "x" + x, lambda x: x - "x",
    lambda x: "x" - x, lambda x: x * "x", lambda x: "x" * x,
    lambda x: x / "x",
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv"])
def test_unsupported_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(cyclotomic_field(5).one())


def test_zeta_has_exact_order():
    for r in range(1, 25):
        field = cyclotomic_field(r)
        z = field.zeta()
        acc = field.one()
        for k in range(1, r):
            acc = acc * z
            assert acc != field.one(), (r, k)
        assert acc * z == field.one()
        assert multiplicative_order(z) == r


def _random_element(field, rng):
    return field.element({
        k: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for k in range(field.degree)
    })


def test_invert_roundtrip_randomized():
    rng = random.Random(2024)
    count = 0
    while count < 1000:
        field = cyclotomic_field(rng.randint(1, 24))
        a = _random_element(field, rng)
        if not a:
            continue
        assert a.inverse() * a == field.one()
        count += 1


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=18),
    seeds=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                    st.integers(0, 10 ** 6)),
)
def test_ring_axioms(order, seeds):
    field = cyclotomic_field(order)
    a, b, c = (_random_element(field, random.Random(s)) for s in seeds)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


def test_normal_form_uniqueness():
    # equal as field elements iff identical coefficient vectors
    f12 = cyclotomic_field(12)
    z = f12.zeta()
    # zeta^4 - zeta^2 + 1 = 0, two routes to the same element
    lhs = z ** 4
    rhs = z * z - f12.one()
    assert lhs == rhs and lhs.coeffs == rhs.coeffs and hash(lhs) == hash(rhs)


def test_parse_literal():
    f8 = cyclotomic_field(8)
    z = f8.zeta()
    assert parse_literal("-1/2*z^3 + 1/2*z", f8) == Fraction(1, 2) * z - Fraction(1, 2) * z ** 3
    assert parse_literal("z", f8) == z
    assert parse_literal(" 3 ", f8) == f8.from_rational(3)
    assert parse_literal("2*z^8", f8) == f8.from_rational(2)
    assert parse_literal("1 + z - z", f8) == f8.one()


def test_parse_literal_roundtrip():
    f12 = cyclotomic_field(12)
    rng = random.Random(5)
    for _ in range(50):
        a = _random_element(f12, rng)
        assert parse_literal(a.to_literal(), f12) == a


@pytest.mark.parametrize("bad", ["", "1.5", "z^", "1//2", "2*", "+ + 1", "q", "1 2"])
def test_parse_literal_errors(bad):
    f4 = cyclotomic_field(4)
    with pytest.raises(LiteralSyntaxError):
        parse_literal(bad, f4)
