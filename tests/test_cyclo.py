import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cyclo
from mckay.age import grade
from mckay.cyclo import (
    MAX_FIELD_ORDER,
    CycNum,
    LiteralSyntaxError,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    parse_literal,
    prime_factors,
    split_prime,
)
from mckay.errors import FieldCapError, RequirementError
from mckay.groupfile import parse_group_file

from conftest import (CORPUS, closed_group, element_matrix, graded_table, group_path,
                      inverse, mat_mul, oracle_cyclotomic_polynomial, trace)


def coeffs(x):
    """The rational coefficients of zeta^0, ..., zeta^(phi(R)-1) of x."""
    return tuple(Fraction(c, x.den) for c in x.nums)


def multiplicative_order(x):
    """Least r >= 1 with x^r = 1, searched up to twice the field order
    (enough for roots of unity of the form +-zeta^k)."""
    acc = x
    one = x.field.one()
    for r in range(1, 2 * x.field.order + 1):
        if acc == one:
            return r
        acc = acc * x
    raise RequirementError("element is not a root of unity within the bound")


def power(x, exponent):
    """x to an integer power by squaring, through CycNum `*` and the
    test-side `inverse` alone."""
    if exponent < 0:
        x, exponent = inverse(x), -exponent
    result = x.field.one()
    while exponent:
        if exponent & 1:
            result = result * x
        x, exponent = x * x, exponent >> 1
    return result


class RefField:
    """Reference Q(zeta_R): coefficient vectors of Fractions, reduced
    modulo Phi_R.  The oracle for the integer normal form of CycNum."""

    def __init__(self, order):
        self.order = order
        self.min_poly = cyclotomic_polynomial(order)
        self.degree = len(self.min_poly) - 1
        table = {}
        rep = [-c for c in self.min_poly[:-1]]
        for k in range(self.degree, order):
            table[k] = tuple(rep)
            top = rep[-1]
            rep = [0] + rep[:-1]
            if top:
                for i in range(self.degree):
                    rep[i] -= top * self.min_poly[i]
        self.power_table = table

    def one(self):
        return self.element({0: Fraction(1)})

    def element(self, powers):
        coeffs = [Fraction(0)] * self.degree
        for k, c in powers.items():
            if not c:
                continue
            k %= self.order
            if k < self.degree:
                coeffs[k] += c
            else:
                for i, t in enumerate(self.power_table[k]):
                    if t:
                        coeffs[i] += c * t
        return RefNum(self, tuple(coeffs))


class RefNum:
    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        return RefNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return RefNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RefNum(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        conv = [Fraction(0)] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                conv[i + j] += a * b
        return self.field.element(dict(enumerate(conv)))

    def __eq__(self, other):
        if self.field is other.field:
            return self.coeffs == other.coeffs
        value = self.as_rational()
        return value is not None and value == other.as_rational()

    def __pow__(self, exponent):
        base = self.inverse() if exponent < 0 else self
        result = self.field.one()
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def inverse(self):
        """Solve x * self = 1 as a linear system over Q (multiplication by
        self is an invertible Q-linear map of the field)."""
        d = self.field.degree
        columns = [(self * self.field.element({j: Fraction(1)})).coeffs for j in range(d)]
        rows = [[columns[j][i] for j in range(d)] + [Fraction(int(i == 0))]
                for i in range(d)]
        for c in range(d):
            pivot = next(r for r in range(c, d) if rows[r][c])
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
        return RefNum(self.field, tuple(row[d] for row in rows))

    def as_rational(self):
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def embed(self, target):
        step = target.order // self.field.order
        return target.element({k * step: c for k, c in enumerate(self.coeffs)})

    def to_literal(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                z = "" if k == 0 else "*z" if k == 1 else f"*z^{k}"
                terms.append((f"{abs(c)}{z}", c < 0))
        if not terms:
            return "0"
        out = ("-" if terms[0][1] else "") + terms[0][0]
        for text, neg in terms[1:]:
            out += (" - " if neg else " + ") + text
        return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


@pytest.mark.parametrize("orders", [range(1, 201), (1680, 1848, 2016, 2040, 2046, 2048)],
                         ids=["R<=200", "composite"])
def test_cyclotomic_polynomial_oracle(orders):
    # the Moebius product of binomials against the recursive division
    for r in orders:
        assert cyclotomic_polynomial(r) == oracle_cyclotomic_polynomial(r), r


def test_every_cyclotomic_polynomial_to_the_cap_is_monic_and_divides_x_r_minus_1():
    # prod_{d | R} Phi_d(t) = t^R - 1, compared mod a prime at two points
    prime = 2 ** 61 - 1
    for t in (2, 10 ** 17 + 3):
        product = [1] * (MAX_FIELD_ORDER + 1)
        for d in range(1, MAX_FIELD_ORDER + 1):
            phi = cyclotomic_polynomial(d)
            assert phi[-1] == 1 and len(phi) - 1 == euler_phi(d), d
            value = 0
            for c in reversed(phi):
                value = (value * t + c) % prime
            for r in range(d, MAX_FIELD_ORDER + 1, d):
                product[r] = product[r] * value % prime
        assert all(product[r] == (pow(t, r, prime) - 1) % prime
                   for r in range(1, MAX_FIELD_ORDER + 1))


def test_zeta_squared_in_q_i():
    field = cyclotomic_field(4)
    z = field.zeta()
    assert z * z == field.from_rational(-1)


def test_sqrt2_in_q_zeta8():
    field = cyclotomic_field(8)
    z = field.zeta()
    root2 = z - field.zeta(3)
    assert root2 * root2 == field.from_rational(2)
    half = root2 * Fraction(1, 2)
    assert half * half == field.from_rational(Fraction(1, 2))


def test_additive_identity():
    field = cyclotomic_field(9)
    a = field.element({0: Fraction(3, 7), 2: Fraction(-1), 5: Fraction(2)})
    assert a + field.zero() == a


def test_embed_examples():
    f2, f4, f8 = cyclotomic_field(2), cyclotomic_field(4), cyclotomic_field(8)
    assert f2.from_rational(-1).embed(f4) == f4.zeta(2)
    assert f4.zeta().embed(f8) == f8.zeta(2)


def test_embed_requires_divisibility():
    with pytest.raises(RequirementError):
        cyclotomic_field(3).zeta().embed(cyclotomic_field(4))


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


def test_rationals_compare_equal_across_fields():
    f5, f10 = cyclotomic_field(5), cyclotomic_field(10)
    assert f5.one() == f10.one()
    assert len({f5.one(), f10.one(), 1}) == 1
    assert f5.from_rational(Fraction(-2, 3)) == f10.from_rational(Fraction(-2, 3))
    s = f5.zeta(1) + f5.zeta(2) + f5.zeta(3) + f5.zeta(4)  # sums to -1
    assert s == -f10.one()
    assert f5.one() != f10.from_rational(2)
    assert f5.one() != f10.zeta()
    assert f5.zeta() != f10.zeta()


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


@lru_cache(maxsize=None)
def _ref_field(order):
    return RefField(order)


_powers = st.dictionaries(
    st.integers(0, 60),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    max_size=6,
)


def _both(order, powers):
    """One element built in the integer normal form and in the reference."""
    return cyclotomic_field(order).element(powers), _ref_field(order).element(powers)


def _agrees(x: CycNum, ref: RefNum):
    assert x.den >= 1 and math.gcd(x.den, *x.nums) == 1
    assert coeffs(x) == ref.coeffs
    assert x.as_rational() == ref.as_rational()
    assert x.to_literal() == ref.to_literal()
    value = ref.as_rational()
    if value is not None:
        assert hash(x) == hash(value)


@settings(max_examples=150, deadline=None)
@given(
    order=st.sampled_from((1, 2, 3, 4, 5, 8, 12, 15, 17, 30)),
    p=_powers, q=_powers,
    multiple=st.sampled_from((1, 2, 3)),
    exponent=st.integers(-3, 3),
)
def test_integer_normal_form_matches_fraction_reference(order, p, q, multiple, exponent):
    (a, ra), (b, rb) = _both(order, p), _both(order, q)
    _agrees(a, ra)
    _agrees(b, rb)
    _agrees(a + b, ra + rb)
    _agrees(a - b, ra - rb)
    _agrees(a * b, ra * rb)
    _agrees(-a, -ra)
    assert (a == b) == (ra == rb)
    assert (a == 1) == (ra == _ref_field(order).one())
    # equal values reached by another route hash alike
    assert hash(a * b) == hash(b * a)
    assert hash(a + b - b) == hash(a)
    target = cyclotomic_field(order * multiple)
    ref_target = _ref_field(target.order)
    _agrees(a.embed(target), ra.embed(ref_target))
    assert (a == b.embed(target)) == (ra == rb.embed(ref_target))
    if a:  # the test-side inverse that the oracles divide by
        _agrees(inverse(a), ra.inverse())
        _agrees(power(a, exponent), ra ** exponent)
        _agrees(b * inverse(a), rb * ra.inverse())


def test_hot_path_does_no_fraction_arithmetic(monkeypatch):
    """Closed-group products, traces, embeddings, equality, hashing and
    grading use integer arithmetic only."""
    groups = {name: closed_group(name) for name in ("icosahedral60", "cyclic_7_124")}
    expected = {name: graded_table(name).buckets for name in groups}
    icosahedral = groups["icosahedral60"]
    target = cyclotomic_field(30)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the hot path")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    for index in range(len(icosahedral)):
        element = element_matrix(icosahedral, index)
        for k, g in enumerate(icosahedral.generator_indices):
            product = mat_mul(element, element_matrix(icosahedral, g))
            image = element_matrix(icosahedral, icosahedral._right[k][index])
            assert product == image
            assert [hash(x) for row in product for x in row] == \
                [hash(x) for row in image for x in row]
        embedded = tuple(tuple(x.embed(target) for x in row) for row in element)
        assert trace(embedded) == \
            CycNum(icosahedral.field, icosahedral.trace(index)).embed(target)
    for name, group in groups.items():
        assert grade(group).buckets == expected[name]


def test_parsing_the_corpus_does_no_fraction_arithmetic(monkeypatch):
    """Every literal of every corpus file is summed as integer pairs: the
    parse gives the same generators with Fraction arithmetic forbidden."""
    paths = [group_path(name) for name in CORPUS]
    files = [parse_group_file(path) for path in paths]
    assert sum(gf.format == "matrix" for gf in files) == 5
    expected = [gf.matrices() for gf in files]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic while parsing")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    assert [parse_group_file(path).matrices() for path in paths] == expected


_SIEVE_LIMIT = 10 ** 5


@lru_cache(maxsize=None)
def _composite():
    """composite[n] for n <= _SIEVE_LIMIT: the sieve of Eratosthenes."""
    composite = bytearray(_SIEVE_LIMIT + 1)
    for p in range(2, int(_SIEVE_LIMIT ** 0.5) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, _SIEVE_LIMIT + 1, p))
    return composite


def test_primality_matches_trial_division():
    composite = _composite()
    assert [n for n in range(_SIEVE_LIMIT + 1) if is_prime(n)] == \
        [n for n in range(2, _SIEVE_LIMIT + 1) if not composite[n]]
    # a strong pseudoprime to every prime base up to 31: only the bases 37
    # and 41 of the 13 expose it
    assert not is_prime(3825123056546413051)
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 62 + 1)


def test_prime_factors_match_the_sieve():
    composite = _composite()
    for n in range(1, _SIEVE_LIMIT + 1):
        primes = prime_factors(n)
        assert primes == sorted(set(primes)), n
        rest = n
        for q in primes:
            assert q >= 2 and not composite[q] and rest % q == 0, (n, q)
            while rest % q == 0:
                rest //= q
        assert rest == 1, n


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 12, 97, 401, 997, 2048])
def test_split_prime_is_the_first_and_maps_zeta_to_order_exactly(order):
    prime, omega = split_prime(order)
    m = math.lcm(2, order)
    assert prime > 2 ** 62 and prime % m == 1 and is_prime(prime)
    assert not any(is_prime(p) for p in range(prime - m, 2 ** 62, -m))
    assert pow(omega, order, prime) == 1
    assert all(pow(omega, order // q, prime) != 1
               for q in range(2, order + 1) if order % q == 0 and is_prime(q))
    # omega is a root of Phi_order mod P, so zeta -> omega is a ring map
    assert sum(c * pow(omega, k, prime) for k, c in
               enumerate(cyclotomic_polynomial(order))) % prime == 0
    # the next one starts above this one
    following, _ = split_prime(order, prime)
    assert following > prime and following % m == 1 and is_prime(following)


@pytest.mark.parametrize("orders", [(1, 2), (3, 6), (5, 10), (1023, 2046)])
def test_orders_sharing_lcm_2_share_the_split_prime(orders):
    # one search for a prime and an element of order M = lcm(2, R) per M,
    # whichever order asks first; each omega is a power of exact order R
    cyclo._split.cache_clear()
    primes = set()
    for order in orders:
        prime, omega = split_prime(order)
        primes.add(prime)
        assert pow(omega, order, prime) == 1
        assert all(pow(omega, order // q, prime) != 1 for q in prime_factors(order))
    assert len(primes) == 1
    assert cyclo._split.cache_info().misses == 1


def test_field_order_limit():
    assert cyclotomic_field(MAX_FIELD_ORDER).order == MAX_FIELD_ORDER
    with pytest.raises(FieldCapError, match=f"order {MAX_FIELD_ORDER + 1} exceeds "
                       f"the limit of {MAX_FIELD_ORDER}"):
        cyclotomic_field(MAX_FIELD_ORDER + 1)


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
    lhs = f12.zeta(4)
    rhs = z * z - f12.one()
    assert lhs == rhs and coeffs(lhs) == coeffs(rhs) and hash(lhs) == hash(rhs)


def test_parse_literal():
    f8 = cyclotomic_field(8)
    z = f8.zeta()
    assert parse_literal("-1/2*z^3 + 1/2*z", f8) == \
        Fraction(1, 2) * z - Fraction(1, 2) * f8.zeta(3)
    assert parse_literal("z", f8) == z
    assert parse_literal(" 3 ", f8) == f8.from_rational(3)
    assert parse_literal("2*z^8", f8) == f8.from_rational(2)
    assert parse_literal("1 + z - z", f8) == f8.one()
    # one power over several denominators, and a power wrapping past 8
    assert parse_literal("1/2*z + 1/3*z - 5/6*z", f8) == f8.zero()
    assert parse_literal("1/2 - 1/3 + 2/4*z^2 + z^10", f8) == \
        Fraction(1, 6) + Fraction(3, 2) * f8.zeta(2)
    assert parse_literal("-3/9", f8) == f8.from_rational(Fraction(-1, 3))


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
