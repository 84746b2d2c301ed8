"""Exact arithmetic in cyclotomic fields Q(zeta_R).

An element is stored in normal form: a tuple of phi(R) integer numerators
and one positive integer denominator, standing for
    (nums[0] + nums[1]*zeta + ... + nums[phi(R)-1]*zeta^(phi(R)-1)) / den,
reduced modulo the R-th cyclotomic polynomial and with
gcd(den, *nums) = 1.  The normal form is unique, so equality and hashing
compare integer tuples.  Arithmetic is integer arithmetic: sums add
numerators over a common denominator, products convolve the numerators and
reduce through the field's table of powers of zeta.  One kernel, `_dot`,
does that convolution and reduction for `CycNum.__mul__` and for the matrix
products of `linalg`, which reduce each entry's sum of products once.
`fractions.Fraction` appears only at the boundaries: building
elements from rational coefficients, reading them back (`as_rational`,
`coeffs`, `to_literal`), and the rational Euclid of `inverse`.

Convention: the field generator ``zeta`` is the distinguished primitive
R-th root of unity.  All gradings downstream depend on this choice; the
opposite identification is obtained by inverting group generators, not by
a second field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import FieldCapError, InternalInvariantError, RequirementError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest cyclotomic order a field is built for; larger orders are refused
# before Phi_R or the power table is computed.  The power table costs
# O(R * phi(R)) and a dense product O(phi(R)^2): building the field and
# multiplying two dense elements took at most 0.65 s for R <= 2048 (worst
# at R = 2039 and 2047; Python 3.11 on a 2-core x86-64 host), against
# 1.6 s at R = 3001 and 4.8 s at R = 5003.
MAX_FIELD_ORDER = 2048


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dlead = den[-1]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], dlead)
        if r:
            raise ArithmeticError("division not exact")
        out[k] = q
        for j, dj in enumerate(den):
            num[k + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of Phi_order, ascending, computed by exact division
    of x^order - 1 by the product of Phi_d over proper divisors d."""
    if order < 1:
        raise ValueError("order must be >= 1")
    num = [0] * (order + 1)
    num[0], num[-1] = -1, 1
    den = [1]
    for d in range(1, order):
        if order % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_divexact(num, den))


class CyclotomicField:
    """The field Q(zeta_R); immutable, one shared instance per order."""

    __slots__ = ("order", "degree", "min_poly", "_power_table", "_zero", "_one")

    def __init__(self, order: int):
        self.order = order
        self.min_poly = cyclotomic_polynomial(order)
        self.degree = len(self.min_poly) - 1
        assert self.degree == euler_phi(order)
        # zeta^k in normal form as its nonzero (index, integer coefficient)
        # pairs, for every k < order and every k a product of two normal
        # forms can reach (k <= 2 * degree - 2)
        table = [((k, 1),) for k in range(self.degree)]
        rep = [-c for c in self.min_poly[:-1]]
        for _ in range(self.degree, max(order, 2 * self.degree - 1)):
            table.append(tuple((i, t) for i, t in enumerate(rep) if t))
            top = rep[-1]
            rep = [0] + rep[:-1]
            if top:
                for i in range(self.degree):
                    rep[i] -= top * self.min_poly[i]
        self._power_table = table
        self._zero = CycNum(self, (0,) * self.degree)
        self._one = self.element({0: 1})

    def zero(self) -> "CycNum":
        return self._zero

    def one(self) -> "CycNum":
        return self._one

    def zeta(self, power: int = 1) -> "CycNum":
        return self.element({power: 1})

    def from_rational(self, value) -> "CycNum":
        return self.element({0: Fraction(value)})

    def element(self, powers: dict[int, Fraction]) -> "CycNum":
        """Build the element sum_k c_k * zeta^k from a sparse power map of
        int or Fraction coefficients, reducing exponents modulo the order
        and then modulo Phi."""
        den = lcm(*(c.denominator for c in powers.values()))
        nums = [0] * self.degree
        for k, c in powers.items():
            if c:
                scaled = c.numerator * (den // c.denominator)
                for i, t in self._power_table[k % self.order]:
                    nums[i] += scaled * t
        return CycNum(self, tuple(nums), den)

    def __repr__(self):
        return f"Q(zeta_{self.order})"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    if order > MAX_FIELD_ORDER:
        raise FieldCapError(order, MAX_FIELD_ORDER)
    return CyclotomicField(order)


def _terms(x: "CycNum") -> list[tuple[int, int]]:
    """The nonzero numerators of x as (power of zeta, integer) pairs."""
    return [(i, c) for i, c in enumerate(x.nums) if c]


def _dot(field: CyclotomicField, pairs) -> "CycNum":
    """sum of x*y over `pairs` of (x.den * y.den, terms of x, terms of y):
    every product over the lcm of the denominators, one convolution buffer,
    one reduction modulo Phi_R through the power table."""
    if not pairs:
        return field.zero()
    den = pairs[0][0] if len(pairs) == 1 else lcm(*(d for d, _, _ in pairs))
    deg = field.degree
    conv = [0] * (2 * deg - 1)
    for d, left, right in pairs:
        scale = den // d
        for i, a in left:
            a *= scale
            for j, b in right:
                conv[i + j] += a * b
    table = field._power_table
    for k in range(deg, len(conv)):
        c = conv[k]
        if c:
            for i, t in table[k]:
                conv[i] += c * t
    del conv[deg:]
    return CycNum(field, tuple(conv), den)


class CycNum:
    """An element of Q(zeta_R) in normal form; immutable and hashable.

    The value is sum_k nums[k] * zeta^k / den with integer `nums` of length
    phi(R) and a positive integer `den`; the constructor divides out
    gcd(den, *nums), so the pair is unique.
    """

    __slots__ = ("field", "nums", "den", "_hash")

    def __init__(self, field: CyclotomicField, nums: tuple[int, ...], den: int = 1):
        if len(nums) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        if den != 1:
            if den < 1:
                raise ValueError("denominator must be positive")
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(c // g for c in nums)
                den //= g
        self.field = field
        self.nums = nums
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of zeta^0, ..., zeta^(phi(R)-1)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _operand(self, other):
        """`other` as an element of this field, or NotImplemented for a
        type that is not a CycNum or a rational."""
        if isinstance(other, CycNum):
            if self.field is not other.field:
                raise RequirementError(
                    f"field mismatch: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return CycNum(self.field, tuple(map(add, self.nums, other.nums)), d1)
        return CycNum(self.field, tuple(a * d2 + b * d1 for a, b in
                                        zip(self.nums, other.nums)), d1 * d2)

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return CycNum(self.field, tuple(map(sub, self.nums, other.nums)), d1)
        return CycNum(self.field, tuple(a * d2 - b * d1 for a, b in
                                        zip(self.nums, other.nums)), d1 * d2)

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.nums), self.den)

    __radd__ = __add__

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """Integer convolution of the numerators, reduced modulo Phi_R
        (`_dot` of one pair); the denominators multiply."""
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return _dot(self.field, ((self.den * other.den, _terms(self), _terms(other)),))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, CycNum):
            if self.field is other.field:
                return self.den == other.den and self.nums == other.nums
            # across fields only rational values compare equal, as they hash
            value = self.as_rational()
            return value is not None and value == other.as_rational()
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self):
        # a rational value equals its int/Fraction, so it hashes like one
        if self._hash is None:
            if any(self.nums[1:]):
                self._hash = hash((self.field.order, self.nums, self.den))
            else:
                self._hash = hash(Fraction(self.nums[0], self.den))
        return self._hash

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm on
        (self as polynomial, Phi_R) over the rationals."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # r0 = Phi, r1 = self; track t with t*self = r (mod Phi)
        r0 = [Fraction(c) for c in self.field.min_poly]
        r1 = list(self.coeffs)
        while r1 and not r1[-1]:
            r1.pop()
        t0, t1 = [], [_ONE]
        while True:
            # trim
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = _ONE / r1[0]
                coeffs = {k: c * inv for k, c in enumerate(t1)}
                return self.field.element(coeffs)
            if not r1:  # pragma: no cover - impossible, Phi is irreducible
                raise InternalInvariantError("gcd with Phi_R is not constant")
            # divide r0 by r1
            q = [_ZERO] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for k in range(len(q) - 1, -1, -1):
                f = rem[k + len(r1) - 1] / r1[-1]
                q[k] = f
                if f:
                    for j, c in enumerate(r1):
                        rem[k + j] -= f * c
            rem = rem[: len(r1) - 1]
            # t_next = t0 - q*t1
            qt = _poly_mul(q, t1)
            t_next = [_ZERO] * max(len(t0), len(qt))
            for i, c in enumerate(t0):
                t_next[i] += c
            for i, c in enumerate(qt):
                t_next[i] -= c
            r0, r1 = r1, rem
            t0, t1 = t1, t_next

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def as_rational(self) -> Fraction | None:
        """The rational value if this element lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def embed(self, target: CyclotomicField) -> "CycNum":
        """Image in Q(zeta_M) under zeta_N -> zeta_M^(M/N); requires N | M."""
        n, m = self.field.order, target.order
        if m % n != 0:
            raise RequirementError(f"no embedding: {n} does not divide {m}")
        if target is self.field:
            return self
        step = m // n
        nums = [0] * target.degree
        for k, c in enumerate(self.nums):
            if c:
                for i, t in target._power_table[k * step]:
                    nums[i] += c * t
        return CycNum(target, tuple(nums), self.den)

    def to_literal(self) -> str:
        """Deterministic literal string, e.g. '-1/2*z^3 + 1/2*z'."""
        terms = []
        for k, c in enumerate(self.nums):
            if not c:
                continue
            text = str(Fraction(abs(c), self.den))
            if k:
                text += "*z" if k == 1 else f"*z^{k}"
            terms.append((text, c < 0))
        if not terms:
            return "0"
        out = ("-" if terms[0][1] else "") + terms[0][0]
        for text, neg in terms[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __repr__(self):
        return f"CycNum({self.field!r}, {self.to_literal()})"


class LiteralSyntaxError(RequirementError):
    """Bad cyclotomic literal; carries the bare reason and its 0-based offset."""

    def __init__(self, message, position):
        self.reason = message
        self.position = position
        super().__init__(f"col {position + 1}: {message}")


def parse_literal(text: str, field: CyclotomicField) -> CycNum:
    """Parse a sum of terms ``c``, ``c*z^k``, ``c*z`` or bare ``z^k``/``z``
    where c is an integer or integer fraction p/q.  Whitespace insignificant."""
    powers: dict[int, Fraction] = {}
    i, n = 0, len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse_uint(i, what):
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise LiteralSyntaxError(f"expected {what}", start)
        return int(text[start:i]), i

    first = True
    i = skip_ws(i)
    if i == n:
        raise LiteralSyntaxError("empty literal", 0)
    while i < n:
        sign = 1
        i = skip_ws(i)
        if not first:
            if i >= n or text[i] not in "+-":
                raise LiteralSyntaxError("expected '+' or '-'", i)
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif i < n and text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        first = False
        coef = _ONE
        has_coef = False
        if i < n and text[i].isdigit():
            num, i = parse_uint(i, "number")
            den = 1
            i2 = skip_ws(i)
            if i2 < n and text[i2] == "/":
                den, i = parse_uint(skip_ws(i2 + 1), "denominator")
                if den == 0:
                    raise LiteralSyntaxError("zero denominator", i2 + 1)
            coef = Fraction(num, den)
            has_coef = True
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                has_coef = False  # a z-part must follow
                if i >= n or text[i] != "z":
                    raise LiteralSyntaxError("expected 'z' after '*'", i)
        power = 0
        if i < n and text[i] == "z":
            power = 1
            i = skip_ws(i + 1)
            if i < n and text[i] == "^":
                power, i = parse_uint(skip_ws(i + 1), "exponent")
                i = skip_ws(i)
        elif not has_coef:
            raise LiteralSyntaxError("expected a term", i)
        powers[power] = powers.get(power, _ZERO) + sign * coef
        i = skip_ws(i)
    return field.element(powers)
