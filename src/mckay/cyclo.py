"""Exact arithmetic in cyclotomic fields Q(zeta_R).

Elements are stored in normal form: a coefficient vector of length phi(R)
over exact rationals, reduced modulo the R-th cyclotomic polynomial.  The
normal form is unique, so equality and hashing work by comparison.

Convention: the field generator ``zeta`` is the distinguished primitive
R-th root of unity.  All gradings downstream depend on this choice; the
opposite identification is obtained by inverting group generators, not by
a second field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InternalInvariantError, RequirementError

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        # zeta^k in normal form (integer coefficients) for k in [degree, order)
        table = {}
        rep = [-c for c in self.min_poly[:-1]]
        for k in range(self.degree, order):
            table[k] = tuple(rep)
            top = rep[-1]
            rep = [0] + rep[:-1]
            if top:
                for i in range(self.degree):
                    rep[i] -= top * self.min_poly[i]
        self._power_table = table
        self._zero = CycNum(self, (_ZERO,) * self.degree)
        self._one = self.element({0: _ONE})

    def zero(self) -> "CycNum":
        return self._zero

    def one(self) -> "CycNum":
        return self._one

    def zeta(self, power: int = 1) -> "CycNum":
        return self.element({power: _ONE})

    def from_rational(self, value) -> "CycNum":
        return self.element({0: Fraction(value)})

    def element(self, powers: dict[int, Fraction]) -> "CycNum":
        """Build the element sum_k c_k * zeta^k from a sparse power map,
        reducing exponents modulo the order and then modulo Phi."""
        coeffs = [_ZERO] * self.degree
        for k, c in powers.items():
            if not c:
                continue
            k %= self.order
            if k < self.degree:
                coeffs[k] += c
            else:
                for i, t in enumerate(self._power_table[k]):
                    if t:
                        coeffs[i] += c * t
        return CycNum(self, tuple(coeffs))

    def __repr__(self):
        return f"Q(zeta_{self.order})"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


class CycNum:
    """An element of Q(zeta_R) in normal form; immutable and hashable."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        self.field = field
        self.coeffs = coeffs
        self._hash = None

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
        return CycNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.coeffs))

    __radd__ = __add__

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        deg = self.field.degree
        conv = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        return self.field.element({k: c for k, c in enumerate(conv) if c})

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational value equals its int/Fraction, so it hashes like one
        if self._hash is None:
            value = self.as_rational()
            self._hash = hash((self.field.order, self.coeffs) if value is None else value)
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
            qt = _poly_mul_frac(q, t1)
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
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else _ZERO

    def embed(self, target: CyclotomicField) -> "CycNum":
        """Image in Q(zeta_M) under zeta_N -> zeta_M^(M/N); requires N | M."""
        n, m = self.field.order, target.order
        if m % n != 0:
            raise RequirementError(f"no embedding: {n} does not divide {m}")
        if target is self.field:
            return self
        step = m // n
        return target.element({k * step: c for k, c in enumerate(self.coeffs) if c})

    def to_literal(self, symbol: str = "z") -> str:
        """Deterministic literal string, e.g. '-1/2*z^3 + 1/2*z'."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append((str(abs(c)), c < 0))
            else:
                z = symbol if k == 1 else f"{symbol}^{k}"
                terms.append((f"{abs(c)}*{z}", c < 0))
        if not terms:
            return "0"
        out = ("-" if terms[0][1] else "") + terms[0][0]
        for text, neg in terms[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __repr__(self):
        return f"CycNum({self.field!r}, {self.to_literal()})"


def _poly_mul_frac(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def multiplicative_order(x: CycNum, bound: int | None = None) -> int:
    """Least r >= 1 with x^r = 1; the search bound defaults to the field
    order (enough for roots of unity of the form +-zeta^k)."""
    limit = bound if bound is not None else 2 * x.field.order
    acc = x
    one = x.field.one()
    for r in range(1, limit + 1):
        if acc == one:
            return r
        acc = acc * x
    raise RequirementError("element is not a root of unity within the bound")


class LiteralSyntaxError(RequirementError):
    """Bad cyclotomic literal; carries the 0-based offset of the error."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"col {position + 1}: {message}")


def parse_literal(text: str, field: CyclotomicField, symbol: str = "z") -> CycNum:
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
                if i >= n or text[i] != symbol:
                    raise LiteralSyntaxError(f"expected '{symbol}' after '*'", i)
        power = 0
        if i < n and text[i] == symbol:
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
