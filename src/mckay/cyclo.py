"""Exact arithmetic in cyclotomic fields Q(zeta_R).

An element is stored in normal form: a tuple of phi(R) integer numerators
and one positive integer denominator, standing for
    (nums[0] + nums[1]*zeta + ... + nums[phi(R)-1]*zeta^(phi(R)-1)) / den,
reduced modulo the R-th cyclotomic polynomial Phi_R and with
gcd(den, *nums) = 1.  Phi_R is built as the Moebius product of the
binomials x^(R/d) - 1 over the squarefree divisors d of R (Lang, Algebra,
VI.3), each factor one pass over its coefficients.  The normal form is
unique, so equality and hashing compare integer tuples.  Arithmetic is
integer arithmetic: sums add numerators over a common denominator,
products convolve the numerators and reduce through the field's table of
powers of zeta; nothing divides.  One kernel, `_dot`, does that
convolution and reduction and returns the normal form (nums, den):
`CycNum.__mul__` wraps it, and the row kernel of `linalg` uses it on the
sparse integer rows of a closure, reducing each entry's sum of products
once.  `fractions.Fraction` appears only at the boundaries:
building elements from rational coefficients, reading them back
(`as_rational`, `to_literal`), and hashing a rational element.
`CyclotomicField.embed` lifts integer numerators into a larger field.  No
command runs a `CycNum` sum, product or comparison.

Division and root search run modulo a split prime P = 1 (mod lcm(2, R)),
where zeta maps to an omega of order R (`split_prime`): the modular method
of von zur Gathen and Gerhard (Modern Computer Algebra, chapters 5, 14).

Convention: the field generator ``zeta`` is the distinguished primitive
R-th root of unity.  All gradings downstream depend on this choice; the
opposite identification is obtained by inverting group generators, not by
a second field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import add, sub

from .errors import FieldCapError, RequirementError

_DIGITS = frozenset("0123456789")  # str.isdigit also takes '²', which int() refuses

# Largest cyclotomic order a field is built for; larger orders are refused
# before Phi_R or the power table is computed.  The power table costs
# O(R * phi(R)) and a dense product O(phi(R)^2): building the field and
# multiplying two dense elements took at most 0.83 s for R <= 2048 (worst
# at the primes R = 2017 and 2039, 0.05-0.16 s at R = 2040, 2046 and 2048;
# fresh processes, Python 3.11 on a 2-core x86-64 host), against 1.3 s at
# R = 3001 and 3.2 s at R = 5003.
MAX_FIELD_ORDER = 2048


def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    return primes


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    for q in prime_factors(n):
        n -= n // q
    return n


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of Phi_order, ascending: the Moebius product of the
    binomials (x^(order/d) - 1)^mu(d) over the squarefree d | order, the
    signed subsets of its primes.  It multiplies by each binomial with
    mu(d) = 1, then divides exactly by each with mu(d) = -1; each step is
    one pass over the coefficients."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ups, downs = [order], []  # order / d for mu(d) = 1 and for mu(d) = -1
    for q in prime_factors(order):
        ups, downs = ups + [e // q for e in downs], downs + [e // q for e in ups]
    poly = [1]
    for e in ups:  # p * (x^e - 1) has the coefficients p[i - e] - p[i]
        poly = list(map(sub, [0] * e + poly, poly + [0] * e))
    for e in downs:  # p = q * (x^e - 1) gives q[i] = q[i - e] - p[i]
        poly = [-c for c in poly]
        for i in range(e, len(poly)):
            poly[i] += poly[i - e]
        if any(poly[-e:]):
            raise ArithmeticError("nonzero remainder")
        del poly[-e:]
    return tuple(poly)


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

    def element(self, powers: dict[int, Fraction], den: int = 1) -> "CycNum":
        """Build the element (sum_k c_k * zeta^k) / den from a sparse power
        map of int or Fraction coefficients and a positive integer `den`,
        reducing exponents modulo the order and then modulo Phi."""
        scale = lcm(*(c.denominator for c in powers.values()))
        nums = [0] * self.degree
        for k, c in powers.items():
            if c:
                scaled = c.numerator * (scale // c.denominator)
                for i, t in self._power_table[k % self.order]:
                    nums[i] += scaled * t
        return CycNum(self, tuple(nums), den * scale)

    def embed(self, nums: tuple[int, ...], source: "CyclotomicField") -> tuple[int, ...]:
        """The numerators `nums` of Q(zeta_N) = `source` mapped into this
        Q(zeta_M) under zeta_N -> zeta_M^(M/N), N | M; `nums` if the same."""
        n, m = source.order, self.order
        if m % n != 0:
            raise RequirementError(f"no embedding: {n} does not divide {m}")
        if source is self:
            return nums
        out = [0] * self.degree
        for k, c in enumerate(nums):
            if c:
                for i, t in self._power_table[k * m // n]:
                    out[i] += c * t
        return tuple(out)

    def __repr__(self):
        return f"Q(zeta_{self.order})"


@lru_cache(maxsize=None)
def cyclotomic_field(order: int) -> CyclotomicField:
    if order > MAX_FIELD_ORDER:
        raise FieldCapError(order, MAX_FIELD_ORDER)
    return CyclotomicField(order)


# The first 13 primes: Miller-Rabin to these bases is deterministic below
# 3.3 * 10^24 (Sorenson and Webster, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases `_WITNESSES`; exact for n < 3.3 * 10^24."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    return all(x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))
               for x in (pow(a, (n - 1) >> s, n) for a in _WITNESSES))


def split_prime(order: int, above: int = 2 ** 62) -> tuple[int, int]:
    """The first prime P > `above` with P = 1 (mod M), M = lcm(2, order),
    and omega of order exactly `order` mod P: the image of zeta under
    Q(zeta_order) -> F_P, where the roots of unity mu_M map injectively.
    omega is x^(M/order) for the x of order M that `_split` finds once per
    (M, above), so orders sharing M share P."""
    m = lcm(2, order)
    p, x = _split(m, above)
    return p, pow(x, m // order, p)


@lru_cache(maxsize=None)
def _split(m: int, above: int) -> tuple[int, int]:
    """P for `split_prime`, and the first x = a^((P-1)/m), a = 2, 3, ..., of
    order m: with x^(m/q) != 1 for every prime q dividing m."""
    p = next(p for p in count(above - above % m + 1, m) if p > above and is_prime(p))
    factors = prime_factors(m)
    for a in count(2):
        x = pow(a, (p - 1) // m, p)
        if all(pow(x, m // q, p) != 1 for q in factors):
            return p, x


def _terms(nums: tuple[int, ...]) -> list[tuple[int, int]]:
    """The nonzero numerators as (power of zeta, integer) pairs."""
    return [(i, c) for i, c in enumerate(nums) if c]


def _dot(field: CyclotomicField, pairs) -> tuple[tuple[int, ...], int]:
    """The normal form (nums, den) of the sum of x*y over the nonempty
    `pairs` of (x.den * y.den, terms of x, terms of y): every product over
    the lcm of the denominators, one convolution buffer, one reduction
    modulo Phi_R through the power table, one division by gcd(den, *nums)."""
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
    if den != 1:
        g = gcd(den, *conv)
        if g != 1:
            conv = [c // g for c in conv]
            den //= g
    return tuple(conv), den


class CycNum:
    """An element of Q(zeta_R) in normal form; immutable and hashable.

    The value is sum_k nums[k] * zeta^k / den with integer `nums` of length
    phi(R) and a positive integer `den`; the constructor divides out
    gcd(den, *nums), so the pair is unique.
    """

    __slots__ = ("field", "nums", "den")

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
        return self + -other

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.nums), self.den)

    __radd__ = __add__

    def __mul__(self, other):
        """Integer convolution of the numerators, reduced modulo Phi_R
        (`_dot` of one pair); the denominators multiply."""
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field, *_dot(self.field, (
            (self.den * other.den, _terms(self.nums), _terms(other.nums)),)))

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
        if any(self.nums[1:]):
            return hash((self.field.order, self.nums, self.den))
        return hash(Fraction(self.nums[0], self.den))

    def as_rational(self) -> Fraction | None:
        """The rational value if this element lies in Q, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def embed(self, target: CyclotomicField) -> "CycNum":
        """Image in Q(zeta_M) under zeta_N -> zeta_M^(M/N); requires N | M."""
        return CycNum(target, target.embed(self.nums, self.field), self.den)

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
    where c is an integer or integer fraction p/q.  Whitespace insignificant.
    Each power's coefficient is summed as an integer pair (num, den)."""
    powers: dict[int, tuple[int, int]] = {}
    i, n = 0, len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse_uint(i, what):
        start = i
        while i < n and text[i] in _DIGITS:
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
        num = den = 1
        has_coef = False
        if i < n and text[i] in _DIGITS:
            num, i = parse_uint(i, "number")
            i2 = skip_ws(i)
            if i2 < n and text[i2] == "/":
                den, i = parse_uint(skip_ws(i2 + 1), "denominator")
                if den == 0:
                    raise LiteralSyntaxError("zero denominator", i2 + 1)
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
        a, b = powers.get(power, (0, 1))
        powers[power] = a * den + sign * num * b, b * den
        i = skip_ws(i)
    common = lcm(*(b for _, b in powers.values()))
    return field.element(
        {k: a * (common // b) for k, (a, b) in powers.items()}, common)
