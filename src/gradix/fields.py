"""Exact scalar fields: the rationals and prime fields.

A field object knows how to build, combine and print its elements.  Element
values are plain Python data (Fraction for Q, int in range(p) for F_p), so
they hash, compare and serialize without ceremony; all arithmetic goes
through the field object.  Both are numbers.Rational, each value with its
own numerator and denominator (an int over 1).  A field's JSON description
is read by specfiles.load_field; scalars are read here, by coerce.
"""

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import FormatError

# Strong-probable-prime tests to the first 13 prime bases are exact below
# 3317044064679887385961981, the least composite passing all of them
# (Sorenson and Webster, 2015); larger moduli are refused.
MAX_PRIME = 3317044064679887385961980
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# A rational literal: [+-]digits, or [+-]digits/digits with a nonzero
# denominator, in ASCII digits.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")

# Python converts ints to and from decimal strings only up to 4300 digits,
# which every int of at most _INT_BITS bits has.  Input keeps that bound;
# output writes longer ints 1000 digits at a time, and as JSON strings.
_CHUNK = 10**1000
_INT_BITS = 14284


def is_prime(n):
    """Deterministic Miller-Rabin primality for 0 <= n <= MAX_PRIME."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_root(n, d):
    """The integer d-th root of n >= 0 when n is a perfect d-th power, else None."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x if x**d == n else None
        x = y


def _decimal(n):
    """str(n) for an int n of any length."""
    sign, n, low = "-" if n < 0 else "", abs(n), []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        low.append(str(r).zfill(1000))
    return sign + str(n) + "".join(reversed(low))


class Rationals:
    """The field Q, backed by fractions.Fraction."""

    kind = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        """Turn an int, Fraction, or 'a' or 'a/b' string into an element."""
        if isinstance(value, bool):
            raise FormatError(f"not a rational scalar: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            literal = _RATIONAL.fullmatch(value)
            if literal is None:
                raise FormatError(f"bad rational literal {value[:40]!r}: not [+-]digits[/digits], denominator > 0")
            try:
                return Fraction(int(literal[1]), int(literal[2] or 1))
            except ValueError as exc:
                raise FormatError(f"rational literal {value[:40]!r}... is past Python's digit limit") from exc
        raise FormatError(f"not a rational scalar: {value!r}")

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def div(self, a, b):
        return a * self.inv(b)

    def power(self, a, k):
        return a**k

    def integers(self, values):
        """The list of values as integer numerators over one denominator d,
        the lcm of theirs; returns (numerators, d)."""
        d = lcm(*(a.denominator for a in values))
        return [a.numerator * (d // a.denominator) for a in values], d

    def quotient(self, n, d):
        """The element n/d for integers n and d != 0."""
        return Fraction(n, d)

    def root(self, a, d):
        """Some z with z**d == a for a unit a and a nonzero integer d, or None."""
        if d < 0:
            a, d = 1 / a, -d
        if a < 0 and d % 2 == 0:
            return None
        num, den = _exact_root(abs(a.numerator), d), _exact_root(a.denominator, d)
        if num is None or den is None:
            return None
        return Fraction(num if a > 0 else -num, den)

    def is_zero(self, a):
        """Whether a is zero; exact on an integer numerator over any denominator."""
        return a == 0

    def equal(self, a, b):
        return a == b

    def to_json(self, a):
        if a.denominator == 1 and a.numerator.bit_length() <= _INT_BITS:
            return a.numerator
        return self.format(a)

    def format(self, a):
        return _decimal(a.numerator) + ("" if a.denominator == 1 else "/" + _decimal(a.denominator))

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p for a prime p; elements are ints in range(p)."""

    kind = "Fp"

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise FormatError(f"prime field needs a prime, got {p!r}")
        if p > MAX_PRIME:
            raise FormatError(f"prime field modulus {p} exceeds the ceiling MAX_PRIME = {MAX_PRIME}")
        if not is_prime(p):
            raise FormatError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"not an F_{self.p} scalar: {value!r}")
        return value % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, k):
        return pow(a, k, self.p)

    def integers(self, values):
        """Elements already are integers: the list as it is, over d = 1."""
        return values, 1

    def quotient(self, n, d):
        """The element of an integer sum n over a denominator d from
        integers, which is always 1 here."""
        return n % self.p

    def root(self, a, d):
        """Some z with z**d == a for a unit a and a nonzero integer d, or None.

        With g = gcd(d, p - 1), a has a d-th root iff a^((p-1)/g) = 1.  A
        g-th root w is taken one prime factor q of g at a time (a q-th root
        of a g-th power is a (g/q)-th power), and z = w^e for e the inverse
        of d/g mod (p-1)/g.  g divides a Smith diagonal entry of a small
        coboundary system, so trial division factors it.
        """
        p, n = self.p, self.p - 1
        g = gcd(d, n)
        if pow(a, n // g, p) != 1:
            return None
        w, rest, q = a, g, 2
        while rest > 1:
            while rest % q == 0:
                w = self._prime_root(w, q)
                rest //= q
            q += 1
        return pow(w, pow(d // g, -1, n // g), p)

    def _prime_root(self, a, q):
        """Some q-th root of a q-th power a, for a prime q dividing p - 1
        (Adleman, Manders and Miller, 1977).

        With p - 1 = q^s t and q not dividing t, x = a^(q^-1 mod t) has
        x^q = a b for b in the q-Sylow subgroup S.  The discrete log of
        a / x^q to a generator of S, read digit by digit in base q, is a
        multiple of q; its q-th part gives y in S with (x y)^q = a.
        """
        p, n = self.p, self.p - 1
        s, t = 0, n
        while t % q == 0:
            s, t = s + 1, t // q
        x = pow(a, pow(q, -1, t), p)
        h = a * pow(x, -q, p) % p
        rho = next(r for r in range(2, p) if pow(r, n // q, p) != 1)
        zeta = pow(rho, t, p)
        gamma = pow(zeta, q ** (s - 1), p)
        k = 0
        for i in range(s):
            e = pow(h * pow(zeta, -k, p) % p, q ** (s - 1 - i), p)
            k += next(j for j in range(q) if pow(gamma, j, p) == e) * q**i
        return x * pow(zeta, k // q, p) % p

    def is_zero(self, a):
        """Whether a is zero; exact on an integer numerator from integers() (over 1)."""
        return a % self.p == 0

    def equal(self, a, b):
        return (a - b) % self.p == 0

    def to_json(self, a):
        return a % self.p

    def format(self, a):
        return str(a % self.p)

    def describe(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

