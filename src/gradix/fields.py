"""Exact scalar fields: the rationals and prime fields.

A field object knows how to build, combine and print its elements.  Element
values are plain Python data (Fraction for Q, int in range(p) for F_p), so
they hash, compare and serialize without ceremony; all arithmetic goes
through the field object.
"""

from fractions import Fraction

from .errors import FormatError, GradixError

# Strong-probable-prime tests to the first 13 prime bases are exact below
# 3317044064679887385961981, the least composite passing all of them
# (Sorenson and Webster, 2015); larger moduli are refused.
MAX_PRIME = 3317044064679887385961980
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


class Rationals:
    """The field Q, backed by fractions.Fraction."""

    kind = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        """Turn an int, Fraction, or 'a/b' string into an element."""
        if isinstance(value, bool):
            raise FormatError(f"not a rational scalar: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational literal {value!r}") from exc
        raise FormatError(f"not a rational scalar: {value!r}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def div(self, a, b):
        return a * self.inv(b)

    def is_zero(self, a):
        return a == 0

    def equal(self, a, b):
        return a == b

    def to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def format(self, a):
        return str(a)

    def describe(self):
        return "Q"

    def sample(self, rng):
        """A random element, biased toward small values."""
        num = rng.randint(-9, 9)
        den = rng.choice([1, 1, 1, 2, 3, 5])
        return Fraction(num, den)

    def sample_nonzero(self, rng):
        while True:
            a = self.sample(rng)
            if a != 0:
                return a

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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def equal(self, a, b):
        return (a - b) % self.p == 0

    def to_json(self, a):
        return a % self.p

    def format(self, a):
        return str(a % self.p)

    def describe(self):
        return f"F_{self.p}"

    def sample(self, rng):
        return rng.randrange(self.p)

    def sample_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_json(data):
    """Build a field from its JSON description {"kind": "Q"} or {"kind": "Fp", "p": 5}."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError(f"field description must be an object with 'kind', got {data!r}")
    kind = data["kind"]
    if kind == "Q":
        return Rationals()
    if kind == "Fp":
        if "p" not in data:
            raise FormatError("field of kind 'Fp' needs 'p'")
        return PrimeField(data["p"])
    raise FormatError(f"unknown field kind {kind!r}")


def field_to_json(field):
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "Fp", "p": field.p}
    raise GradixError(f"cannot serialize field {field!r}")
