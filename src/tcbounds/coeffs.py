"""Exact coefficient arithmetic: the rationals Q and prime fields Z_p.

All linear algebra in this package is parameterized by a field object with a
small arithmetic protocol (coerce/add/sub/mul/neg/inv).  Field elements are
plain values: ``fractions.Fraction`` for Q, ints in ``range(p)`` for Z_p, so
zero tests are ordinary truth tests and equality is ``==``.  A report forms no
rational, so ``fractions`` loads only where one is formed.
"""

from __future__ import annotations


#: Miller-Rabin with these bases decides primality exactly below 2^64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test; raises ValueError for p >= 2^64."""
    if p >= 1 << 64:
        raise ValueError(f"{p} is too large: primality is decided only below 2^64")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; elements are ``Fraction`` values."""

    characteristic = 0

    @property
    def zero(self):
        from fractions import Fraction
        return Fraction(0)

    @property
    def one(self):
        from fractions import Fraction
        return Fraction(1)

    def coerce(self, value):
        from fractions import Fraction
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def describe(self) -> str:
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field Z_p for a prime p; elements are ints in ``range(p)``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def coerce(self, value):
        if type(value) is int:
            return value % self.p
        from fractions import Fraction
        if isinstance(value, Fraction):
            num = value.numerator % self.p
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} not invertible mod {self.p}"
                )
            return num * pow(den, self.p - 2, self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 not invertible in Z_{self.p}")
        return pow(a, self.p - 2, self.p)

    def describe(self) -> str:
        return f"Z_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


#: shared Q instance; PrimeField instances are cheap to construct on demand
QQ = Rationals()


def parse_field(text: str):
    """Parse a field descriptor: ``q``/``rational`` for Q, ``zp:5`` or ``5`` for Z_5."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return QQ
    if t.startswith("zp:"):
        t = t[3:]
    if not t.isdigit():
        raise ValueError(f"cannot parse field descriptor {text!r}")
    return PrimeField(int(t))
