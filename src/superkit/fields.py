"""Exact scalar fields: the rationals and prime fields of odd characteristic.

Every computation in this package is exact.  A scalar of the rationals Q
is a Python ``int`` when it is integral and a ``fractions.Fraction`` only
otherwise (most scalars met in practice are integers, and int arithmetic
is several times faster); a scalar of F_p (p an odd prime) is an
:class:`FpElement`, which combines only with scalars of its own field:
an int or a Fraction becomes one through from_int, from_fraction or
parse, never by mixing it into an operation.  Characteristic 2 is
rejected because sign rules and the 1/2 appearing in squaring identities
need 2 invertible.

Division goes through :meth:`Field.inv`: ``1 / x`` for two ints would be
a float, so no scalar is divided with ``/``.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class FpElement:
    """An element of Z/p represented by its least nonnegative residue.

    +, -, * and == take another FpElement of the same p (another p raises
    FieldError); any other operand gives NotImplemented, so a Poly or
    Element on the other side supplies the reflected operation."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        if other.p != self.p:
            raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
        return FpElement(self.p, self.v + other.v)

    def __sub__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        if other.p != self.p:
            raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
        return FpElement(self.p, self.v - other.v)

    def __mul__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        if other.p != self.p:
            raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
        return FpElement(self.p, self.v * other.v)

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if not isinstance(other, FpElement):
            return NotImplemented
        if other.p != self.p:
            raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
        return self.v == other.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.v, self.p)


# Miller-Rabin with the prime bases up to 41 decides primality exactly
# below this bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; FieldError for n at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise FieldError("p must be below %d to be tested for primality" % _MR_BOUND)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
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


class Field:
    """Common interface: Rationals() or PrimeField(p).  Each field has
    zero, one, from_int, from_fraction, inv (1/x, ZeroDivisionError for
    x = 0) and render."""

    def sum(self, xs):
        total = self.zero
        for x in xs:
            total = total + x
        return total

    def parse(self, text):
        """A scalar from text such as "-3/7"; FieldError if it is not one."""
        try:
            fr = Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad scalar %r" % (text,)) from exc
        return self.from_fraction(fr)


class Rationals(Field):
    char = 0
    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def from_fraction(self, fr):
        fr = Fraction(fr)
        return fr.numerator if fr.denominator == 1 else fr

    def inv(self, x):
        """1/x as an int when it is integral (x = ±1 or 1/n), else a Fraction."""
        if x.numerator in (1, -1):
            return x.numerator * x.denominator
        return Fraction(x.denominator, x.numerator)

    def render(self, x):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        self.p = p
        self.char = p
        self.name = "F_%d" % p
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def from_int(self, n):
        return FpElement(self.p, n)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise FieldError("denominator divisible by %d" % self.p)
        return FpElement(self.p, fr.numerator * pow(fr.denominator, -1, self.p))

    def inv(self, x):
        if not x.v:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.p, pow(x.v, -1, self.p))

    def render(self, x):
        return str(x.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


def parse_field(spec):
    """Parse a field description: "q" for the rationals, "p=5" for F_5."""
    spec = str(spec).strip().lower()
    if spec in ("q", "qq", "0"):
        return Rationals()
    digits = spec[2:] if spec.startswith("p=") else spec
    if not digits.strip().isdecimal():
        raise FieldError("cannot parse field spec %r" % (spec,))
    return PrimeField(int(digits))
