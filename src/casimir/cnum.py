"""Exact complex-rational scalars used as expression coefficients.

A real or imaginary part is a Python ``int`` whenever it is integral and a
``fractions.Fraction`` only when a denominator is really present.  An int
compares, hashes and prints the same as the equal Fraction, so the choice is
invisible to keys, hashes and printed forms; it only keeps the common
small-integer arithmetic on machine ints.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, log10


# The interpreter's int-string limit, 4300 digits by default: the most digits a
# literal may write, or a numerator or denominator of an exact power need
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def read_rational(text: str) -> Fraction:
    """The rational a literal such as ``7``, ``1.5e-3`` or ``2/3`` writes, read
    by ``fractions.Fraction``.  A literal whose length plus exponent passes
    DIGIT_LIMIT raises ValueError before that."""
    mant, _, expo = text.lower().partition("e")
    try:
        shift = abs(int(expo)) if expo else 0
    except ValueError:
        shift = 0  # Fraction refuses the literal
    if len(mant) + shift > DIGIT_LIMIT:
        raise ValueError(f"a literal may write at most {DIGIT_LIMIT} digits, counting its exponent")
    return Fraction(text)


def as_fraction(x) -> int | Fraction:
    """The exact rational x, as an int when its denominator is 1."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, (Fraction, int)):
        return as_fraction(Fraction(x))
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _div(a, b) -> int | Fraction:
    """Exact a / b of two rationals (b nonzero)."""
    if type(a) is int and type(b) is int:
        return as_fraction(Fraction(a, b))
    return as_fraction(a / b)


class CNum:
    """Complex number with exact rational real and imaginary parts.

    Immutable; all arithmetic is exact, so identities that hold over the
    rationals hold bit-for-bit here.  ``re`` and ``im`` are ints when
    integral, Fractions otherwise (see the module docstring).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else as_fraction(re)
        self.im = im if type(im) is int else as_fraction(im)

    # real-only fast paths test `not im`; multiplying by the shared CN_ONE
    # returns the other side
    def __add__(self, other: "CNum") -> "CNum":
        if not self.im and not other.im:
            return CNum(self.re + other.re)
        return CNum(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CNum") -> "CNum":
        return CNum(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CNum") -> "CNum":
        if other is CN_ONE:
            return self
        if self is CN_ONE:
            return other
        if not self.im and not other.im:
            return CNum(self.re * other.re)
        return CNum(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "CNum":
        return CNum(-self.re, -self.im)

    def inverse(self) -> "CNum":
        re, im = self.re, self.im
        d = re * re + im * im
        if not d:
            raise ZeroDivisionError("division by exact zero")
        return CNum(_div(re, d), _div(-im, d))

    def __truediv__(self, other: "CNum") -> "CNum":
        return self * other.inverse()

    def __pow__(self, n: int) -> "CNum":
        if n < 0:
            return self.inverse() ** (-n)
        out = CN_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CNum) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def power_fits(self, k: int, digits: int) -> bool:
        """Whether 1 + k log10 h <= digits, k >= 0, for h = max(|a| d + |c| b, b d),
        self = a/b + i c/d: h^k bounds the numerators and denominators of self^k."""
        re, im = self.re, self.im
        h = max(abs(re.numerator) * im.denominator + abs(im.numerator) * re.denominator,
                re.denominator * im.denominator)
        return h == 1 or k <= (digits - 1) / log10(h)  # int-float comparison is exact

    def is_one(self) -> bool:
        return not self.im and self.re == 1

    def is_real(self) -> bool:
        return not self.im

    def negative_lead(self) -> bool:
        """Sign used for canonical orientation: (re, im) lexicographic."""
        return self.re < 0 or (not self.re and self.im < 0)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"CNum({self.re})"
        return f"CNum({self.re}, {self.im})"


CN_ONE = CNum(1)
CN_MINUS_ONE = CNum(-1)
CN_I = CNum(0, 1)


# square_part and divisors trial-divide up to these bounds only, so their
# cost is bounded too
SQUARE_PART_BOUND = 10_000
DIVISOR_BOUND = 1_000_000


class TrialDivisionError(ArithmeticError):
    """An integer that trial division up to its bound cannot settle: the
    square part of a radicand, or the divisors of a polynomial coefficient."""


def _trial_division(n: int, bound: int) -> tuple[dict, int, int]:
    """Divide n >= 1 by d = 2, 3, 5, 7, ... while d <= bound and d * d is at
    most the cofactor: the prime powers [(p, e), ...] found, the cofactor m
    and the first d not tried.  m has no prime factor below d, so it is 1 or
    a prime when m < d * d."""
    powers = []
    m, d = n, 2
    while d * d <= m and d <= bound:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            powers.append((d, e))
        d += 1 if d == 2 else 2
    return powers, m, d


def square_part(n: int) -> tuple[int, int]:
    """Split n >= 0 as s*s*f with f squarefree.

    Trial division by d <= SQUARE_PART_BOUND leaves a cofactor m with no
    prime factor below d.  It is settled exactly when it is a perfect square,
    or when m < d^3, so that it has at most two prime factors and is
    squarefree unless a square.  Any other cofactor raises
    TrialDivisionError."""
    if n in (0, 1):
        return 1, n
    powers, m, d = _trial_division(n, SQUARE_PART_BOUND)
    s, f = 1, 1
    for p, e in powers:
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    if m >= d * d:
        r = isqrt(m)
        if r * r == m:
            return s * r, f
        if m >= d ** 3:
            raise TrialDivisionError(f"cannot find the square part of the radicand {n}: "
                                     f"it has no prime factor up to {SQUARE_PART_BOUND}")
    return s, f * m


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 0 in ascending order, from its prime powers.

    Trial division by d <= DIVISOR_BOUND settles them when the cofactor left
    is 1 or a prime (m < d^2); any other cofactor raises TrialDivisionError."""
    powers, m, d = _trial_division(n, DIVISOR_BOUND)
    if m >= d * d:
        raise TrialDivisionError(f"cannot find the divisors of the coefficient {n}: "
                                 f"it has no prime factor up to {DIVISOR_BOUND}")
    if m > 1:
        powers.append((m, 1))
    out = [1]
    for p, e in powers:
        out = [x * p ** k for x in out for k in range(e + 1)]
    return sorted(out) if n else []


@lru_cache(maxsize=512)  # products meet few radicands, each many times
def fraction_sqrt(num: int, den: int) -> tuple[int | Fraction, int]:
    """Write sqrt(num/den) > 0 as q * sqrt(f) with q rational, f a squarefree int."""
    if num <= 0 or den <= 0:
        raise ValueError("fraction_sqrt needs a positive rational")
    g = gcd(num, den)
    num, den = num // g, den // g
    s, f = square_part(num * den)
    return as_fraction(Fraction(s, den)), f


def fraction_gcd(a, b) -> int | Fraction:
    """Greatest common divisor of two nonnegative rationals."""
    return as_fraction(Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator)))
