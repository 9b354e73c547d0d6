"""Exact complex-rational scalars used as expression coefficients.

A real coefficient is a plain Python number: an ``int`` when integral, a
``fractions.Fraction`` only when a denominator is really present.  A
``CNum`` holds only a value whose imaginary part is nonzero: ``CNum(re, im)``
returns the plain real ``re`` when ``im`` is 0, so CNum arithmetic returns a
real whenever the imaginary part cancels.  The kernel therefore computes
with native operators and tests with ``not c`` and ``c == 1``.  An int
compares, hashes and prints the same as the equal Fraction, so the choice is
invisible to keys, hashes and printed forms.  Values are stored in this form
(``normal``), since an integral Fraction would keep later arithmetic off
machine ints.  ``int / int`` and ``int ** -n`` are floats, so every division
and power goes through ``div`` and ``power``, which CNum leaves to them; code
outside the kernel reads a coefficient through ``re_im``, ``is_real`` and
``complex(c)``.
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


def normal(x):
    """The coefficient x in normal form: an integral Fraction or a bool as its
    int; an int, a Fraction with a denominator or a CNum as it is."""
    t = type(x)
    if t is int or t is CNum:
        return x
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, (Fraction, int)):
        return normal(Fraction(x))
    raise TypeError(f"expected int, Fraction or CNum, got {type(x).__name__}")


def is_real(c) -> bool:
    return type(c) is not CNum


def re_im(c) -> tuple:
    """(real part, imaginary part) of a coefficient."""
    return (c.re, c.im) if type(c) is CNum else (c, 0)


def div(a, b):
    """The exact a / b of two coefficients; ZeroDivisionError when b is 0."""
    if not b:
        raise ZeroDivisionError("division by exact zero")
    if type(b) is CNum:
        d = b.re * b.re + b.im * b.im
        return a * CNum(div(b.re, d), div(-b.im, d))
    if type(a) is CNum:
        return CNum(div(a.re, b), div(a.im, b))
    return normal(Fraction(a, b) if type(a) is int and type(b) is int else a / b)


def power(c, n: int):
    """The exact c ** n for an int n; ZeroDivisionError for 0 ** -k."""
    if n < 0:
        c, n = div(1, c), -n
    elif type(c) is int:
        return c ** n
    if type(c) is not CNum:
        return normal(c ** n)
    out = 1
    while n:
        if n & 1:
            out = c * out
        n >>= 1
        if n:
            c = c * c
    return out


def negative_lead(c) -> bool:
    """Sign used for canonical orientation: (re, im) lexicographic."""
    if type(c) is CNum:
        return c.re < 0 or (not c.re and c.im < 0)
    return c < 0


def power_fits(v, k: int, digits: int) -> bool:
    """Whether 1 + k log10 h <= digits, k >= 0, for h = max(|a| d + |c| b, b d),
    v = a/b + i c/d: h^k bounds the numerators and denominators of v^k."""
    re, im = re_im(v)
    h = max(abs(re.numerator) * im.denominator + abs(im.numerator) * re.denominator,
            re.denominator * im.denominator)
    return h == 1 or k <= (digits - 1) / log10(h)  # int-float comparison is exact


class CNum:
    """Complex number with exact rational parts and a nonzero imaginary part.

    Immutable; ``re`` and ``im`` are in normal form.  Constructing or
    computing a value whose imaginary part is 0 returns the plain real.
    """

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        re, im = normal(re), normal(im)
        if not im:
            return re
        self = object.__new__(cls)
        self.re, self.im = re, im
        return self

    def __add__(self, other):
        if type(other) is CNum:
            return CNum(self.re + other.re, self.im + other.im)
        return CNum(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        re, im = self.re, self.im
        if type(other) is CNum:
            return CNum(re * other.re - im * other.im, re * other.im + im * other.re)
        return CNum(re * other, im * other)

    __rmul__ = __mul__

    def __neg__(self):
        return CNum(-self.re, -self.im)

    def __eq__(self, other) -> bool:
        return type(other) is CNum and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"CNum({self.re}, {self.im})"


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
    return normal(Fraction(s, den)), f


def fraction_gcd(a, b) -> int | Fraction:
    """Greatest common divisor of two nonnegative rationals."""
    return normal(Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator)))
