"""Exact complex-rational scalars used as expression coefficients.

A real or imaginary part is a Python ``int`` whenever it is integral and a
``fractions.Fraction`` only when a denominator is really present.  An int
compares, hashes and prints the same as the equal Fraction, so the choice is
invisible to keys, hashes and printed forms; it only keeps the common
small-integer arithmetic on machine ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


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


# square_part trial-divides up to this bound only, so its cost is bounded too
SQUARE_PART_BOUND = 10_000


class RadicandError(ArithmeticError):
    """A radicand whose squarefree part trial division up to
    SQUARE_PART_BOUND cannot settle."""


def square_part(n: int) -> tuple[int, int]:
    """Split n >= 0 as s*s*f with f squarefree.

    Trial division by d <= SQUARE_PART_BOUND leaves a cofactor m with no
    prime factor below d.  It is settled exactly when it is a perfect square,
    or when m < d^3, so that it has at most two prime factors and is
    squarefree unless a square.  Any other cofactor raises RadicandError."""
    if n in (0, 1):
        return 1, n
    s, f = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if d > SQUARE_PART_BOUND:
            r = isqrt(m)
            if r * r == m:
                return s * r, f
            if m >= d ** 3:
                raise RadicandError(f"cannot find the square part of the radicand {n}: "
                                    f"it has no prime factor up to {SQUARE_PART_BOUND}")
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    f *= m
    return s, f


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
