"""Exact complex-rational scalars used as expression coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if type(x) is int:
        if x == 0:
            return _FRACTION_ZERO
        if x == 1:
            return _FRACTION_ONE
        return Fraction(x)
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CNum:
    """Complex number with exact rational real and imaginary parts.

    Immutable; all arithmetic is exact, so identities that hold over the
    rationals hold bit-for-bit here.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    # real-only fast paths test `not im`: Fraction.__bool__ is much cheaper
    # than Fraction.__eq__; multiplying by the shared CN_ONE returns the other side
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
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return CNum(self.re / d, -self.im / d)

    def __truediv__(self, other: "CNum") -> "CNum":
        return self * other.inverse()

    def __pow__(self, n: int) -> "CNum":
        if n < 0:
            return self.inverse() ** (-n)
        out = CNum(1)
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
        return self.re < 0 or (self.re == 0 and self.im < 0)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"CNum({self.re})"
        return f"CNum({self.re}, {self.im})"


CN_ONE = CNum(1)
CN_I = CNum(0, 1)


def square_part(n: int) -> tuple[int, int]:
    """Split n >= 0 as s*s*f with f squarefree (trial division)."""
    if n in (0, 1):
        return 1, n
    s, f = 1, 1
    d = 2
    m = n
    while d * d <= m:
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


def fraction_sqrt(r: Fraction) -> tuple[Fraction, int]:
    """Write sqrt(r) for r > 0 as q * sqrt(f) with q rational, f squarefree int."""
    if r <= 0:
        raise ValueError("fraction_sqrt needs a positive rational")
    radicand = r.numerator * r.denominator
    s, f = square_part(radicand)
    return Fraction(s, r.denominator), f


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator, b.numerator), (a.denominator * b.denominator) // gcd(a.denominator, b.denominator))
