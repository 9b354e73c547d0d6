"""Generalized Legendre functions from a terminating series recurrence.

P(cos t) solves the weighted angular equation

    P'' + cot(t) P' - (m^2 - 2 m n cos t + n^2)/sin^2(t) P + l(l+1) P = 0

and is regular on (0, pi).  With x = cos t the ansatz

    P = (1-x)^(alpha/2) (1+x)^(beta/2) F((1-x)/2),
    alpha = |n-m|,  beta = |n+m|

turns the equation into a hypergeometric one whose series terminates after
k = l - max(|n|, |m|) steps; the recurrence coefficients are exact rationals
and the first series coefficient is normalized to 1 (the equation fixes the
solution only up to scale).  Each instance carries its own symbolic residual
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import expr as ex
from .. import numcheck as nc


class NonTerminatingSeriesError(Exception):
    """No polynomial solution: the recurrence never hits a zero factor."""

    def __init__(self, l, n, m, k):
        super().__init__(
            f"series for (l={l}, n={n}, m={m}) does not terminate: "
            f"the recurrence factor j - k with k = {k} never vanishes for j >= 0"
        )
        self.termination_index = k


@dataclass(frozen=True)
class GeneralizedLegendre:
    l: int
    n: int
    m: int
    expr: ex.Expr
    series: tuple  # Fraction coefficients of the terminating series
    residual: nc.ZeroReport

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def solve_generalized_legendre(l: int, n: int, m: int, box: dict, seed: int = 0) -> GeneralizedLegendre:
    """Regular solution of the weighted angular equation, exact in cos/sin,
    certified on the theta range of `box`."""
    if l < 0:
        raise ValueError("weight l must be a non-negative integer")
    alpha = abs(n - m)
    beta = abs(n + m)
    k = l - max(abs(n), abs(m))
    if k < 0:
        raise NonTerminatingSeriesError(l, n, m, k)
    a = Fraction(-k)
    b = Fraction(k + alpha + beta + 1)
    c0 = Fraction(alpha + 1)
    coeffs = [Fraction(1)]
    for j in range(k):
        coeffs.append(coeffs[-1] * (a + j) * (b + j) / ((j + 1) * (c0 + j)))

    x = ex.cos(ex.sym("theta"))
    u = ex.mul(ex.num(Fraction(1, 2)), ex.sub(ex.ONE, x))
    series = ex.add(*[ex.mul(ex.num(cj), ex.power(u, j)) for j, cj in enumerate(coeffs)])
    pref = ex.mul(
        ex.power(ex.sub(ex.ONE, x), Fraction(alpha, 2)),
        ex.power(ex.add(ex.ONE, x), Fraction(beta, 2)),
    )
    p = ex.simplify(ex.mul(pref, series))

    residual = angular_residual(p, l, n, m, box=box, seed=seed)
    return GeneralizedLegendre(l, n, m, p, tuple(coeffs), residual)


def angular_residual(p: ex.Expr, l: int, n: int, m: int, box: dict, seed: int = 0) -> nc.ZeroReport:
    """Zero verdict for the weighted angular equation applied to p(theta)."""
    t = ex.sym("theta")
    dp = ex.diff(p, "theta")
    lhs = ex.add(
        ex.diff(dp, "theta"),
        ex.mul(ex.cot(t), dp),
        ex.neg(
            ex.mul(
                ex.add(ex.num(m * m + n * n), ex.mul(ex.num(-2 * m * n), ex.cos(t))),
                ex.power(ex.sin(t), -2),
                p,
            )
        ),
        ex.mul(ex.num(l * (l + 1)), p),
    )
    return nc.is_zero(lhs, box, seed)
