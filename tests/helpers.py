"""Test-only helpers: a seeded polynomial tensor generator and the Lie
derivative commutator identity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from casimir import expr as ex
from casimir import numcheck as nc
from casimir.tensor_fields import Chart, TensorField, VectorField, lie_bracket, lie_derivative


def random_polynomial_tensor(chart: Chart, p: int, q: int, seed: int, degree: int = 2) -> TensorField:
    """Random tensor with low-degree rational polynomial components.

    Polynomial components keep symbolic zero tests decidable, so property
    checks certify symbolically instead of through sampling."""
    rng = random.Random(seed)
    d = chart.dim
    monos = [(0,) * d]
    for total in range(1, degree + 1):
        for idx in itertools.product(range(d), repeat=total):
            counts = [0] * d
            for a in idx:
                counts[a] += 1
            monos.append(tuple(counts))
    monos = sorted(set(monos))

    def poly():
        parts = []
        for counts in monos:
            if rng.random() < 0.5:
                continue
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c == 0:
                continue
            factors = [ex.num(c)]
            for axis, k in enumerate(counts):
                if k:
                    factors.append(ex.power(ex.sym(chart.coords[axis]), k))
            parts.append(ex.mul(*factors))
        return ex.add(*parts) if parts else ex.num(1)

    comps = tuple(poly() for _ in range(d ** (p + q)))
    return TensorField(chart, p, q, comps)


def check_lie_commutator(x: VectorField, y: VectorField, t: TensorField, seed: int = 0):
    """Verdict on ([L_X, L_Y] - L_[X,Y]) T, componentwise."""
    lhs = lie_derivative(x, lie_derivative(y, t))
    rhs = lie_derivative(y, lie_derivative(x, t))
    brk = lie_derivative(lie_bracket(x, y), t)
    box = t.chart.full_box()
    return [
        nc.is_zero(ex.sub(ex.sub(a, b), c), box, seed)
        for a, b, c in zip(lhs.comps, rhs.comps, brk.comps)
    ]
