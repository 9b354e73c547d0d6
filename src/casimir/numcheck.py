"""Tri-state zero verification: symbolic first, numeric sampling as fallback.

The numeric stage evaluates the simplified expression at quasi-random points
of a caller-supplied coordinate box (Halton sequence, offset by a seed so CLI
reports are reproducible) and compares against the largest term magnitude, so
cancellation noise does not mask a genuinely nonzero expression.  That scale
is read off the terms of ``expr.simplify``'s form, which is one form for every
writing of a sum of rational functions of cos(u) over powers of 1 -/+ cos(u)
(the so3 residuals), so rewriting such a residual does not move its report.
"""

from __future__ import annotations

import cmath
from enum import Enum

from . import evalcore
from . import expr as ex
from .record import FrozenRecord

REL_TOL = 1e-9
NUM_POINTS = 32

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
MAX_DIMENSIONS = len(_PRIMES)  # most names a sample point can have, one Halton base each


class Verdict(Enum):
    SYMBOLIC_ZERO = "symbolically-zero"
    NUMERIC_ZERO = "numerically-zero"
    NONZERO = "nonzero"

    @property
    def is_zero(self) -> bool:
        return self is not Verdict.NONZERO


class UndefinedPointError(ex.EvalError):
    """A sample point hit a pole, overflowed or gave a value that is not
    finite; the caller should shrink the box."""


class ZeroReport(FrozenRecord):
    _fields = ("verdict", "witness", "max_abs", "scale")

    def __init__(self, verdict: Verdict, witness: dict | None = None, max_abs: float = 0.0,
                 scale: float = 0.0):
        super().__init__(verdict, witness, max_abs, scale)

    @property
    def is_zero(self) -> bool:
        return self.verdict.is_zero

    def to_json(self) -> dict:
        out = {"verdict": self.verdict.value}
        if self.witness is not None:
            out["witness"] = {k: repr(v) for k, v in self.witness.items()}
        if self.verdict is not Verdict.SYMBOLIC_ZERO:
            out["max_abs"] = self.max_abs
            out["scale"] = self.scale
        return out


def _radical_inverse(index: int, base: int) -> float:
    out, f = 0.0, 1.0 / base
    while index > 0:
        out += (index % base) * f
        index //= base
        f /= base
    return out


def halton_points(dim: int, n: int, seed: int = 0) -> list[tuple[float, ...]]:
    """Deterministic low-discrepancy points in [0,1)^dim, offset by seed."""
    if dim > MAX_DIMENSIONS:
        raise ValueError(f"too many dimensions for the Halton table ({dim})")
    start = 13 + (seed % 1009) * 17
    return [
        tuple(_radical_inverse(start + j, _PRIMES[d]) for d in range(dim))
        for j in range(n)
    ]


def sample_box(box: dict, n: int, seed: int = 0) -> list[dict]:
    """n points inside the box {name: (lo, hi)}, slightly inset from the edges."""
    names = sorted(box)
    unit = halton_points(len(names), n, seed)
    out = []
    for row in unit:
        env = {}
        for d, name in enumerate(names):
            lo, hi = box[name]
            u = 0.02 + 0.96 * row[d]
            env[name] = lo + (hi - lo) * u
        out.append(env)
    return out


def is_zero(e: ex.Expr, box: dict, seed: int = 0) -> ZeroReport:
    """Decide whether `e` vanishes on the box.

    Symbolically zero when simplification reaches the 0 literal; otherwise
    numerically zero when max |e| < REL_TOL * (1 + max term magnitude) over
    NUM_POINTS samples; otherwise nonzero with a witness point.  A constant is
    evaluated once, at the empty point, against REL_TOL alone, with scale 1.0.
    A sample point where a term or the sum has no finite value (a pole, or an
    overflow, which complex arithmetic gives as inf or nan without raising)
    raises UndefinedPointError naming the point.
    """
    s = ex.simplify(e)
    if s == ex.ZERO:
        return ZeroReport(Verdict.SYMBOLIC_ZERO)
    names = sorted(ex.free_symbols(s))
    missing = [n for n in names if n not in box]
    if missing:
        raise ex.EvalError(f"no sampling interval for symbols {missing}")
    envs = sample_box({n: box[n] for n in names}, NUM_POINTS, seed) if names else [{}]
    terms = s.terms if type(s) is ex.Add else (s,)
    try:
        prog = evalcore.compile_expr(terms, names)  # one function: the term values per point
    except OverflowError:
        raise UndefinedPointError("constant overflowed floating point", {}) from None
    pts = [tuple(env[n] for n in names) for env in envs]
    try:
        rows = prog.run(pts)
    except (ZeroDivisionError, OverflowError) as err:
        bad = _locate_undefined(prog, pts, envs)
        what = "hit a pole" if isinstance(err, ZeroDivisionError) else "overflowed floating point"
        raise UndefinedPointError(
            f"sample point {what} at {bad}; shrink the domain box", bad
        ) from None

    max_total, scale, witness = 0.0, 0.0, None
    for env, vals in zip(envs, rows):
        tot = 0j
        for v in vals:
            tot += v
            scale = max(scale, abs(v))
        # an inf or nan term leaves the sum non-finite, so this tests every term too
        if not cmath.isfinite(tot):
            raise UndefinedPointError(f"sample point has no finite value at {env}; shrink the domain box", env)
        a = abs(tot)
        if a > max_total:
            max_total, witness = a, env
    if names:
        tol = REL_TOL * (1.0 + scale)
    else:  # a constant
        tol, scale = REL_TOL, 1.0
    if max_total < tol:
        return ZeroReport(Verdict.NUMERIC_ZERO, max_abs=max_total, scale=scale)
    return ZeroReport(Verdict.NONZERO, witness=witness, max_abs=max_total, scale=scale)


def _locate_undefined(prog, pts, envs) -> dict:
    """The first sample point at which the program has no finite value."""
    for pt, env in zip(pts, envs):
        try:
            prog.run([pt])
        except (ZeroDivisionError, OverflowError):
            return env
    return {}  # pragma: no cover - failure vanished on retry
