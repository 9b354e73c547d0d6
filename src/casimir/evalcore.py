"""Expression-to-function compilation.

Numeric verification samples every residual at dozens of points and grid
export evaluates whole component tables, so batch evaluation is the hot path.
`compile_expr` writes one Python function per expression, ``run(points)``,
which loops over the points with one statement per distinct node, and
compiles it once.  A tuple of expressions (the terms of a residual, the
components of a family) compiles into one function too, which returns per
point the tuple of their values and computes subtrees shared between them
once.  The generated source never contains user text: variables are
``x0 .. xn`` by position, node values ``v0 ..`` in post-order, constants
``c0 ..`` are bound as globals, and function names come from the kernel's
closed set sin/cos/exp.

A grid is a product of axes, so a grid program, ``run(axes)``, is a loop
nest with one loop per variable, in ``itertools.product`` order, and each
node is computed in the loop of the last variable it depends on: on a
100 x 100 (theta, phi) grid, ``cos(theta)`` is computed 100 times, not
10,000.  Nodes that depend on no variable are computed once, before every
loop, in the point-list program too.  Moving a statement out of a loop
changes neither its operations nor their operands, so the values are those
of the point-list program at every point of the product.  Every grid
program, of one expression or of a tuple, returns one row per point, a
flat tuple of floats ``(re0, im0, re1, im1, ...)`` holding the real and
imaginary part of each expression's value, the form in which a grid export
writes them.

This is the package's only evaluator: every numeric value of an expression,
from the zero checks of :mod:`casimir.numcheck` to the rank checks of
:mod:`casimir.split_structure` and the grid exports, comes from a compiled
program, so how powers, poles and sqrt are computed is decided here.  Values
are bit-for-bit those of the recursive tree walk kept as a differential
reference in ``tests/helpers.py``, a left-to-right fold over the canonical
node order: sums start from ``0j`` and add each term in turn; products start
from ``complex(1.0)``, multiply by the coefficient (when it is not 1) and then
by each factor, where the tree walk starts from the coefficient itself, the
same value since no exact coefficient has a negative-zero part; powers go
through `_ipow`, with ``cmath.sqrt`` for the half of a half-integer
exponent.  ``complex(1.0)`` times the coefficient is one constant, computed
when the program is compiled, so a product opens on a factor.  Sums are
accumulated one statement per term, so neither ``sum()`` (compensated from
Python 3.12) nor a deeply nested infix chain is ever emitted.  A pole raises
``ZeroDivisionError`` from `_ipow`.  Where two nodes would fail at one point,
a grid program raises the error of the one in the outer loop, which the tree
walk may reach second.
"""

from __future__ import annotations

import cmath

from . import expr as ex
from .record import FrozenRecord

_FUNCTIONS = {"sin": "_sin", "cos": "_cos", "exp": "_exp"}


def backend_name() -> str:
    """Name of the numeric evaluator, for callers that record which evaluator
    made their numbers, such as perfbench's run records; no report holds it."""
    return "python"


def _ipow(v: complex, k: int) -> complex:
    if k < 0:
        if v == 0:
            raise ZeroDivisionError("pole in expression evaluation")
        return 1.0 / _ipow(v, -k)
    out = complex(1.0)
    base = v
    while k:
        if k & 1:
            out *= base
        base *= base
        k >>= 1
    return out


class Program(FrozenRecord):
    """Generated source, the values of the constants c0, c1, ... it names, and its function."""

    _fields = ("source", "constants")
    _uncompared = ("fn",)

    def run(self, points) -> list:
        """points: sequence of tuples aligned with the compiled variable names;
        for a grid program, one sequence of values per name."""
        return self.fn(points)


def compile_expr(e, varnames, grid: bool = False) -> Program:
    """Compile an expression, or a tuple of expressions, over `varnames`.

    The program takes a sequence of points; with `grid` it takes one axis of
    values per name and returns, at every point of ``itertools.product(*axes)``
    in that order, the flat tuple of the real and imaginary parts of the
    values."""
    index = {n: i for i, n in enumerate(varnames)}
    loops = [f"for p{i} in axes[{i}]:" for i in range(len(varnames))] if grid else ["for pt in points:"]
    namespace = {"_ipow": _ipow, "_sqrt": cmath.sqrt, "_sin": cmath.sin,
                 "_cos": cmath.cos, "_exp": cmath.exp}
    cpool: dict[complex, str] = {}
    names: dict[ex.Expr, str] = {}
    level: dict[str, int] = {}  # loop depth of each value; constants are at 0
    body: list[list[str]] = [[] for _ in range(len(loops) + 1)]

    def const(v: complex) -> str:
        name = cpool.get(v)
        if name is None:
            name = cpool[v] = f"c{len(cpool)}"
            namespace[name] = v
        return name

    def fresh() -> str:
        return f"v{len(names)}"

    def emit(name: str, operands: list, *lines: str) -> None:
        """Place a node's statements in the innermost loop an operand varies in."""
        depth = level[name] = max([level.get(op, 0) for op in operands], default=0)
        body[depth].extend(lines)

    def go(n: ex.Expr) -> str:
        name = names.get(n)
        if name is not None:
            return name
        tt = type(n)
        if tt is ex.Num:
            name = const(complex(n.val))
        elif tt is ex.Sym:
            try:
                i = index[n.name]
            except KeyError:
                raise ex.EvalError(f"unbound symbol {n.name!r} in compiled program") from None
            name = f"x{i}"
            level[name] = i + 1 if grid else 1
            body[level[name]].append(f"{name} = complex(p{i})" if grid else f"{name} = complex(pt[{i}])")
        elif tt is ex.Fun:
            arg = go(n.arg)
            name = fresh()
            emit(name, [arg], f"{name} = {_FUNCTIONS[n.fname]}({arg})")
        elif tt is ex.Pow:
            base = go(n.base)
            p, q = n.exp.numerator, n.exp.denominator
            name = fresh()
            if q == 1:
                emit(name, [base], f"{name} = _ipow({base}, {p})")
            else:
                emit(name, [base], f"{name} = _ipow({base}, {(p - 1) // 2}) * _sqrt({base})")
        elif tt is ex.Mul:
            # (1+0j) is complex(1.0); times a coefficient it is one constant
            ops = ["(1+0j)" if n.coef == 1 else const((1 + 0j) * complex(n.coef))]
            ops += [go(f) for f in n.factors]
            name = fresh()
            emit(name, ops, f"{name} = {ops[0]} * {ops[1]}", *(f"{name} *= {op}" for op in ops[2:]))
        else:
            ops = [go(t) for t in n.terms]
            name = fresh()
            emit(name, ops, f"{name} = 0j + {ops[0]}", *(f"{name} += {op}" for op in ops[1:]))
        names[n] = name
        return name

    if grid:
        values = map(go, e if isinstance(e, tuple) else (e,))
        root = "(" + "".join(f"{v}.real, {v}.imag, " for v in values) + ")"
    elif isinstance(e, tuple):
        root = "(" + "".join(f"{go(t)}, " for t in e) + ")"
    else:
        root = go(e)
    source = ["def run(axes):" if grid else "def run(points):", "    out = []"]
    for depth, lines in enumerate(body):
        if depth:
            source.append("    " * depth + loops[depth - 1])
        source.extend("    " * (depth + 1) + line for line in lines)
    source += ["    " * len(body) + f"out.append({root})", "    return out"]
    source = "\n".join(source)
    exec(compile(source, "<casimir.evalcore>", "exec"), namespace)
    return Program(source, tuple(cpool), namespace["run"])
