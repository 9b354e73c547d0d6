"""Expression-to-function compilation.

Numeric verification samples every residual at dozens of points and grid
export evaluates whole component tables, so batch evaluation is the hot path.
`compile_expr` writes one Python function per expression, ``run(points)``,
which loops over the points with one statement per distinct node, and
compiles it once.  A tuple of expressions (the terms of a residual) compiles
into one function too, which returns per point the tuple of their values and
computes subtrees shared between them once.  The generated source never
contains user text: variables are ``x0 .. xn`` by position, node values
``v0 ..`` in post-order, constants ``c0 ..`` are bound as globals, and
function names come from the kernel's closed set sin/cos/exp.

Values are bit-for-bit those of a left-to-right fold over the canonical node
order: sums start from ``0j`` and add each term in turn; products start from
``complex(1.0)``, multiply by the coefficient (when it is not 1) and then by
each factor; powers go through `expr._ipow`, with ``cmath.sqrt`` for the half
of a half-integer exponent.  Sums are accumulated one statement per term, so
neither ``sum()`` (compensated from Python 3.12) nor a deeply nested infix
chain is ever emitted.  A pole raises ``ZeroDivisionError`` from `_ipow`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

from . import expr as ex

_FUNCTIONS = {"sin": "_sin", "cos": "_cos", "exp": "_exp"}


def backend_name() -> str:
    """Name of the numeric evaluator, recorded in report provenance."""
    return "python"


@dataclass(frozen=True)
class Program:
    source: str
    fn: Callable = field(repr=False, compare=False)

    def run(self, points) -> list:
        """points: sequence of tuples aligned with the compiled variable names."""
        return self.fn(points)


def compile_expr(e, varnames) -> Program:
    """Compile an expression, or a tuple of expressions, over `varnames`."""
    index = {n: i for i, n in enumerate(varnames)}
    namespace = {"_ipow": ex._ipow, "_sqrt": cmath.sqrt, "_sin": cmath.sin,
                 "_cos": cmath.cos, "_exp": cmath.exp}
    cpool: dict[complex, str] = {}
    names: dict[ex.Expr, str] = {}
    body: list[str] = []

    def const(v: complex) -> str:
        name = cpool.get(v)
        if name is None:
            name = cpool[v] = f"c{len(cpool)}"
            namespace[name] = v
        return name

    def fresh() -> str:
        return f"v{len(names)}"

    def go(n: ex.Expr) -> str:
        name = names.get(n)
        if name is not None:
            return name
        tt = type(n)
        if tt is ex.Num:
            name = const(n.val.to_complex())
        elif tt is ex.Sym:
            try:
                i = index[n.name]
            except KeyError:
                raise ex.EvalError(f"unbound symbol {n.name!r} in compiled program") from None
            name = f"x{i}"
            body.append(f"{name} = complex(pt[{i}])")
        elif tt is ex.Fun:
            arg = go(n.arg)
            name = fresh()
            body.append(f"{name} = {_FUNCTIONS[n.fname]}({arg})")
        elif tt is ex.Pow:
            base = go(n.base)
            p, q = n.exp.numerator, n.exp.denominator
            name = fresh()
            if q == 1:
                body.append(f"{name} = _ipow({base}, {p})")
            else:
                body.append(f"{name} = _ipow({base}, {(p - 1) // 2}) * _sqrt({base})")
        elif tt is ex.Mul:
            ops = [const(n.coef.to_complex())] if not n.coef.is_one() else []
            ops += [go(f) for f in n.factors]
            name = fresh()
            body.append(f"{name} = (1+0j) * {ops[0]}")  # (1+0j) is complex(1.0)
            body.extend(f"{name} *= {op}" for op in ops[1:])
        else:
            ops = [go(t) for t in n.terms]
            name = fresh()
            body.append(f"{name} = 0j + {ops[0]}")
            body.extend(f"{name} += {op}" for op in ops[1:])
        names[n] = name
        return name

    if isinstance(e, tuple):
        root = "(" + "".join(f"{go(t)}, " for t in e) + ")"
    else:
        root = go(e)
    source = "\n".join(
        ["def run(points):", "    out = []", "    for pt in points:"]
        + [f"        {line}" for line in body]
        + [f"        out.append({root})", "    return out"]
    )
    exec(compile(source, "<casimir.evalcore>", "exec"), namespace)
    return Program(source, namespace["run"])
