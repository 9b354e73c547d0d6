"""Test-only helpers: the structure constants of three small algebras, a
seeded polynomial tensor generator, the Lie derivative commutator identity, tensor sums and scalings, the nested
definition of G, the ladder-built orbit Laplacian, and the rebuild-everything
simplify kept as a differential oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from casimir import expr as ex
from casimir import numcheck as nc
from casimir.lie_algebra import StructureConstants
from casimir.operator import CasimirOperator, ScalarOperator
from casimir.tensor_fields import (
    Chart,
    FrameMismatchError,
    TensorField,
    VectorField,
    lie_bracket,
    lie_derivative,
)


def abelian_constants(r: int = 3) -> StructureConstants:
    return StructureConstants.from_dense([[[0] * r for _ in range(r)] for _ in range(r)])


def so3_constants() -> StructureConstants:
    """Rotation algebra: [xi_i, xi_j] = eps_ijk xi_k."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    arr = [[[eps.get((i, j, k), 0) for j in range(3)] for i in range(3)] for k in range(3)]
    return StructureConstants.from_dense(arr)


def bianchi2_constants() -> StructureConstants:
    """The algebra of the second built-in model: the single bracket [xi_1, xi_2] = xi_1."""
    return StructureConstants.from_sparse(3, [{"k": 1, "i": 1, "j": 2, "value": "1"}])


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


def tensor_add(a: TensorField, b: TensorField) -> TensorField:
    if (a.chart, a.p, a.q, a.frame) != (b.chart, b.p, b.q, b.frame):
        raise FrameMismatchError("tensor shapes differ")
    return TensorField(a.chart, a.p, a.q, tuple(ex.add(x, y) for x, y in zip(a.comps, b.comps)), a.frame)


def tensor_scale(a: TensorField, s) -> TensorField:
    s = ex.as_expr(s)
    return TensorField(a.chart, a.p, a.q, tuple(ex.mul(s, c) for c in a.comps), a.frame)


def nested_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T = sum_ik g^{ik} L_i (L_k T), straight from the definition."""
    first = [lie_derivative(g, t) for g in op.generators]
    total = tensor_scale(t, ex.ZERO)
    for i, gi in enumerate(op.generators):
        for k in range(op.r):
            if op.metric[i][k] != ex.ZERO:
                total = tensor_add(total, tensor_scale(lie_derivative(gi, first[k]), op.metric[i][k]))
    return total


def _vector_table(x: VectorField) -> dict:
    d = x.chart.dim
    return {tuple(int(b == a) for b in range(d)): c for a, c in enumerate(x.comps) if c != ex.ZERO}


def _after_vector(x: VectorField, table: dict) -> list:
    """Raw (multi-index, coefficient) terms of X o S, S given by its table."""
    out = []
    for idx, coeff in table.items():
        for axis, comp in enumerate(x.comps):
            if comp == ex.ZERO:
                continue
            out.append((idx, ex.mul(comp, ex.diff(coeff, x.chart.coords[axis]))))
            up = list(idx)
            up[axis] += 1
            out.append((tuple(up), ex.mul(comp, coeff)))
    return out


def ladder_scalar_operator(so3) -> ScalarOperator:
    """-(L_+ L_- + L_3^2 - L_3) built from the rotation model's ladder fields,
    an independent construction of the orbit Laplacian K."""
    raising, lowering, axis = so3.ladder
    terms = _after_vector(raising, _vector_table(lowering)) + _after_vector(axis, _vector_table(axis))
    terms += [(idx, ex.neg(c)) for idx, c in _vector_table(axis).items()]
    table: dict = {}
    for idx, c in terms:
        table.setdefault(idx, []).append(ex.neg(c))
    return ScalarOperator.from_table(so3.sphere, {idx: ex.add(*cs) for idx, cs in table.items()})


def reference_simplify(e: ex.Expr) -> ex.Expr:
    """The kernel's simplify before it returned unchanged subtrees as they
    are: every product and sum is rebuilt through mul/add, and the
    common-exponent pass rescans the sum once per base.  A differential
    oracle for ``expr.simplify``."""
    tt = type(e)
    if tt is ex.Num or tt is ex.Sym:
        return e
    if tt is ex.Fun:
        return ex.fun(e.fname, reference_simplify(e.arg))
    if tt is ex.Pow:
        return ex._power(reference_simplify(e.base), e.e2)
    if tt is ex.Mul:
        return ex.mul(ex.Num(e.coef), *[reference_simplify(f) for f in e.factors])
    s = ex.add(*[reference_simplify(t) for t in e.terms])
    for _ in range(64):
        if type(s) is not ex.Add:
            return s
        s2 = _reference_common_exponent_pass(s)
        if s2 is s:
            return s
        s = s2
    raise ex.ExprError("simplify did not reach a fixed point")


def _reference_common_exponent_pass(s: ex.Add) -> ex.Expr:
    decomp = [ex._coef_mono(t) for t in s.terms]
    spots: dict = {}
    plain: dict = {}
    for c, mono in decomp:
        for f in mono:
            base = f.base if type(f) is ex.Pow else f
            if type(base) is ex.Add:
                e2 = f.e2 if type(f) is ex.Pow else 2
                spots.setdefault(base, {}).setdefault(e2 & 1, set()).add(e2)
    for base in spots:
        plain[base] = sum(1 for c, mono in decomp if ex._term_atom_exp(mono, base)[0] is None)
    for base in sorted(spots, key=lambda b: b._key):
        classes = spots[base]
        for odd in (0, 1):
            exps = classes.get(odd, set())
            if not odd:
                fire = bool(exps) and (len(exps) > 1 or plain.get(base, 0) > 0)
            else:
                fire = len(exps) > 1
            if not fire:
                continue
            target = min(exps)
            new_terms = []
            for c, mono in decomp:
                cur, rest = ex._term_atom_exp(mono, base)
                if cur is None and not odd:
                    cur, rest = 0, mono
                if cur is None or cur & 1 != odd or cur == target:
                    new_terms.append(ex._term_expr(c, mono))
                    continue
                polyterm = ex._power(base, cur - target)
                polyterms = polyterm.terms if type(polyterm) is ex.Add else (polyterm,)
                atom = ex._pow(base, target)
                for pt in polyterms:
                    new_terms.append(ex.mul(ex.Num(c), *rest, atom, pt))
            return ex.add(*new_terms)
    return s
