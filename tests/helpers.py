"""Test-only helpers: the structure constants of three small algebras, the
path of the Heisenberg model file, a seeded polynomial tensor generator,
the Lie derivative commutator identity, tensor sums and scalings, the
nested definition of G, the ladder-built orbit Laplacian, and six
differential oracles: G applied row by row, tensors assembled component
by component, the generic Leibniz composition of G's matrix, the recursive
tree-walk evaluator, the rebuild-everything simplify and the per-cell grid
export renderer."""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import pathlib
import random
from fractions import Fraction

from casimir import expr as ex
from casimir import numcheck as nc
from casimir.lie_algebra import StructureConstants
from casimir.operator import CasimirOperator, ScalarOperator, _compose
from casimir.tensor_fields import (Chart, TensorField, VectorField, lie_bracket, lie_correction_rows,
                                   lie_derivative)


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


# the model file of Bianchi type II, the Heisenberg algebra [e2, e3] = e1
HEISENBERG = pathlib.Path(__file__).resolve().parent.parent / "model_files" / "heisenberg.json"


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
    if (a.chart, a.p, a.q) != (b.chart, b.p, b.q):
        raise ValueError("tensor shapes differ")
    return TensorField(a.chart, a.p, a.q, tuple(ex.add(x, y) for x, y in zip(a.comps, b.comps)))


def tensor_scale(a: TensorField, s) -> TensorField:
    s = ex.as_expr(s)
    return TensorField(a.chart, a.p, a.q, tuple(ex.mul(s, c) for c in a.comps))


def nested_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T = sum_ik g^{ik} L_i (L_k T), straight from the definition."""
    first = [lie_derivative(g, t) for g in op.generators]
    total = tensor_scale(t, ex.ZERO)
    for i, gi in enumerate(op.generators):
        for k in range(op.r):
            if op.metric[i][k] != ex.ZERO:
                total = tensor_add(total, tensor_scale(lie_derivative(gi, first[k]), op.metric[i][k]))
    return total


def all_rows_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T with every row of G's matrix summed and simplified, also where a
    symmetric T lets ``apply_casimir`` sum one row per orbit of the slot
    permutations: the reference for that shortcut."""
    matrix = _compose(op, [lie_correction_rows(x, t.p, t.q) for x in op.generators])
    comps = tuple(
        ex.simplify(ex.sum_of_products([p for j, entry in row for p in entry.products(t.comps[j])]))
        for row in matrix
    )
    return TensorField(t.chart, t.p, t.q, comps)


def every_component_assembly(frame, monomials, p: int, q: int) -> TensorField:
    """The sum of scalar * basis tensor products with every coordinate
    component summed and simplified, also where symmetric monomials let
    ``assemble`` sum one component per orbit: the reference for that shortcut."""
    comps = []
    for idx in itertools.product(range(frame.chart.dim), repeat=p + q):
        products = [[mo.scalar, *(frame.vectors[a].comps[idx[s]] for s, a in enumerate(mo.upper)),
                     *(frame.covectors[b].comps[idx[p + s]] for s, b in enumerate(mo.lower))]
                    for mo in monomials]
        comps.append(ex.simplify(ex.sum_of_products(products)))
    return TensorField(frame.chart, p, q, tuple(comps))


def leibniz_compose(op: CasimirOperator, rows: list) -> tuple:
    """sum_ik g^{ik} A_i A_k as a matrix of scalar operators, by the generic
    Leibniz rule on first-order tables: the reference for the library's
    composition, which builds the same matrix as K plus correction terms.

    A_i = xi_i . d + R_i acts on a column of components, with R_i = rows[i]
    given as rows {J: factor}.  Returns, per row I, the nonzero entries as
    (J, ScalarOperator) pairs."""
    chart = op.chart
    zero = (0,) * chart.dim
    a_ops = []  # a_ops[i][I] = {J: first-order table of (A_i)_IJ}
    for i, x in enumerate(op.generators):
        a_i = []
        for row_i, row in enumerate(rows[i]):
            ent = {j: {zero: f} for j, f in row.items()}
            ent.setdefault(row_i, {}).update(_vector_table(x))
            a_i.append(ent)
        a_ops.append(a_i)
    acc = [{} for _ in rows[0]]  # acc[I][J][multi-index] -> raw coefficient products
    for i in range(op.r):
        for k in range(op.r):
            g = op.metric[i][k]
            if g == ex.ZERO:
                continue
            for row_i, out in enumerate(acc):
                for j, outer in a_ops[i][row_i].items():
                    for col, inner in a_ops[k][j].items():
                        products = out.setdefault(col, {})
                        for idx, factors in _leibniz(chart.coords, g, outer, inner):
                            products.setdefault(idx, []).append(factors)
    matrix = []
    for out in acc:
        entries = []
        for col in sorted(out):
            entry = ScalarOperator.from_table(
                chart, {idx: ex.sum_of_products(ps) for idx, ps in out[col].items()})
            if entry.table:
                entries.append((col, entry))
        matrix.append(tuple(entries))
    return tuple(matrix)


def _leibniz(coords: tuple, g: ex.Expr, outer: dict, inner: dict):
    """Raw terms (multi-index, coefficient factors) of g * (outer o inner),
    for a first-order table `outer` and any table `inner`."""
    for alpha, s in outer.items():
        if not any(alpha):
            for beta, c in inner.items():
                yield beta, (g, s, c)
            continue
        axis = alpha.index(1)
        for beta, c in inner.items():
            dc = ex.diff(c, coords[axis])
            if dc != ex.ZERO:
                yield beta, (g, s, dc)
            up = list(beta)
            up[axis] += 1
            yield tuple(up), (g, s, c)


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


def tree_evaluate(e: ex.Expr, env: dict) -> complex:
    """The value of `e` at the point `env`, by a recursive walk of the tree:
    the differential reference for the compiled programs of
    ``casimir.evalcore``.  Sums fold from 0j, products from the coefficient,
    each in the canonical node order; a negative power at 0 raises
    ZeroDivisionError."""
    tt = type(e)
    if tt is ex.Num:
        return e.val.to_complex()
    if tt is ex.Sym:
        try:
            return complex(env[e.name])
        except KeyError:
            raise ex.EvalError(f"unbound symbol {e.name!r}", dict(env)) from None
    if tt is ex.Fun:
        return getattr(cmath, e.fname)(tree_evaluate(e.arg, env))
    if tt is ex.Pow:
        v, e2 = tree_evaluate(e.base, env), e.e2
        if e2 & 1:
            return _int_power(v, (e2 - 1) >> 1) * cmath.sqrt(v)
        return _int_power(v, e2 >> 1)
    if tt is ex.Mul:
        out = e.coef.to_complex()
        for f in e.factors:
            out *= tree_evaluate(f, env)
        return out
    out = complex(0.0)
    for t in e.terms:
        out += tree_evaluate(t, env)
    return out


def _int_power(v: complex, k: int) -> complex:
    if k < 0:
        if v == 0:
            raise ZeroDivisionError("pole in expression evaluation")
        return 1.0 / _int_power(v, -k)
    out = complex(1.0)
    base = v
    while k:
        if k & 1:
            out *= base
        base *= base
        k >>= 1
    return out


def reference_simplify(e: ex.Expr, cancel: bool = True) -> ex.Expr:
    """The kernel's simplify before it returned unchanged subtrees as they
    are: every product and sum is rebuilt through mul/add, and the
    common-exponent pass rescans the sum once per base.  A differential
    oracle for ``expr.simplify``; with `cancel` false, linear bases are
    lowered but never divided out, as before that step existed."""
    tt = type(e)
    if tt is ex.Num or tt is ex.Sym:
        return e
    if tt is ex.Fun:
        return ex.fun(e.fname, reference_simplify(e.arg, cancel))
    if tt is ex.Pow:
        return ex._power(reference_simplify(e.base, cancel), e.e2)
    if tt is ex.Mul:
        return ex.mul(ex.Num(e.coef), *[reference_simplify(f, cancel) for f in e.factors])
    s = ex.add(*[reference_simplify(t, cancel) for t in e.terms])
    for _ in range(64):
        if type(s) is not ex.Add:
            return s
        s2 = _reference_common_exponent_pass(s, cancel)
        if s2 is s:
            return s
        s = s2
    raise ex.ExprError("simplify did not reach a fixed point")


def _reference_common_exponent_pass(s: ex.Add, cancel: bool) -> ex.Expr:
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
        linear = _reference_linear_base(base) if cancel else None
        for odd in (0, 1):
            exps = classes.get(odd, set())
            if not exps:
                continue
            if not odd and plain.get(base, 0) > 0:
                exps = exps | {0}
            divides = not odd and linear is not None
            if len(exps) == 1 and not divides:
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
            divided = False
            if divides:
                while target < 0:
                    smaller = _reference_divide(ex.add(*new_terms), base, *linear, target)
                    if smaller is None:
                        break
                    new_terms, target, divided = smaller, target + 2, True
            if len(exps) > 1 or divided:
                return ex.add(*new_terms)
    return s


def _reference_linear_base(base: ex.Add):
    """(x, b0, b1) when base == b0 + b1*x for a symbol or cosine x, else None."""
    if len(base.terms) != 2 or type(base.terms[0]) is not ex.Num:
        return None
    b0 = base.terms[0].val
    b1, mono = ex._coef_mono(base.terms[1])
    if not (b0.is_real() and b1.is_real()) or len(mono) != 1:
        return None
    x = mono[0]
    if type(x) is ex.Sym or (type(x) is ex.Fun and x.fname == "cos"):
        return x, Fraction(b0.re), Fraction(b1.re)
    return None


def _reference_divide(s: ex.Expr, base: ex.Add, x: ex.Expr, b0: Fraction, b1: Fraction, target: int):
    """The terms of s with the base^(target/2) class divided once by the
    linear base, or None when some group of that class does not vanish at
    the root -b0/b1.  Groups are the class terms with equal factors apart
    from powers of x and of the base (and equal parity of x's doubled
    exponent); each is a Laurent polynomial in x, checked by exact
    evaluation and divided by schoolbook long division."""
    root = -b0 / b1
    groups: dict = {}
    others = []
    for t in (s.terms if type(s) is ex.Add else (s,)):
        c, mono = ex._coef_mono(t)
        cur, xe2, rest = None, 0, []
        for f in mono:
            fb, fe = (f.base, f.e2) if type(f) is ex.Pow else (f, 2)
            if fb == base:
                cur = fe
            elif fb == x:
                xe2 = fe
            else:
                rest.append(f)
        if cur != target:
            others.append(t)
            continue
        poly = groups.setdefault((tuple(rest), xe2 % 2), {})
        j = (xe2 - xe2 % 2) // 2
        poly[j] = poly.get(j, (Fraction(0), Fraction(0)))
        poly[j] = (poly[j][0] + Fraction(c.re), poly[j][1] + Fraction(c.im))
    out = list(others)
    for (rest, par), poly in groups.items():
        for part in (0, 1):
            if sum(cs[part] * root ** j for j, cs in poly.items()) != 0:
                return None
        lo, hi = min(poly), max(poly)
        rem = {j: poly[j] for j in poly}
        for j in range(hi, lo, -1):  # divide the top term by b1*x, subtract its multiple of base
            q = tuple(part / b1 for part in rem.get(j, (Fraction(0), Fraction(0))))
            rem[j] = (Fraction(0), Fraction(0))
            low = rem.get(j - 1, (Fraction(0), Fraction(0)))
            rem[j - 1] = (low[0] - q[0] * b0, low[1] - q[1] * b0)
            if q != (0, 0):
                xpow = ex.power(x, Fraction(2 * (j - 1) + par, 2))
                out.append(ex.mul(ex.num(q[0], q[1]), *rest, xpow, ex._power(base, target + 2)))
        assert rem[lo] == (0, 0)
    return out


def reference_grid_export(doc: dict, columns: list, axes: list, values: list, fmt: str) -> str:
    """The text `harmonics --grid` writes, cell by cell: `values` holds per
    point of ``itertools.product(*axes)`` the tuple of the components'
    complex values, and every cell is one float as "%.17g" (the point's
    coordinates, then each value's real and imaginary part).  JSON is the
    family document `doc` with the cells under "samples" as `json.dumps`
    writes it; CSV is the header and the rows."""
    rows = [["%.17g" % x for x in (*pt, *(part for v in vals for part in (v.real, v.imag)))]
            for pt, vals in zip(itertools.product(*axes), values, strict=True)]
    if fmt == "json":
        return json.dumps({**doc, "samples": {"columns": columns, "rows": rows}}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()
