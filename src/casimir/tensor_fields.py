"""Charts, vector/tensor fields, Lie brackets, and Lie derivatives.

Tensors carry their components against the coordinate frame of a chart;
the Lie derivative implements the component transport-plus-correction
formula for arbitrary type (p, q).  Frame-indexed tensors are handled in
:mod:`casimir.split_structure` through frame scale factors instead.
"""

from __future__ import annotations

import itertools

from . import evalcore
from . import expr as ex
from . import numcheck as nc
from .record import FrozenRecord

LOCUS_TOL = 1e-9  # a point closer than this to a singular locus is off the chart


class ChartMismatchError(Exception):
    pass


class OffChartError(Exception):
    """A point, or a whole box, where the chart may not be evaluated."""


class Chart(FrozenRecord):
    """Named coordinates with an open sampling box and excluded loci.

    `check_points` is the one rule for where the chart may be evaluated:
    model-file domains go through it, and `--grid` points through
    `check_grid`, which applies it to a product of axes."""

    _fields = ("name", "coords", "box", "singular_loci", "params")

    def __init__(self, name: str, coords: tuple, box: dict | None = None, singular_loci: tuple = (),
                 params: dict | None = None):
        super().__init__(name, coords, {} if box is None else box, singular_loci,
                         {} if params is None else params)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def full_box(self) -> dict:
        out = dict(self.box)
        out.update(self.params)
        return out

    def _centre(self) -> dict:
        centre = dict.fromkeys(self.coords, 0.0)
        centre.update((c, (lo + hi) / 2) for c, (lo, hi) in self.full_box().items())
        return centre

    def check_points(self, names, points) -> None:
        """Raise OffChartError unless the chart may be evaluated at every point.

        `points` are tuples over `names`; coordinates and parameters left out
        take their value at the centre of `full_box()` (0 for a coordinate
        without a range).  A point is usable when every singular locus is
        farther than LOCUS_TOL from zero there and has the sign it has at the
        centre, since the kernel's rewrites hold on the side of each locus
        where the box lies.  A centre on a locus refuses every point.  Each
        locus is one compiled program over all the points."""
        centre = self._centre()
        names = tuple(names)
        points = [tuple(pt) for pt in points]
        rest = tuple(c for c in centre if c not in names)
        fill = tuple(centre[c] for c in rest)
        rows = [tuple(centre[c] for c in names) + fill] + [pt + fill for pt in points]
        for locus in self.singular_loci:
            def values():
                vals = evalcore.compile_expr(locus, names + rest).run(rows)
                return vals[0], vals[1:]
            _check_locus(locus, values, names, points.__getitem__)

    def check_grid(self, names, axes) -> None:
        """`check_points` at every point of ``itertools.product(*axes)``,
        `axes` one sequence of values per name, without a list of the points:
        each locus is one grid program over the axes it depends on, so
        sin(theta) on a theta x phi grid is evaluated once per theta.  An
        error names the first point of the product at which a locus fails."""
        centre = self._centre()
        names = tuple(names)
        for locus in self.singular_loci:
            free = ex.free_symbols(locus)
            own = [i for i, c in enumerate(names) if c in free]
            others = [c for c in centre if c in free and c not in names]

            def values():
                prog = evalcore.compile_expr(locus, [names[i] for i in own] + others, grid=True)
                ((re, im),) = prog.run([[centre[names[i]]] for i in own] + [[centre[c]] for c in others])
                rows = prog.run([axes[i] for i in own] + [[centre[c]] for c in others]) if all(axes) else []
                return complex(re, im), [complex(*row) for row in rows]

            def point(k):
                idx = [0] * len(names)
                for i in reversed(own):
                    k, idx[i] = divmod(k, len(axes[i]))
                return tuple(axis[j] for axis, j in zip(axes, idx))

            _check_locus(locus, values, names, point)


def _check_locus(locus: ex.Expr, values, names: tuple, point) -> None:
    """`Chart.check_points`'s rule for one locus: `values()` gives its value
    at the box centre and its values at the points, `point(k)` the k-th point."""
    try:
        at_centre, vals = values()
    except ArithmeticError as e:
        raise OffChartError(f"the singular locus {ex.unparse(locus)} cannot be evaluated: {e}") from None
    if abs(at_centre) <= LOCUS_TOL:
        raise OffChartError(f"the box centre lies on the singular locus {ex.unparse(locus)} = 0")
    side = at_centre.real > 0
    for k, val in enumerate(vals):
        if abs(val) <= LOCUS_TOL or (val.real > 0) != side:
            where = ", ".join(f"{c}={v:g}" for c, v in zip(names, point(k)))
            raise OffChartError(f"point {where} lies on or beyond the singular locus {ex.unparse(locus)} = 0")


class VectorField(FrozenRecord):
    _fields = ("chart", "comps")

    def __init__(self, chart: Chart, comps: tuple):  # comps: Expr per coordinate
        if len(comps) != chart.dim:
            raise ValueError("component count must equal the chart dimension")
        super().__init__(chart, comps)

    def apply(self, f: ex.Expr) -> ex.Expr:
        """Directional derivative X(f)."""
        return ex.sum_of_products(self.products(f))

    def products(self, f: ex.Expr):
        """The factor pairs (X^a, d_a f) whose sum is X(f)."""
        return [(c, ex.diff(f, x)) for c, x in zip(self.comps, self.chart.coords)]


class TensorField(FrozenRecord):
    """Type-(p, q) field; components indexed row-major over (a1..ap, b1..bq)."""

    _fields = ("chart", "p", "q", "comps")

    def __init__(self, chart: Chart, p: int, q: int, comps: tuple):
        for n in (p, q):
            if type(n) is not int or n < 0:
                raise ValueError(f"tensor type needs non-negative integers, got ({p!r}, {q!r})")
        # dim^(p+q) > len(comps) once p + q passes its bit length: no need to compute it
        if chart.dim > 1 and p + q > len(comps).bit_length() or len(comps) != chart.dim ** (p + q):
            raise ValueError(f"need {chart.dim}^{p + q} components, got {len(comps)}")
        super().__init__(chart, p, q, comps)

    def flat(self, idx: tuple) -> int:
        d = self.chart.dim
        out = 0
        for i in idx:
            out = out * d + i
        return out


def one_form(chart: Chart, comps) -> TensorField:
    return TensorField(chart, 0, 1, tuple(comps))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^a = X^c d_c Y^a - Y^c d_c X^a."""
    if x.chart != y.chart:
        raise ChartMismatchError("bracket needs a shared chart")
    comps = tuple(
        ex.sub(x.apply(y.comps[a]), y.apply(x.comps[a])) for a in range(x.chart.dim)
    )
    return VectorField(x.chart, comps)


def lie_correction_rows(x: VectorField, p: int, q: int) -> tuple:
    """The non-transport part of L_X on type-(p, q) components, as rows.

    (L_X T)_I = X(T_I) + sum_J rows[I][J] T_J over flat component indices:
    one correction per lower index with the derivative of X loading the
    index, minus one per upper index.

    The rows are built on the simplified Jacobian d_a X^c, so every entry is
    in canonical form before `lie_derivative` or the composition of G
    multiplies it.  A raw derivative such as d_theta(cos(phi)*cot(theta)) is
    a sum of four terms that simplifies to one, and products of such sums
    form terms that cancel only later.  `expr.diff` itself stays raw: most
    of its results are added, not multiplied, and simplifying each of them
    costs more than it saves.
    """
    chart = x.chart
    d = chart.dim
    # dx[c][a] = d_a X^c
    dx = [[ex.simplify(ex.diff(comp, coord)) for coord in chart.coords] for comp in x.comps]
    stride = [d ** (p + q - 1 - slot) for slot in range(p + q)]
    rows = []
    for i, idx in enumerate(itertools.product(range(d), repeat=p + q)):
        row: dict[int, ex.Expr] = {}
        for slot, a in enumerate(idx):
            for c in range(d):
                f = dx[c][a] if slot >= p else ex.neg(dx[a][c])
                if f == ex.ZERO:
                    continue
                j = i + (c - a) * stride[slot]
                f = ex.add(row[j], f) if j in row else f
                if f == ex.ZERO:
                    del row[j]
                else:
                    row[j] = f
        rows.append(row)
    return tuple(rows)


def lie_derivative(x: VectorField, t: TensorField) -> TensorField:
    """Lie derivative of a coordinate-frame tensor along X: transport along X
    plus the correction rows of `lie_correction_rows`."""
    if x.chart != t.chart:
        raise ChartMismatchError("vector and tensor live on different charts")
    rows = lie_correction_rows(x, t.p, t.q)
    out = tuple(
        ex.sum_of_products(x.products(comp) + [(t.comps[j], f) for j, f in row.items()])
        for comp, row in zip(t.comps, rows)
    )
    return TensorField(t.chart, t.p, t.q, out)


class PairReport(FrozenRecord):
    """reports: ZeroReport per component."""

    _fields = ("i", "j", "reports")

    @property
    def ok(self) -> bool:
        return all(r.is_zero for r in self.reports)


class RealizationReport(FrozenRecord):
    _fields = ("pairs",)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "pairs": [
                {
                    "i": p.i + 1,
                    "j": p.j + 1,
                    "components": [r.to_json() for r in p.reports],
                }
                for p in self.pairs
            ],
        }


def verify_realization(fields, sc, seed: int = 0) -> RealizationReport:
    """Check [xi_i, xi_j] = C^k_ij xi_k componentwise for every pair."""
    if len(fields) != sc.r:
        raise ValueError(f"need {sc.r} generator fields, got {len(fields)}")
    chart = fields[0].chart
    box = chart.full_box()
    pairs = []
    for i in range(sc.r):
        for j in range(i + 1, sc.r):
            br = lie_bracket(fields[i], fields[j])
            want = [
                ex.sum_of_products([(ex.num(sc.c[k][i][j]), fields[k].comps[a]) for k in range(sc.r)])
                for a in range(chart.dim)
            ]
            reports = tuple(
                nc.is_zero(ex.sub(br.comps[a], want[a]), box, seed) for a in range(chart.dim)
            )
            pairs.append(PairReport(i, j, reports))
    return RealizationReport(tuple(pairs))
