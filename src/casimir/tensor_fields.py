"""Charts, vector/tensor fields, Lie brackets, and Lie derivatives.

Tensors carry their components against the coordinate frame of a chart;
the Lie derivative implements the component transport-plus-correction
formula for arbitrary type (p, q).  Frame-indexed tensors are handled in
:mod:`casimir.split_structure` through frame scale factors instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import expr as ex
from . import numcheck as nc

COORDINATE_FRAME = "coordinate"


class ChartMismatchError(Exception):
    pass


class FrameMismatchError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """Named coordinates with an open sampling box and excluded loci."""

    name: str
    coords: tuple
    box: dict = field(default_factory=dict)
    singular_loci: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def full_box(self) -> dict:
        out = dict(self.box)
        out.update(self.params)
        return out

    def axis(self, name: str) -> int:
        return self.coords.index(name)


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    comps: tuple  # Expr per coordinate

    def __post_init__(self):
        if len(self.comps) != self.chart.dim:
            raise ValueError("component count must equal the chart dimension")

    def apply(self, f: ex.Expr) -> ex.Expr:
        """Directional derivative X(f)."""
        return ex.add(*[ex.mul(c, ex.diff(f, x)) for c, x in zip(self.comps, self.chart.coords)])


@dataclass(frozen=True)
class TensorField:
    """Type-(p, q) field; components indexed row-major over (a1..ap, b1..bq)."""

    chart: Chart
    p: int
    q: int
    comps: tuple
    frame: str = COORDINATE_FRAME

    def __post_init__(self):
        want = self.chart.dim ** (self.p + self.q)
        if len(self.comps) != want:
            raise ValueError(f"need {want} components, got {len(self.comps)}")

    @property
    def rank(self) -> int:
        return self.p + self.q

    def flat(self, idx: tuple) -> int:
        d = self.chart.dim
        out = 0
        for i in idx:
            out = out * d + i
        return out

    def comp(self, *idx) -> ex.Expr:
        return self.comps[self.flat(idx)]

    def indices(self):
        return itertools.product(range(self.chart.dim), repeat=self.rank)


def scalar_field(chart: Chart, e: ex.Expr) -> TensorField:
    return TensorField(chart, 0, 0, (e,))


def one_form(chart: Chart, comps) -> TensorField:
    return TensorField(chart, 0, 1, tuple(comps))


def vector_as_tensor(x: VectorField) -> TensorField:
    return TensorField(x.chart, 1, 0, x.comps)


def tensor_add(a: TensorField, b: TensorField) -> TensorField:
    if (a.chart, a.p, a.q, a.frame) != (b.chart, b.p, b.q, b.frame):
        raise FrameMismatchError("tensor shapes differ")
    return TensorField(a.chart, a.p, a.q, tuple(ex.add(x, y) for x, y in zip(a.comps, b.comps)), a.frame)


def tensor_scale(a: TensorField, s) -> TensorField:
    s = ex.as_expr(s)
    return TensorField(a.chart, a.p, a.q, tuple(ex.mul(s, c) for c in a.comps), a.frame)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^a = X^c d_c Y^a - Y^c d_c X^a."""
    if x.chart != y.chart:
        raise ChartMismatchError("bracket needs a shared chart")
    comps = tuple(
        ex.sub(x.apply(y.comps[a]), y.apply(x.comps[a])) for a in range(x.chart.dim)
    )
    return VectorField(x.chart, comps)


def lie_derivative(x: VectorField, t: TensorField) -> TensorField:
    """Lie derivative of a coordinate-frame tensor along X.

    Component formula: transport along X, plus one correction per lower index
    with the derivative of X loading the index, minus one per upper index.
    """
    if t.frame != COORDINATE_FRAME:
        raise FrameMismatchError("lie_derivative acts on coordinate-frame tensors")
    if x.chart != t.chart:
        raise ChartMismatchError("vector and tensor live on different charts")
    chart = t.chart
    d = chart.dim
    p, q = t.p, t.q
    out = []
    for idx in t.indices() if t.rank else [()]:
        parts = [ex.mul(x.comps[c], ex.diff(t.comps[t.flat(idx)], chart.coords[c])) for c in range(d)]
        for n in range(q):
            slot = p + n
            for c in range(d):
                repl = idx[:slot] + (c,) + idx[slot + 1 :]
                parts.append(
                    ex.mul(t.comps[t.flat(repl)], ex.diff(x.comps[c], chart.coords[idx[slot]]))
                )
        for k in range(p):
            for c in range(d):
                repl = idx[:k] + (c,) + idx[k + 1 :]
                parts.append(
                    ex.neg(ex.mul(t.comps[t.flat(repl)], ex.diff(x.comps[idx[k]], chart.coords[c])))
                )
        out.append(ex.add(*parts))
    return TensorField(chart, p, q, tuple(out))


@dataclass(frozen=True)
class PairReport:
    i: int
    j: int
    reports: tuple  # ZeroReport per component

    @property
    def ok(self) -> bool:
        return all(r.is_zero for r in self.reports)


@dataclass(frozen=True)
class RealizationReport:
    pairs: tuple

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
                ex.add(*[ex.mul(ex.num(sc.c[k][i][j]), fields[k].comps[a]) for k in range(sc.r)])
                for a in range(chart.dim)
            ]
            reports = tuple(
                nc.is_zero(ex.sub(br.comps[a], want[a]), box, seed) for a in range(chart.dim)
            )
            pairs.append(PairReport(i, j, reports))
    return RealizationReport(tuple(pairs))
