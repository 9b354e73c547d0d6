"""The generalized Casimir operator and its reduction to scalar operators.

``G = g^{ik} L_i L_k`` acts on tensors through nested Lie derivatives; on a
frame that diagonalizes the group action it reduces, monomial by monomial,
to a scalar second-order operator whose shift terms come from the frame
scale factors.  Eigenvalue claims are certified by residual checks, never
asserted from labels.

Sign convention: eigenvalues are stored for G itself.  On the rotation
model the familiar spherical-harmonic convention quotes -G, so weight-l
families carry the eigenvalue -l(l+1) here; reports state this explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import expr as ex
from . import numcheck as nc
from .parser import parse
from .split_structure import Frame, MuFactors
from .tensor_fields import Chart, TensorField, VectorField, lie_derivative, tensor_add, tensor_scale

SIGN_NOTE = "eigenvalue of G = g^{ik} L_i L_k itself; rotation-harmonic conventions quote -G"


@dataclass(frozen=True)
class CasimirOperator:
    """Generators plus a certified invariant metric in that generator basis."""

    name: str
    chart: Chart
    generators: tuple
    metric: tuple  # metric[i][k]: Expr
    frame: Frame | None = None
    mu: MuFactors | None = None

    @property
    def r(self) -> int:
        return len(self.generators)


def apply_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T = sum_ik g^{ik} L_i (L_k T), exact components."""
    if t.chart != op.chart:
        raise ValueError("tensor lives on a different chart")
    first = [lie_derivative(g, t) for g in op.generators]
    total = None
    for i, gi in enumerate(op.generators):
        for k in range(op.r):
            coeff = op.metric[i][k]
            if coeff == ex.ZERO:
                continue
            piece = tensor_scale(lie_derivative(gi, first[k]), coeff)
            total = piece if total is None else tensor_add(total, piece)
    if total is None:
        total = tensor_scale(t, ex.ZERO)
    return TensorField(t.chart, t.p, t.q, tuple(ex.simplify(c) for c in total.comps), t.frame)


# --- scalar differential operators -----------------------------------------


@dataclass(frozen=True)
class ScalarOperator:
    """Coefficient table {derivative multi-index: Expr} up to second order."""

    chart: Chart
    table: tuple  # tuple of (multi-index tuple, Expr), sorted

    @staticmethod
    def from_table(chart: Chart, table: dict) -> "ScalarOperator":
        items = []
        for idx, coeff in table.items():
            c = ex.simplify(coeff)
            if c != ex.ZERO:
                items.append((tuple(idx), c))
        items.sort(key=lambda kv: kv[0])
        return ScalarOperator(chart, tuple(items))

    def as_dict(self) -> dict:
        return dict(self.table)

    @staticmethod
    def zero(chart: Chart) -> "ScalarOperator":
        return ScalarOperator(chart, ())

    @staticmethod
    def multiplication(chart: Chart, f: ex.Expr) -> "ScalarOperator":
        return ScalarOperator.from_table(chart, {(0,) * chart.dim: f})

    @staticmethod
    def from_vector_field(x: VectorField) -> "ScalarOperator":
        chart = x.chart
        tab = {}
        for c, comp in enumerate(x.comps):
            idx = [0] * chart.dim
            idx[c] = 1
            tab[tuple(idx)] = comp
        return ScalarOperator.from_table(chart, tab)

    def plus(self, other: "ScalarOperator") -> "ScalarOperator":
        tab = dict(self.table)
        for idx, c in other.table:
            tab[idx] = ex.add(tab.get(idx, ex.ZERO), c)
        return ScalarOperator.from_table(self.chart, tab)

    def scaled(self, s) -> "ScalarOperator":
        s = ex.as_expr(s)
        return ScalarOperator.from_table(self.chart, {idx: ex.mul(s, c) for idx, c in self.table})

    def apply(self, f: ex.Expr) -> ex.Expr:
        parts = []
        for idx, coeff in self.table:
            d = f
            for axis, k in enumerate(idx):
                for _ in range(k):
                    d = ex.diff(d, self.chart.coords[axis])
            parts.append(ex.mul(coeff, d))
        return ex.add(*parts)

    def compose_vf_left(self, x: VectorField) -> "ScalarOperator":
        """The operator (X followed by self's input), i.e. X o self."""
        tab: dict[tuple, ex.Expr] = {}

        def acc(idx, c):
            tab[idx] = ex.add(tab.get(idx, ex.ZERO), c)

        for idx, coeff in self.table:
            for axis, comp in enumerate(x.comps):
                if comp == ex.ZERO:
                    continue
                acc(idx, ex.mul(comp, ex.diff(coeff, self.chart.coords[axis])))
                up = list(idx)
                up[axis] += 1
                acc(tuple(up), ex.mul(comp, coeff))
        return ScalarOperator.from_table(self.chart, tab)

    def order(self) -> int:
        return max((sum(idx) for idx, _ in self.table), default=0)

    def equal_to(self, other: "ScalarOperator", box=None, seed: int = 0) -> bool:
        keys = {idx for idx, _ in self.table} | {idx for idx, _ in other.table}
        a, b = self.as_dict(), other.as_dict()
        for idx in keys:
            rep = nc.is_zero(ex.sub(a.get(idx, ex.ZERO), b.get(idx, ex.ZERO)), box, seed)
            if rep.verdict is not nc.Verdict.SYMBOLIC_ZERO:
                return False
        return True

    def pretty(self) -> str:
        if not self.table:
            return "0"
        names = self.chart.coords
        out = []
        for idx, coeff in self.table:
            ds = "*".join(
                f"d{names[a]}" + (f"^{k}" if k > 1 else "")
                for a, k in enumerate(idx)
                if k
            )
            cs = ex.unparse(coeff)
            out.append(f"({cs}) {ds}".strip() if ds else f"({cs})")
        return "  +  ".join(out)

    def to_json(self) -> dict:
        names = self.chart.coords
        return {
            "coordinates": list(names),
            "terms": [
                {"derivative": list(idx), "coefficient": ex.unparse(c)} for idx, c in self.table
            ],
        }


def _weight(op: CasimirOperator, upper: tuple, lower: tuple, i: int) -> ex.Expr:
    """phi_i of the monomial; a scalar (no legs) needs no frame scale factors."""
    if not upper and not lower:
        return ex.ZERO
    if op.mu is None:
        raise ValueError(f"operator {op.name} has no frame scale factors")
    return op.mu.weight(upper, lower, i)


def shifted_generator(op: CasimirOperator, i: int, upper: tuple, lower: tuple) -> ScalarOperator:
    """First-order operator xi_i - phi_i acting on a monomial component."""
    phi = _weight(op, upper, lower, i)
    out = ScalarOperator.from_vector_field(op.generators[i])
    if phi != ex.ZERO:
        out = out.plus(ScalarOperator.multiplication(op.chart, ex.neg(phi)))
    return out


def reduce_to_scalar(op: CasimirOperator, upper: tuple = (), lower: tuple = ()) -> ScalarOperator:
    """Scalar operator acting on the (upper, lower) monomial component.

    Computed as g^{ik} (xi_i - phi_i)(xi_k - phi_k); with all scale factors
    zero, and with no legs at all, this is the plain scalar Casimir operator
    K = g^{ik} xi_i xi_k."""
    shifted = [shifted_generator(op, i, upper, lower) for i in range(op.r)]
    total = ScalarOperator.zero(op.chart)
    for i in range(op.r):
        phi_i = _weight(op, upper, lower, i)
        for k in range(op.r):
            gik = op.metric[i][k]
            if gik == ex.ZERO:
                continue
            inner = shifted[k]
            composed = inner.compose_vf_left(op.generators[i])
            if phi_i != ex.ZERO:
                composed = composed.plus(inner.scaled(ex.neg(phi_i)))
            total = total.plus(composed.scaled(gik))
    return total


# --- monomials ---------------------------------------------------------------


@dataclass(frozen=True)
class TensorMonomial:
    """One frame-basis slot with its scalar component."""

    upper: tuple  # frame leg indices for vector slots
    lower: tuple  # frame leg indices for covector slots
    scalar: ex.Expr


def assemble(frame: Frame, monomials, p: int, q: int) -> TensorField:
    """Sum of scalar * basis tensor products, in coordinate components."""
    chart = frame.chart
    d = chart.dim
    total = {idx: ex.ZERO for idx in itertools.product(range(d), repeat=p + q)}
    for mono in monomials:
        if len(mono.upper) != p or len(mono.lower) != q:
            raise ValueError("monomial slot count does not match the tensor type")
        for idx in itertools.product(range(d), repeat=p + q):
            parts = [mono.scalar]
            for slot, a in enumerate(mono.upper):
                parts.append(frame.vectors[a].comps[idx[slot]])
            for slot, b in enumerate(mono.lower):
                parts.append(frame.covectors[b].comps[idx[p + slot]])
            total[idx] = ex.add(total[idx], ex.mul(*parts))
    comps = tuple(
        ex.simplify(total[idx]) for idx in itertools.product(range(d), repeat=p + q)
    )
    return TensorField(chart, p, q, comps)


def assembly_to_json(frame: Frame, monomials) -> list:
    """Serialize monomials by frame leg names and scalar text."""
    return [
        {
            "upper": [frame.names[a] for a in mo.upper],
            "lower": [frame.names[b] for b in mo.lower],
            "scalar": ex.unparse(mo.scalar),
        }
        for mo in monomials
    ]


def assemble_from_json(frame: Frame, monomials) -> TensorField:
    """Rebuild an assembled tensor from monomials serialized by `assembly_to_json`.

    Legs are named by the frame; scalars may use the chart coordinates and
    its parameters (the amplitudes)."""
    if not monomials:
        raise ValueError("an assembly needs at least one monomial")
    chart = frame.chart
    legs = {name: a for a, name in enumerate(frame.names)}
    monos = [
        TensorMonomial(
            tuple(legs[a] for a in mo["upper"]),
            tuple(legs[b] for b in mo["lower"]),
            parse(mo["scalar"], chart.coords, chart.params),
        )
        for mo in monomials
    ]
    return assemble(frame, monos, len(monos[0].upper), len(monos[0].lower))


def project_component(t: TensorField, frame: Frame, upper: tuple, lower: tuple) -> ex.Expr:
    """Frame component T^A_B: contract upper slots with covectors, lower with vectors."""
    chart = t.chart
    d = chart.dim
    parts = []
    for idx in itertools.product(range(d), repeat=t.p + t.q):
        factors = [t.comps[t.flat(idx)]]
        for slot, a in enumerate(upper):
            factors.append(frame.covectors[a].comps[idx[slot]])
        for slot, b in enumerate(lower):
            factors.append(frame.vectors[b].comps[idx[t.p + slot]])
        parts.append(ex.mul(*factors))
    return ex.simplify(ex.add(*parts))


# --- certification -----------------------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: ex.Expr
    reports: tuple
    convention: str = SIGN_NOTE

    @property
    def ok(self) -> bool:
        return all(r.is_zero for r in self.reports)

    def to_json(self) -> dict:
        return {
            "eigenvalue": ex.unparse(self.eigenvalue),
            "convention": self.convention,
            "residuals": [r.to_json() for r in self.reports],
        }


def certify_eigen(op: CasimirOperator, t: TensorField, lam, seed: int = 0) -> EigenResult:
    """Residual verdict on (G - lambda) T, componentwise."""
    lam = ex.as_expr(lam)
    gt = apply_casimir(op, t)
    box = op.chart.full_box()
    reports = tuple(
        nc.is_zero(ex.sub(a, ex.mul(lam, b)), box, seed) for a, b in zip(gt.comps, t.comps)
    )
    return EigenResult(lam, reports)


def check_commutes(op: CasimirOperator, j: int, t: TensorField, seed: int = 0):
    """Verdicts on (G L_j - L_j G) T; zero because the metric is invariant."""
    gj = op.generators[j]
    lhs = apply_casimir(op, lie_derivative(gj, t))
    rhs = lie_derivative(gj, apply_casimir(op, t))
    box = op.chart.full_box()
    return [nc.is_zero(ex.sub(a, b), box, seed) for a, b in zip(lhs.comps, rhs.comps)]
