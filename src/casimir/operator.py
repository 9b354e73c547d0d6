"""The generalized Casimir operator and its reduction to scalar operators.

``G = g^{ik} L_i L_k`` is built from Lie derivatives.  On the coordinate
components of a type-(p, q) tensor each ``L_i`` is a first-order operator
``A_i = xi_i . d + R_i``, with ``R_i`` the correction rows of
:func:`casimir.tensor_fields.lie_correction_rows`, so G is a fixed matrix of
second-order scalar operators ``G_IJ``.  One routine composes
``sum g^{ik} A_i A_k``; ``apply_casimir`` builds the matrix once per
operator and tensor type (memoized on the operator) and applies it
componentwise.  On a frame that diagonalizes the group action G reduces,
monomial by monomial, to the 1x1 case of the same composition,
``A_i = xi_i - phi_i``, whose shift terms come from the frame scale factors.
Eigenvalue claims are certified by residual checks, never asserted from
labels.

Sign convention: eigenvalues are stored for G itself.  On the rotation
model the familiar spherical-harmonic convention quotes -G, so weight-l
families carry the eigenvalue -l(l+1) here; reports state this explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import expr as ex
from . import numcheck as nc
from .parser import parse
from .split_structure import Frame, MuFactors
from .tensor_fields import Chart, TensorField, lie_correction_rows, lie_derivative

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
    # built on first use: G's component matrix per tensor type (p, q), and
    # the reduced and shifted scalar operators per monomial
    _matrices: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.mu is not None and tuple(self.mu.generators) != tuple(self.generators):
            raise ValueError(f"operator {self.name}: the scale factors belong to other generators")

    @property
    def r(self) -> int:
        return len(self.generators)


def apply_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T componentwise: (G T)_I = sum_J G_IJ T_J, exact and simplified."""
    if t.chart != op.chart:
        raise ValueError("tensor lives on a different chart")
    key = (t.p, t.q)
    matrix = op._matrices.get(key)
    if matrix is None:
        rows = [lie_correction_rows(x, t.p, t.q) for x in op.generators]
        matrix = op._matrices[key] = _compose(op, rows)
    comps = tuple(
        ex.simplify(ex.sum_of_products(
            itertools.chain.from_iterable(entry.products(t.comps[j]) for j, entry in row)))
        for row in matrix
    )
    return TensorField(t.chart, t.p, t.q, comps)


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

    def apply(self, f: ex.Expr) -> ex.Expr:
        return ex.sum_of_products(self.products(f))

    def products(self, f: ex.Expr):
        """The factor pairs (coefficient, derivative of f) whose sum is apply(f)."""
        for idx, coeff in self.table:
            d = f
            for axis, k in enumerate(idx):
                for _ in range(k):
                    d = ex.diff(d, self.chart.coords[axis])
            yield coeff, d

    def order(self) -> int:
        return max((sum(idx) for idx, _ in self.table), default=0)

    def equal_to(self, other: "ScalarOperator") -> bool:
        """Whether every coefficient difference simplifies to 0."""
        a, b = dict(self.table), dict(other.table)
        return all(ex.simplify(ex.sub(a.get(idx, ex.ZERO), b.get(idx, ex.ZERO))) == ex.ZERO
                   for idx in a.keys() | b.keys())

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
    key = ("shifted", i, tuple(upper), tuple(lower))
    if key not in op._matrices:
        shift = _weight(op, upper, lower, i)
        op._matrices[key] = ScalarOperator.from_table(op.chart, _first_order(op, i, shift))
    return op._matrices[key]


def reduce_to_scalar(op: CasimirOperator, upper: tuple = (), lower: tuple = ()) -> ScalarOperator:
    """Scalar operator acting on the (upper, lower) monomial component.

    The 1x1 case of G's component matrix, g^{ik} (xi_i - phi_i)(xi_k - phi_k);
    with all scale factors zero, and with no legs at all, this is the plain
    scalar Casimir operator K = g^{ik} xi_i xi_k."""
    key = ("reduced", tuple(upper), tuple(lower))
    if key not in op._matrices:
        phis = [_weight(op, upper, lower, i) for i in range(op.r)]
        entries = _compose(op, [({0: ex.neg(phi)} if phi != ex.ZERO else {},) for phi in phis])[0]
        op._matrices[key] = entries[0][1] if entries else ScalarOperator(op.chart, ())
    return op._matrices[key]


def _first_order(op: CasimirOperator, i: int, shift: ex.Expr) -> dict:
    """Table of the first-order operator xi_i - shift."""
    d = op.chart.dim
    tab = {}
    for a, comp in enumerate(op.generators[i].comps):
        if comp != ex.ZERO:
            tab[tuple(int(b == a) for b in range(d))] = comp
    if shift != ex.ZERO:
        tab[(0,) * d] = ex.neg(shift)
    return tab


def _compose(op: CasimirOperator, rows: list) -> tuple:
    """sum_ik g^{ik} A_i A_k as a matrix of scalar operators.

    A_i = xi_i . d + R_i acts on a column of components, with R_i = rows[i]
    given as rows {J: factor}.  Raw coefficient products are collected per
    entry, summed by one `sum_of_products` and simplified once, at the end.
    Returns, per row I, the nonzero entries as (J, ScalarOperator) pairs."""
    chart = op.chart
    n = len(rows[0])
    a_ops = []  # a_ops[i][I] = {J: first-order table of (A_i)_IJ}
    for i in range(op.r):
        transport = _first_order(op, i, ex.ZERO)
        a_i = []
        for row_i, row in enumerate(rows[i]):
            ent = {j: {(0,) * chart.dim: f} for j, f in row.items()}
            ent.setdefault(row_i, {}).update(transport)
            a_i.append(ent)
        a_ops.append(a_i)
    acc = [{} for _ in range(n)]  # acc[I][K][multi-index] -> raw coefficient products
    for i in range(op.r):
        for k in range(op.r):
            g = op.metric[i][k]
            if g == ex.ZERO:
                continue
            for row_i in range(n):
                for j, outer in a_ops[i][row_i].items():
                    for col, inner in a_ops[k][j].items():
                        products = acc[row_i].setdefault(col, {})
                        for idx, factors in _leibniz(chart.coords, g, outer, inner):
                            products.setdefault(idx, []).append(factors)
    matrix = []
    for row_i in range(n):
        entries = []
        for col in sorted(acc[row_i]):
            entry = ScalarOperator.from_table(
                chart, {idx: ex.sum_of_products(ps) for idx, ps in acc[row_i][col].items()}
            )
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
    products = {idx: [] for idx in itertools.product(range(d), repeat=p + q)}
    for mono in monomials:
        if len(mono.upper) != p or len(mono.lower) != q:
            raise ValueError("monomial slot count does not match the tensor type")
        for idx, ps in products.items():
            parts = [mono.scalar]
            for slot, a in enumerate(mono.upper):
                parts.append(frame.vectors[a].comps[idx[slot]])
            for slot, b in enumerate(mono.lower):
                parts.append(frame.covectors[b].comps[idx[p + slot]])
            ps.append(parts)
    comps = tuple(ex.simplify(ex.sum_of_products(ps)) for ps in products.values())
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
    products = []
    for idx in itertools.product(range(d), repeat=t.p + t.q):
        factors = [t.comps[t.flat(idx)]]
        for slot, a in enumerate(upper):
            factors.append(frame.covectors[a].comps[idx[slot]])
        for slot, b in enumerate(lower):
            factors.append(frame.vectors[b].comps[idx[t.p + slot]])
        products.append(factors)
    return ex.simplify(ex.sum_of_products(products))


# --- certification -----------------------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: ex.Expr
    reports: tuple

    @property
    def ok(self) -> bool:
        return all(r.is_zero for r in self.reports)

    def to_json(self) -> dict:
        return {
            "eigenvalue": ex.unparse(self.eigenvalue),
            "convention": SIGN_NOTE,
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
