"""The generalized Casimir operator and its reduction to scalar operators.

``G = g^{ik} L_i L_k`` is built from Lie derivatives.  On the coordinate
components of a type-(p, q) tensor each ``L_i`` is a first-order operator
``A_i = xi_i . d + R_i``, with ``R_i`` the correction rows of
:func:`casimir.tensor_fields.lie_correction_rows`, whose entries come from
the simplified generator Jacobian, so that no product below multiplies raw
derivative sums whose terms cancel later (``expr.diff`` itself stays raw:
most of its results are added, not multiplied).  G is then a fixed matrix of
second-order scalar operators ``G_IJ = delta_IJ K + g^{ik} (R_k[I][J] xi_i +
R_i[I][J] xi_k + xi_i(R_k[I][J]) + sum_L R_i[I][L] R_k[L][J])``, with ``K =
g^{ik} xi_i xi_k`` the scalar Casimir operator.  K is composed once per
operator; one routine adds the corrections, forming each distinct
coefficient product once.  ``apply_casimir`` builds the matrix once per
operator and tensor type (memoized on the operator) and applies it
componentwise, one row per orbit of the slot permutations under which T's
components are equal, since G commutes with them.  On a frame that
diagonalizes the group action G reduces, monomial by monomial, to the 1x1
case of the same composition, ``R_i = -phi_i``, whose shift terms come from
the frame scale factors.  Eigenvalue claims are certified by residual
checks, never asserted from labels.

Sign convention: eigenvalues are stored for G itself.  On the rotation
model the familiar spherical-harmonic convention quotes -G, so weight-l
families carry the eigenvalue -l(l+1) here; reports state this explicitly.
"""

from __future__ import annotations

import functools
import itertools

from . import expr as ex
from . import numcheck as nc
from .parser import parse
from .record import FrozenRecord
from .split_structure import Frame, MuFactors
from .tensor_fields import Chart, TensorField, lie_correction_rows, lie_derivative

SIGN_NOTE = "eigenvalue of G = g^{ik} L_i L_k itself; rotation-harmonic conventions quote -G"


class CasimirOperator(FrozenRecord):
    """Generators plus a certified invariant metric in that generator basis,
    and optionally the scale factors `mu` of a frame of those generators,
    which reduction needs; the frame itself is `mu.frame`."""

    _fields = ("name", "chart", "generators", "metric", "mu")

    def __init__(self, name: str, chart: Chart, generators: tuple, metric: tuple,
                 mu: MuFactors | None = None):
        # metric[i][k]: Expr
        if mu is not None and tuple(mu.generators) != tuple(generators):
            raise ValueError(f"operator {name}: the scale factors belong to other generators")
        # _matrices is built on first use: G's component matrix per tensor type
        # (p, q), K under ("reduced", (), ()), and the reduced and shifted
        # scalar operators per monomial
        super().__init__(name, chart, generators, metric, mu)
        self.__dict__["_matrices"] = {}

    @property
    def r(self) -> int:
        return len(self.generators)


def apply_casimir(op: CasimirOperator, t: TensorField) -> TensorField:
    """G T componentwise: (G T)_I = sum_J G_IJ T_J, exact and simplified.

    G commutes with every permutation of the upper slots and of the lower
    slots (`lie_correction_rows` treats every slot by one rule), so when T's
    components are equal under such permutations so are G T's: only the
    representative rows of `symmetric_representatives` are summed, and
    every other component is its representative's expression."""
    if t.chart != op.chart:
        raise ValueError("tensor lives on a different chart")
    key = (t.p, t.q)
    matrix = op._matrices.get(key)
    if matrix is None:
        rows = [lie_correction_rows(x, t.p, t.q) for x in op.generators]
        matrix = op._matrices[key] = _compose(op, rows)
    reps = symmetric_representatives(t)
    comps = []
    for i, row in enumerate(matrix):
        if reps[i] != i:
            comps.append(comps[reps[i]])
            continue
        comps.append(ex.simplify(ex.sum_of_products(
            itertools.chain.from_iterable(entry.products(t.comps[j]) for j, entry in row))))
    return TensorField(t.chart, t.p, t.q, tuple(comps))


@functools.lru_cache(maxsize=64)
def _representatives(d: int, p: int, q: int, upper: bool, lower: bool) -> tuple:
    """Per flat component index of a type-(p, q) tensor on a d-dimensional
    chart, the flat index with its upper legs sorted when `upper` is true and
    its lower legs sorted when `lower` is true: the least index of its orbit
    under those slot permutations, so it comes first in row-major order."""
    reps = []
    for idx in itertools.product(range(d), repeat=p + q):
        legs = (sorted(idx[:p]) if upper else list(idx[:p])) + (sorted(idx[p:]) if lower else list(idx[p:]))
        flat = 0
        for a in legs:
            flat = flat * d + a
        reps.append(flat)
    return tuple(reps)


def symmetric_representatives(t: TensorField) -> tuple:
    """`_representatives` for the slot groups in which T is symmetric, read
    off exact equality of its components: T_I == T_sigma(I) for every index I
    and permutation sigma of its upper (or lower) slots.  The identity map
    for a tensor with no symmetric slot group."""
    d, p, q = t.chart.dim, t.p, t.q

    def symmetric(upper: bool) -> bool:
        return all(c == t.comps[j] for c, j in zip(t.comps, _representatives(d, p, q, upper, not upper)))

    return _representatives(d, p, q, p > 1 and symmetric(True), q > 1 and symmetric(False))


# --- scalar differential operators -----------------------------------------


class ScalarOperator(FrozenRecord):
    """Coefficient table {derivative multi-index: Expr} up to second order;
    table: (multi-index, Expr) pairs, sorted."""

    _fields = ("chart", "table")

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
    with all scale factors zero this is the plain scalar Casimir operator
    K = g^{ik} xi_i xi_k, which a scalar (no legs) gets as it is."""
    if not upper and not lower:
        return _scalar_casimir(op)
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


def _scalar_casimir(op: CasimirOperator) -> ScalarOperator:
    """K = g^{ik} xi_i xi_k, composed once per operator from the transport tables."""
    key = ("reduced", (), ())
    if key not in op._matrices:
        transport = [_first_order(op, i, ex.ZERO) for i in range(op.r)]
        acc = {}  # multi-index -> raw coefficient products
        for i, k, g in _metric_entries(op):
            for alpha, s in transport[i].items():
                axis = op.chart.coords[alpha.index(1)]
                for beta, c in transport[k].items():
                    acc.setdefault(beta, []).append((g, s, ex.diff(c, axis)))
                    acc.setdefault(tuple(map(sum, zip(alpha, beta))), []).append((g, s, c))
        op._matrices[key] = ScalarOperator.from_table(
            op.chart, {idx: ex.sum_of_products(ps) for idx, ps in acc.items()})
    return op._matrices[key]


def _metric_entries(op: CasimirOperator) -> list:
    return [(i, k, g) for i, row in enumerate(op.metric) for k, g in enumerate(row) if g != ex.ZERO]


def _compose(op: CasimirOperator, rows: list) -> tuple:
    """G's component matrix for the correction rows R_i = rows[i], given as
    rows {J: factor}: K on the diagonal plus the correction terms, each
    distinct raw product formed once and each entry simplified once.
    Returns, per row I, the nonzero entries as (J, ScalarOperator) pairs."""
    zero = (0,) * op.chart.dim
    transport = [_first_order(op, i, ex.ZERO) for i in range(op.r)]
    acc = [{} for _ in rows[0]]  # acc[I][J][multi-index] -> raw coefficient products
    made = {}  # raw products by their factors, freed on return

    def put(row_i, j, idx, *factors):
        p = made.get(factors)
        if p is None:
            p = made[factors] = ex.mul(*factors)
        acc[row_i].setdefault(j, {}).setdefault(idx, []).append(p)

    for i, k, g in _metric_entries(op):
        for row_i in range(len(acc)):
            for j, rk in rows[k][row_i].items():  # R_k[I][J] xi_i + xi_i(R_k[I][J])
                for alpha, x in transport[i].items():
                    put(row_i, j, alpha, g, x, rk)
                    drk = ex.diff(rk, op.chart.coords[alpha.index(1)])
                    if drk != ex.ZERO:
                        put(row_i, j, zero, g, x, drk)
            for mid, ri in rows[i][row_i].items():  # R_i[I][L] (xi_k + R_k[L][J])
                for beta, x in transport[k].items():
                    put(row_i, mid, beta, g, ri, x)
                for j, rk in rows[k][mid].items():
                    put(row_i, j, zero, g, ri, rk)
    matrix = []
    for row_i, out in enumerate(acc):
        diag = out.setdefault(row_i, {})
        for idx, c in _scalar_casimir(op).table:
            diag.setdefault(idx, []).append(c)
        entries = []
        for col in sorted(out):
            entry = ScalarOperator.from_table(op.chart, {idx: ex.add(*ps) for idx, ps in out[col].items()})
            if entry.table:
                entries.append((col, entry))
        matrix.append(tuple(entries))
    return tuple(matrix)


# --- monomials ---------------------------------------------------------------


class TensorMonomial(FrozenRecord):
    """One frame-basis slot with its scalar component; upper/lower: frame leg
    indices for the vector/covector slots."""

    _fields = ("upper", "lower", "scalar")


def assemble(frame: Frame, monomials, p: int, q: int) -> TensorField:
    """Sum of scalar * basis tensor products, in coordinate components.

    Only the components of `_representatives` are summed for the slot
    groups in which the monomials are symmetric (`_symmetric_slots`); every
    other component is its representative's expression."""
    chart = frame.chart
    d = chart.dim
    monomials = list(monomials)
    for mono in monomials:
        if len(mono.upper) != p or len(mono.lower) != q:
            raise ValueError("monomial slot count does not match the tensor type")
    reps = _representatives(d, p, q, p > 1 and _symmetric_slots(monomials, p, True),
                            q > 1 and _symmetric_slots(monomials, q, False))
    comps = []
    for i, idx in enumerate(itertools.product(range(d), repeat=p + q)):
        if reps[i] != i:
            comps.append(comps[reps[i]])
            continue
        products = []
        for mono in monomials:
            parts = [mono.scalar]
            for slot, a in enumerate(mono.upper):
                parts.append(frame.vectors[a].comps[idx[slot]])
            for slot, b in enumerate(mono.lower):
                parts.append(frame.covectors[b].comps[idx[p + slot]])
            products.append(parts)
        comps.append(ex.simplify(ex.sum_of_products(products)))
    return TensorField(chart, p, q, tuple(comps))


def _symmetric_slots(monomials: list, n: int, upper: bool) -> bool:
    """Whether the n upper (or lower) slots of the monomials' sum are
    symmetric: for every two neighbouring legs of that group, the scalars of
    each leg tuple are, counted with multiplicity, those of the leg tuple with
    the two swapped, so every monomial's partner with permuted legs is
    present with an equal scalar."""
    scalars = {}
    for mo in monomials:
        scalars.setdefault((tuple(mo.upper), tuple(mo.lower)), []).append(mo.scalar)
    for (u, lo), mine in scalars.items():
        legs = u if upper else lo
        for k in range(n - 1):
            swapped = legs[:k] + (legs[k + 1], legs[k]) + legs[k + 2:]
            theirs = scalars.get((swapped, lo) if upper else (u, swapped), [])
            if len(theirs) != len(mine) or any(mine.count(s) != theirs.count(s) for s in mine):
                return False
    return True


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
    its parameters (the amplitudes); each distinct scalar text is parsed once."""
    if not monomials:
        raise ValueError("an assembly needs at least one monomial")
    if any(len(mo["upper"]) + len(mo["lower"]) > 4 for mo in monomials):  # `assemble` builds d^legs components
        raise ValueError("an assembly monomial has at most 4 legs")
    chart = frame.chart
    legs = {name: a for a, name in enumerate(frame.names)}
    scalar = functools.lru_cache(maxsize=None)(lambda text: parse(text, chart.coords, chart.params))
    monos = [
        TensorMonomial(tuple(legs[a] for a in mo["upper"]), tuple(legs[b] for b in mo["lower"]),
                       scalar(mo["scalar"]))
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


class EigenResult(FrozenRecord):
    _fields = ("eigenvalue", "reports")

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
    pairs = list(zip(gt.comps, t.comps))
    verdicts = {}  # one check per distinct (G T_I, T_I), as mirrored components of a symmetric T share
    for a, b in pairs:
        if (a, b) not in verdicts:
            verdicts[a, b] = nc.is_zero(ex.sub(a, ex.mul(lam, b)), box, seed)
    return EigenResult(lam, tuple(verdicts[pair] for pair in pairs))


def check_commutes(op: CasimirOperator, j: int, t: TensorField, seed: int = 0):
    """Verdicts on (G L_j - L_j G) T; zero because the metric is invariant."""
    gj = op.generators[j]
    lhs = apply_casimir(op, lie_derivative(gj, t))
    rhs = lie_derivative(gj, apply_casimir(op, t))
    box = op.chart.full_box()
    return [nc.is_zero(ex.sub(a, b), box, seed) for a, b in zip(lhs.comps, rhs.comps)]
