"""Invariant frames, frame scale factors, invariant metrics.

This is the machinery that diagonalizes the generalized Casimir operator:
a frame of vectors/covectors in which every generator acts by scaling
(the mu factors), so that the rank-one projectors e_a (x) e^a of its dual
pairs are invariant, and for simply transitive actions the invariant frame
solved from the linear system ``xi_b L^a_d + C^a_{bq} L^q_d = 0`` by
undetermined coefficients: each ``L^a_d`` is a rational combination of
degree-one monomials in the coordinates times exponentials taken from the
generators, and equating the coefficients of the kernel's monomials leaves
one linear system over Q.
"""

from __future__ import annotations

from fractions import Fraction

from . import evalcore
from . import expr as ex
from . import numcheck as nc
from .lie_algebra import StructureConstants, gauss_jordan
from .record import FrozenRecord
from .tensor_fields import (
    Chart,
    TensorField,
    VectorField,
    lie_derivative,
    one_form,
)


class NotSimplyTransitiveError(Exception):
    pass


class NoClosedFormError(Exception):
    """No invariant frame in the solver's basis; supply the frame explicitly."""


class NotEigenFrameError(Exception):
    """A generator maps some frame covector off its own axis."""


class DualityError(Exception):
    pass


def pairing(omega: TensorField, x: VectorField) -> ex.Expr:
    """Inner product of a one-form with a vector."""
    return ex.sum_of_products(zip(omega.comps, x.comps))


# --- symbolic matrices -----------------------------------------------------


def mat_det(a) -> ex.Expr:
    n = len(a)
    if n == 1:
        return a[0][0]
    out = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = ex.mul(a[0][j], mat_det(minor))
        out.append(term if j % 2 == 0 else ex.neg(term))
    return ex.add(*out)


def mat_inverse(a):
    """Adjugate inverse; exact for symbolic entries.  Only `frame_from_vectors`
    calls it, once per frame, so each frame's determinant is expanded once."""
    n = len(a)
    det = ex.simplify(mat_det(a))
    if det == ex.ZERO:
        raise DualityError("frame component matrix is singular")
    inv_det = ex.power(det, -1)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            cof = mat_det(minor) if n > 1 else ex.ONE
            if (i + j) % 2:
                cof = ex.neg(cof)
            out[i][j] = ex.simplify(ex.mul(cof, inv_det))
    return out


# --- frames ----------------------------------------------------------------


class Frame(FrozenRecord):
    """vectors: VectorField per leg; covectors: (0,1) TensorField per leg,
    certified dual to the vectors when the frame is built."""

    _fields = ("chart", "names", "vectors", "covectors")


def frame_from_vectors(chart: Chart, vectors, names=None, seed: int = 0) -> Frame:
    """Complete a vector frame with its dual covectors (adjugate inverse)."""
    vectors = tuple(vectors)
    n = len(vectors)
    if n != chart.dim:
        raise DualityError(f"{n} vectors on a {chart.dim}-dimensional chart have no dual frame")
    if names is None:
        names = tuple(str(a + 1) for a in range(n))
    emat = [list(v.comps) for v in vectors]
    inv = mat_inverse(emat)  # inv[c][a]: component c of covector a
    covectors = tuple(one_form(chart, tuple(inv[c][a] for c in range(n))) for a in range(n))
    return frame_from_components(chart, vectors, covectors, names, seed)


def frame_from_components(chart: Chart, vectors, covectors, names, seed: int = 0) -> Frame:
    """A frame from given vectors and covectors, certified dual to each other."""
    names, vectors, covectors = tuple(names), tuple(vectors), tuple(covectors)
    box = chart.full_box()
    dual = [nc.is_zero(ex.sub(pairing(w, v), ex.ONE if a == b else ex.ZERO), box, seed)
            for a, w in enumerate(covectors) for b, v in enumerate(vectors)]
    if not all(r.is_zero for r in dual):
        raise DualityError(f"frame {names} failed the duality check")
    return Frame(chart, names, vectors, covectors)


# --- mu factors ------------------------------------------------------------


class MuFactors(FrozenRecord):
    """mu[a][i]: Expr, covector a, generator i; integrability: ZeroReport
    per (a, i, k)."""

    _fields = ("frame", "generators", "mu", "integrability")

    def weight(self, upper: tuple, lower: tuple, i: int) -> ex.Expr:
        """Sum of upper-leg factors minus lower-leg factors for generator i."""
        parts = [self.mu[a][i] for a in upper]
        parts += [ex.neg(self.mu[b][i]) for b in lower]
        return ex.add(*parts) if parts else ex.ZERO

    def invariant(self) -> bool:
        """Whether every scale factor is exactly zero: the frame is invariant."""
        return all(e == ex.ZERO for row in self.mu for e in row)


def compute_mu(frame: Frame, generators, sc: StructureConstants, seed: int = 0) -> MuFactors:
    """Extract mu^a_i from L_{xi_i} e^a = mu^a_i e^a and certify it.

    The ratio is taken on the first covector component that is not
    identically zero, then verified against every component.  With the
    frame's certified duality that is the whole eigenframe condition: the
    pairing (L_{xi_i} e^a) . e_b = mu^a_i delta_ab, and the Leibniz rule on
    the constant pairing gives L_{xi_i} e_b = -mu^b_i e_b, so every
    projector e_a (x) e^a is invariant.  The integrability identity ties
    the factors to the structure constants.
    """
    chart = frame.chart
    d = chart.dim
    box = chart.full_box()
    mu_rows = []
    for a, w in enumerate(frame.covectors):
        pivot = None
        for c in range(d):
            if ex.simplify(w.comps[c]) != ex.ZERO:
                pivot = c
                break
        if pivot is None:
            raise DualityError(f"covector {frame.names[a]} is identically zero")
        row = []
        for i, g in enumerate(generators):
            lw = lie_derivative(g, w)
            mu = ex.simplify(ex.div(lw.comps[pivot], w.comps[pivot]))
            for c in range(d):
                rep = nc.is_zero(ex.sub(lw.comps[c], ex.mul(mu, w.comps[c])), box, seed)
                if not rep.is_zero:
                    raise NotEigenFrameError(
                        f"L along generator {i + 1} moves covector {frame.names[a]} off its axis"
                    )
            row.append(mu)
        mu_rows.append(tuple(row))
    integ = []
    r = len(generators)
    for a in range(d):
        for i in range(r):
            for k in range(i + 1, r):
                lhs = ex.sub(
                    generators[i].apply(mu_rows[a][k]), generators[k].apply(mu_rows[a][i])
                )
                rhs = ex.add(
                    *[ex.mul(ex.num(sc.c[j][i][k]), mu_rows[a][j]) for j in range(r)]
                )
                integ.append(nc.is_zero(ex.sub(lhs, rhs), box, seed))
    if not all(rep.is_zero for rep in integ):
        raise NotEigenFrameError("mu factors failed the integrability identity")
    return MuFactors(frame, tuple(generators), tuple(mu_rows), tuple(integ))


# --- invariant frame for simply transitive actions --------------------------


class FrameSolution(FrozenRecord):
    """L[a][d]: e_d = sum_a L[a][d] xi_a; mu: the frame's scale factors, every
    one zero, which certify the frame invariant."""

    _fields = ("L", "mu")

    @property
    def frame(self) -> Frame:
        """The frame of `mu`.  The package reads `mu.frame`; only the
        acceptance suite reads this property."""
        return self.mu.frame


# Most unknowns the frame solver takes on.  The elimination's work and memory
# grow with their square; three generators with 40 exponentials give 972.
FRAME_MAX_UNKNOWNS = 1_000


def _frame_basis(generators) -> list:
    """The functions each L^a_d is sought among: 1 and every coordinate,
    times 1 and exp(+-u) for every exp(u) factor of the generators' terms,
    where u must be a rational linear form in the coordinates."""
    coords = generators[0].chart.coords
    scales = {ex.ONE: None}  # an ordered set
    for g in generators:
        for comp in g.comps:
            for _, mono in ex.terms_of(comp):
                for f in mono:
                    if type(f) is not ex.Fun or f.fname != "exp":
                        continue
                    if not all(not c.im and len(m) == 1 and type(m[0]) is ex.Sym and m[0].name in coords
                               for c, m in ex.terms_of(f.arg)):
                        raise NoClosedFormError(
                            f"{ex.unparse(f)} in the generators is not the exponential of a rational "
                            "linear form in the coordinates")
                    scales.update(dict.fromkeys((f, ex.exp(ex.neg(f.arg)))))
    return [ex.mul(p, s) for s in scales for p in (ex.ONE, *map(ex.sym, coords))]


def _frame_coefficients(sc: StructureConstants, generators) -> list:
    """L with L^a_d = sum_k c^a_dk phi_k over the basis phi of `_frame_basis`.

    Equating the coefficient of every kernel monomial in xi_b L^a_d +
    C^a_{bq} L^q_d = 0 gives one homogeneous system over Q in the c^a_k,
    the same for every column d.  Its null space normalized to L(0) = I is
    the unique solution of the system with L^a_d(0) = delta_ad added, which
    one Gauss-Jordan elimination finds for every d at once: the null space
    must have dimension r and its values at the origin must be independent."""
    basis = _frame_basis(generators)
    r, nb = sc.r, len(basis)
    n = r * nb  # c^a_k is unknown a * nb + k; column n + d is the right-hand side for d
    if n > FRAME_MAX_UNKNOWNS:
        raise NoClosedFormError(f"the solver's basis gives {n} unknowns, more than {FRAME_MAX_UNKNOWNS}")
    rows: dict = {}  # (b, a, monomial) -> its equation
    zero = Fraction(0)

    def put(b, a, mono, col, c):
        row = rows.get((b, a, mono))
        if row is None:
            row = rows[b, a, mono] = [zero] * (n + r)
        row[col] += c

    for b, g in enumerate(generators):
        for k, phi in enumerate(basis):
            moved = ex.terms_of(g.apply(phi))
            if any(c.im for c, _ in moved):
                raise NoClosedFormError("the invariance equations have a complex coefficient")
            ((_, own),) = ex.terms_of(phi)
            for a in range(r):
                for c, mono in moved:
                    put(b, a, mono, a * nb + k, c.re)
                for q in range(r):
                    if sc.c[a][b][q]:
                        put(b, a, own, q * nb + k, sc.c[a][b][q])
    origin = dict.fromkeys(generators[0].chart.coords, 0)
    at_origin = [Fraction(ex.subs(phi, origin).val.re) for phi in basis]
    norm = [[zero] * (a * nb) + at_origin + [zero] * ((r - 1 - a) * nb) + [Fraction(d == a) for d in range(r)]
            for a in range(r)]
    red, pivots = gauss_jordan([*rows.values(), *norm])
    if pivots != list(range(n)):
        raise NoClosedFormError("no invariant frame in the solver's basis: the invariance "
                                "equations have no unique solution with L(0) = I")
    return [[ex.sum_of_products((ex.num(red[a * nb + k][n + d]), phi) for k, phi in enumerate(basis)
                                if red[a * nb + k][n + d])
             for d in range(r)] for a in range(r)]


def solve_invariant_frame(sc: StructureConstants, generators, seed: int = 0) -> FrameSolution:
    """Invariant frame e_d = L^a_d xi_a for a simply transitive action.

    L is solved over Q by undetermined coefficients (`_frame_coefficients`)
    and normalized to the identity at the origin.  `frame_from_vectors`
    inverts the frame, expanding its determinant once, and certifies the
    duality; `compute_mu` certifies it invariant, every scale factor zero, as
    a user frame is.  A singular frame (a DualityError) or any other failure
    raises NoClosedFormError.
    """
    generators = tuple(generators)
    chart = generators[0].chart
    r, d = sc.r, chart.dim
    if r != d:
        raise NotSimplyTransitiveError(
            f"group dimension {r} != chart dimension {d}; supply a frame explicitly"
        )
    box = chart.full_box()
    # linear independence at sample points
    envs = nc.sample_box(box, 8, seed) if box else [{}]
    for env, mat in zip(envs, _matrices([g.comps for g in generators], envs)):
        if _numeric_rank(mat) < r:
            raise NotSimplyTransitiveError(f"generators are dependent near {env}")
    lmat = _frame_coefficients(sc, generators)
    emat = [[ex.simplify(ex.sum_of_products([(lmat[a][dd], generators[a].comps[c]) for a in range(r)]))
             for c in range(d)] for dd in range(r)]  # component c of e_dd = L^a_dd xi_a
    try:
        frame = frame_from_vectors(chart, [VectorField(chart, tuple(row)) for row in emat], seed=seed)
        mu = compute_mu(frame, generators, sc, seed)
    except (DualityError, NotEigenFrameError):
        mu = None
    if mu is None or not mu.invariant():
        raise NoClosedFormError("candidate frame failed the invariance equations")
    return FrameSolution(tuple(map(tuple, lmat)), mu)


# --- invariant metric -------------------------------------------------------


class InvariantMetric(FrozenRecord):
    """g[i][k]: Expr in the generator basis; killing: ZeroReport per (j, i, k)."""

    _fields = ("g", "rank", "killing", "provenance")

    def killing_ok(self) -> bool:
        return all(r.is_zero for r in self.killing)


def metric_from_frame(L, sc: StructureConstants, generators, seed: int = 0) -> InvariantMetric:
    """g^{ik} = sum_d L^i_d L^k_d for an invariant frame e_d = L^a_d xi_a,
    certified against the Killing equations."""
    r = sc.r
    g = [
        [
            ex.simplify(ex.sum_of_products([(L[i][dd], L[k][dd]) for dd in range(r)]))
            for k in range(r)
        ]
        for i in range(r)
    ]
    return _certify_metric(g, sc, generators, "frame-built", seed)


def metric_from_exprs(g, sc: StructureConstants, generators, seed: int = 0) -> InvariantMetric:
    return _certify_metric([list(row) for row in g], sc, generators, "user-supplied", seed)


def _certify_metric(g, sc, generators, provenance, seed) -> InvariantMetric:
    r = sc.r
    chart = generators[0].chart
    box = chart.full_box()
    reports = []
    for j in range(r):
        for i in range(r):
            for k in range(r):
                resid = ex.sum_of_products(
                    generators[j].products(g[i][k])
                    + [(ex.num(sc.c[i][j][l]), g[l][k]) for l in range(r)]
                    + [(ex.num(sc.c[k][j][l]), g[i][l]) for l in range(r)]
                )
                reports.append(nc.is_zero(resid, box, seed))
    env = nc.sample_box(box, 1, seed)[0] if box else {}
    rank = _numeric_rank(_matrices(g, [env])[0])
    return InvariantMetric(
        tuple(tuple(row) for row in g), rank, tuple(reports), provenance
    )


def _matrices(rows, envs: list) -> list:
    """The numeric matrix of the expression rows at each point, all points
    and entries by one compiled program."""
    names, width = tuple(envs[0]), len(rows[0])
    try:
        prog = evalcore.compile_expr(tuple(e for row in rows for e in row), names)
        table = prog.run([tuple(env[n] for n in names) for env in envs])
    except (ZeroDivisionError, OverflowError):
        raise nc.UndefinedPointError("a matrix entry has no finite value at the sample points", {}) from None
    return [[vals[i:i + width] for i in range(0, len(vals), width)] for vals in table]


def _numeric_rank(m) -> int:
    n = len(m)
    a = [row[:] for row in m]
    rank = 0
    row = 0
    for col in range(n):
        piv = max(range(row, n), key=lambda rr: abs(a[rr][col]), default=None)
        if piv is None or abs(a[piv][col]) < 1e-10:
            continue
        a[row], a[piv] = a[piv], a[row]
        for rr in range(n):
            if rr != row:
                f = a[rr][col] / a[row][col]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[row])]
        row += 1
        rank += 1
        if row == n:
            break
    return rank

