"""Invariant frames, projectors, frame scale factors, invariant metrics.

This is the machinery that diagonalizes the generalized Casimir operator:
a frame of vectors/covectors in which every generator acts by scaling
(the mu factors), rank-one projectors built from dual pairs, and for simply
transitive actions the invariant frame solved from the linear system
``xi_b L^a_d + C^a_{bq} L^q_d = 0`` by integrating constant-coefficient
flows one coordinate at a time (closed form via exact matrix exponentials
with rational spectra).
"""

from __future__ import annotations

from fractions import Fraction

from . import evalcore
from . import expr as ex
from . import numcheck as nc
from .lie_algebra import StructureConstants, ad_matrix
from .record import FrozenRecord
from .tensor_fields import (
    Chart,
    OffChartError,
    TensorField,
    VectorField,
    lie_derivative,
    one_form,
    vector_as_tensor,
)


class NotSimplyTransitiveError(Exception):
    pass


class NoClosedFormError(Exception):
    """The structured frame ansatz failed; supply the frame explicitly."""


class NotEigenFrameError(Exception):
    """A generator maps some frame covector off its own axis."""


class DualityError(Exception):
    pass


def pairing(omega: TensorField, x: VectorField) -> ex.Expr:
    """Inner product of a one-form with a vector."""
    return ex.sum_of_products(zip(omega.comps, x.comps))


# --- symbolic matrices -----------------------------------------------------


def mat_mul(a, b):
    """Product of nested-list matrices with exact Fraction or Expr entries."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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
    """Adjugate inverse; exact for symbolic entries."""
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
    """vectors: VectorField per leg; covectors: (0,1) TensorField per leg;
    duality: ZeroReport matrix, row = covector, col = vector."""

    _fields = ("chart", "names", "vectors", "covectors", "duality")


def frame_from_vectors(chart: Chart, vectors, names=None, seed: int = 0) -> Frame:
    """Complete a vector frame with its dual covectors (adjugate inverse)."""
    vectors = tuple(vectors)
    n = len(vectors)
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
    dual = []
    for a, w in enumerate(covectors):
        row = []
        for b, v in enumerate(vectors):
            want = ex.ONE if a == b else ex.ZERO
            row.append(nc.is_zero(ex.sub(pairing(w, v), want), box, seed))
        dual.append(tuple(row))
    if not all(r.is_zero for row in dual for r in row):
        raise DualityError(f"frame {names} failed the duality check")
    return Frame(chart, names, vectors, covectors, tuple(dual))


# --- projectors ------------------------------------------------------------


class Projector(FrozenRecord):
    """tensor: of type (1,1)."""

    _fields = ("name", "tensor")


def build_projectors(frame: Frame, generators=None, seed: int = 0):
    """Rank-one projectors e_a (x) e^a; algebra and completeness certified.

    With generators given, also certifies invariance of every projector.
    """
    chart = frame.chart
    d = chart.dim
    box = chart.full_box()
    projs = []
    for a, name in enumerate(frame.names):
        comps = tuple(
            ex.mul(frame.vectors[a].comps[c], frame.covectors[a].comps[e])
            for c in range(d)
            for e in range(d)
        )
        projs.append(Projector(name, TensorField(chart, 1, 1, comps)))

    def entries(t):
        return [[t.comp(i, j) for j in range(d)] for i in range(d)]

    for a, pa in enumerate(projs):
        for b, pb in enumerate(projs):
            prod = mat_mul(entries(pa.tensor), entries(pb.tensor))
            want = entries(pb.tensor) if a == b else [[ex.ZERO] * d for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    rep = nc.is_zero(ex.sub(prod[i][j], want[i][j]), box, seed)
                    if not rep.is_zero:
                        raise DualityError(f"projector algebra failed at H^{pa.name} H^{pb.name}")
    for i in range(d):
        for j in range(d):
            tot = ex.add(*[p.tensor.comp(i, j) for p in projs])
            want = ex.ONE if i == j else ex.ZERO
            if not nc.is_zero(ex.sub(tot, want), box, seed).is_zero:
                raise DualityError("projectors do not sum to the identity")
    if generators is not None:
        for g in generators:
            for p in projs:
                ld = lie_derivative(g, p.tensor)
                for c in ld.comps:
                    if not nc.is_zero(c, box, seed).is_zero:
                        raise NotEigenFrameError(
                            f"projector H^{p.name} is not invariant under a generator"
                        )
    return projs


# --- mu factors ------------------------------------------------------------


class MuFactors(FrozenRecord):
    """mu[a][i]: Expr, covector a, generator i; integrability: ZeroReport
    per (a, i, k); dual_action: ZeroReport per (a, i, component)."""

    _fields = ("frame", "generators", "mu", "integrability", "dual_action")

    def weight(self, upper: tuple, lower: tuple, i: int) -> ex.Expr:
        """Sum of upper-leg factors minus lower-leg factors for generator i."""
        parts = [self.mu[a][i] for a in upper]
        parts += [ex.neg(self.mu[b][i]) for b in lower]
        return ex.add(*parts) if parts else ex.ZERO


def compute_mu(frame: Frame, generators, sc: StructureConstants, seed: int = 0) -> MuFactors:
    """Extract mu^a_i from L_{xi_i} e^a = mu^a_i e^a and certify it.

    The ratio is taken on the first covector component that is not
    identically zero, then verified against every component and against the
    off-axis condition (L_{xi_i} e^a) . e_b = 0 for b != a.
    """
    chart = frame.chart
    d = chart.dim
    box = chart.full_box()
    mu_rows = []
    dual_reports = []
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
            for b in range(d):
                if b != a:
                    rep = nc.is_zero(pairing(lw, frame.vectors[b]), box, seed)
                    if not rep.is_zero:
                        raise NotEigenFrameError(
                            f"off-axis component (L e^{frame.names[a]}) . e_{frame.names[b]} is nonzero"
                        )
            # dual action: L_{xi_i} e_a = -mu^a_i e_a
            lv = lie_derivative(g, vector_as_tensor(frame.vectors[a]))
            for c in range(d):
                dual_reports.append(
                    nc.is_zero(
                        ex.add(lv.comps[c], ex.mul(mu, frame.vectors[a].comps[c])), box, seed
                    )
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
    mf = MuFactors(frame, tuple(generators), tuple(mu_rows), tuple(integ), tuple(dual_reports))
    if not all(rep.is_zero for rep in integ):
        raise NotEigenFrameError("mu factors failed the integrability identity")
    if not all(rep.is_zero for rep in dual_reports):
        raise NotEigenFrameError("mu factors failed the dual action identity")
    return mf


# --- invariant frame for simply transitive actions --------------------------


class FrameSolution(FrozenRecord):
    """L[a][d]: e_d = sum_a L[a][d] xi_a; invariance: ZeroReport per (b, a, d)."""

    _fields = ("L", "frame", "base_point", "invariance")


def _polyexp_integrate(terms: dict, lam: Fraction) -> dict:
    """Solve r' = lam*r + sum_rho e^{rho t} poly(t), r(0) = 0.

    terms maps rho -> ascending poly coefficients; returns same encoding.
    """
    out: dict[Fraction, list] = {}

    def acc(rho, poly):
        cur = out.setdefault(rho, [])
        while len(cur) < len(poly):
            cur.append(Fraction(0))
        for k, c in enumerate(poly):
            cur[k] += c

    for rho, poly in terms.items():
        if rho == lam:
            anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(poly)]
            acc(lam, anti)
        else:
            delta = rho - lam
            # int e^{delta s} poly ds = e^{delta t} Q(t) - Q(0)
            q = [Fraction(0)] * len(poly)
            deriv = list(poly)
            sign = 1
            power_ = 1
            while any(deriv):
                for k, c in enumerate(deriv):
                    q[k] += sign * c / delta**power_
                deriv = [c * (k + 1) for k, c in enumerate(deriv[1:])]
                deriv += [Fraction(0)] * (len(q) - len(deriv))
                sign = -sign
                power_ += 1
            acc(rho, q)
            acc(lam, [-q[0]])
    return {rho: poly for rho, poly in out.items() if any(poly)}


def _char_poly(a) -> list:
    """Characteristic polynomial coefficients (ascending) via Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I, with M_1 = I
        if k > 1:
            m = [
                [am[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(n))
        coeffs[n - k] = -tr / k
    return coeffs


def expm_rational(a, t: ex.Expr):
    """Symbolic exp(A t) for a rational matrix with rational spectrum."""
    n = len(a)
    coeffs = _char_poly(a)
    roots = ex.rational_roots(list(coeffs))
    lams = []
    for r, mult in roots:
        lams.extend([r] * mult)
    if len(lams) != n:
        raise NoClosedFormError("matrix exponential needs a rational spectrum")
    # Putzer recursion
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p_mats = [ident]
    for j in range(1, n):
        shifted = [
            [a[i][k] - (lams[j - 1] if i == k else 0) for k in range(n)] for i in range(n)
        ]
        p_mats.append(mat_mul(p_mats[-1], shifted))
    rs = [{lams[0]: [Fraction(1)]}]
    for j in range(1, n):
        rs.append(_polyexp_integrate(rs[-1], lams[j]))

    # r_j(t) = sum over rho of e^{rho t} poly(t); exp(A t) = sum_j r_j(t) P_j
    r_exprs = [ex.sum_of_products((ex.polynomial(poly, t), ex.exp(ex.mul(ex.num(rho), t)))
                                  for rho, poly in r.items()) for r in rs]
    return [[ex.simplify(ex.sum_of_products((ex.num(p_mats[j][i][k]), r_exprs[j])
                                            for j in range(n) if p_mats[j][i][k] != 0))
             for k in range(n)] for i in range(n)]


def _single_axis(g: VectorField):
    """(axis, factor) when the generator has exactly one nonzero component."""
    hits = [(c, comp) for c, comp in enumerate(g.comps) if ex.simplify(comp) != ex.ZERO]
    if len(hits) != 1:
        return None
    return hits[0]


def _base_point(chart: Chart) -> dict:
    candidates = [dict.fromkeys(chart.coords, Fraction(0))]
    mid = {
        c: Fraction(round(2 * (chart.box[c][0] + chart.box[c][1]) / 2)) / 2 if c in chart.box else Fraction(0)
        for c in chart.coords
    }
    candidates.append(mid)
    for cand in candidates:
        ok = all(
            c not in chart.box or chart.box[c][0] < float(v) < chart.box[c][1]
            for c, v in cand.items()
        )
        if not ok:
            continue
        try:
            chart.check_points(chart.coords, [tuple(float(cand[c]) for c in chart.coords)])
        except OffChartError:
            continue
        return cand
    raise NoClosedFormError("no usable rational base point inside the domain box")


def solve_invariant_frame(sc: StructureConstants, generators, seed: int = 0) -> FrameSolution:
    """Invariant frame e_d = L^a_d xi_a for a simply transitive action.

    Strategy: order the generators so each one moves a single coordinate
    whose flow factor depends only on coordinates moved later, then compose
    exact matrix exponentials of the bracket coefficient matrices along that
    path from a rational base point.  The candidate is certified against the
    defining linear system; any failure raises NoClosedFormError.
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

    ident = [[ex.ONE if i == j else ex.ZERO for j in range(d)] for i in range(d)]
    if all(sc.c[k][i][j] == 0 for k in range(r) for i in range(r) for j in range(r)):
        lmat = ident
        base = dict.fromkeys(chart.coords, Fraction(0))
    else:
        legs = []
        for b, g in enumerate(generators):
            hit = _single_axis(g)
            if hit is None:
                raise NoClosedFormError(
                    f"generator {b + 1} moves several coordinates; the flow ansatz does not apply"
                )
            axis, factor = hit
            deps = ex.free_symbols(factor) & set(chart.coords)
            if chart.coords[axis] in deps:
                raise NoClosedFormError(
                    f"flow factor of generator {b + 1} depends on its own coordinate"
                )
            legs.append({"gen": b, "axis": axis, "factor": factor, "deps": deps})
        if len({leg["axis"] for leg in legs}) != d:
            raise NoClosedFormError("generators do not move distinct coordinates")
        order = _order_legs(legs, chart)
        base = _base_point(chart)
        lmat = ident
        for pos, leg in enumerate(order):
            later = {chart.coords[l2["axis"]]: base[chart.coords[l2["axis"]]] for l2 in order[pos + 1 :]}
            f0 = ex.simplify(ex.subs(leg["factor"], later))
            if type(f0) is not ex.Num or f0.val.is_zero():
                raise NoClosedFormError(
                    f"flow factor of generator {leg['gen'] + 1} is not an exact nonzero constant at the base point"
                )
            cname = chart.coords[leg["axis"]]
            delta = ex.mul(
                ex.sub(ex.sym(cname), ex.num(base[cname])), ex.num(f0.val.inverse())
            )
            cb = ad_matrix(sc, leg["gen"])
            negcb = [[-x for x in row] for row in cb]
            step = expm_rational(negcb, delta)
            lmat = mat_mul(step, lmat)
        lmat = [[ex.simplify(e) for e in row] for row in lmat]

    # certify the defining equations
    invariance = []
    for b in range(r):
        for a in range(r):
            for dd in range(r):
                resid = ex.sum_of_products(
                    generators[b].products(lmat[a][dd])
                    + [(ex.num(sc.c[a][b][q]), lmat[q][dd]) for q in range(r)]
                )
                invariance.append(nc.is_zero(resid, box, seed))
    if not all(rep.is_zero for rep in invariance):
        raise NoClosedFormError("candidate frame failed the invariance equations")

    vectors = tuple(
        VectorField(
            chart,
            tuple(
                ex.simplify(
                    ex.sum_of_products([(lmat[a][dd], generators[a].comps[c]) for a in range(r)])
                )
                for c in range(d)
            ),
        )
        for dd in range(r)
    )
    emat = [list(v.comps) for v in vectors]
    if nc.is_zero(mat_det(emat), box, seed).is_zero:
        raise NoClosedFormError("frame vectors are degenerate on the domain")
    frame = frame_from_vectors(chart, vectors, seed=seed)
    lt = tuple(tuple(lmat[a][dd] for dd in range(r)) for a in range(r))
    base_named = {c: base[c] for c in chart.coords}
    return FrameSolution(lt, frame, base_named, tuple(invariance))


def _order_legs(legs, chart: Chart):
    """Topological order: a leg precedes every leg whose coordinate it reads."""
    remaining = list(legs)
    order = []
    while remaining:
        progressed = False
        for leg in remaining:
            # leg can be placed now iff none of its deps belong to already-moved axes
            moved = {chart.coords[l2["axis"]] for l2 in order}
            if leg["deps"] & moved:
                continue
            order.append(leg)
            remaining.remove(leg)
            progressed = True
            break
        if not progressed:
            raise NoClosedFormError("flow factors have cyclic coordinate dependencies")
    return order


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


def project_vector(proj: Projector, x: VectorField) -> VectorField:
    d = x.chart.dim
    comps = tuple(
        ex.sum_of_products([(proj.tensor.comp(c, e), x.comps[e]) for e in range(d)]) for c in range(d)
    )
    return VectorField(x.chart, comps)
