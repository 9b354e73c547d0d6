"""Built-in model for the three-parameter solvable group with one bracket
(Bianchi type III).

Generators on the (v, y, z) chart (after straightening the first generator
with v = x e^{-y}): xi_1 = e^{-y} d/dv, xi_2 = d/dy, xi_3 = d/dz, with
[xi_1, xi_2] = xi_1.  The Cartan tensor is degenerate, so the invariant
metric comes from the solved invariant frame; that frame is itself
invariant (all scale factors vanish), so the reduced operator on any
monomial is the plain scalar Casimir operator.

Two harmonic constructions ship built in:

* point series at sigma = n^2: closed-form profiles
  d^{n-m-1}/dv^{n-m-1} (1+v^2)^(n-1/2), certified symbolically;
* the continuous-spectrum hypergeometric branch, certified numerically
  on |v| <= 0.9 (series domain).

The generators, structure constants and domain are those of the built-in
model file `modelio.BUILTIN_MODELS["bianchi2"]`; the chart adds the
amplitude parameters.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .. import expr as ex
from .. import numcheck as nc
from ..modelio import POINT_SERIES_MAX, SchemaError, load_model, parse_label, parse_rational
from ..operator import (
    CasimirOperator,
    ScalarOperator,
    TensorMonomial,
    assemble,
    assemble_from_json,
    assembly_to_json,
    reduce_to_scalar,
)
from ..parser import parse
from ..split_structure import metric_from_frame, solve_invariant_frame
from ..tensor_fields import VectorField, lie_derivative
from .family import Certificate, HarmonicFamily, assembly_claim, claim
from .hypergeom import RadialProfile

AMPLITUDE_NAMES = ("a_1", "a_2", "a_3")
HYPER_POINTS = 16  # sample points of the radial-equation residual
HYPER_TOL = 1e-8  # bound on max |residual| relative to max(1, max |f|)
ZERO_AMPLITUDES = "hypergeometric amplitudes A = B = 0 give the zero function, not an eigenfunction"


class Bianchi2Model:
    def __init__(self):
        self.name = "bianchi2"
        spec = load_model("bianchi2")
        amp_box = {a: (0.3, 1.6) for a in AMPLITUDE_NAMES}
        self.chart = spec.chart.replace(params=amp_box)
        self.constants = spec.constants
        self.generators = tuple(VectorField(self.chart, x.comps) for x in spec.generators)
        self.frame_solution = solve_invariant_frame(self.constants, self.generators)
        self.mu = self.frame_solution.mu
        self.frame = self.mu.frame
        self.metric = metric_from_frame(self.frame_solution.L, self.constants, self.generators)
        self.op = CasimirOperator("bianchi2", self.chart, self.generators, self.metric.g, self.mu)

    def scalar_operator(self) -> ScalarOperator:
        return reduce_to_scalar(self.op)

    # -- point series ---------------------------------------------------------

    def point_series_profile(self, n: int, m: int) -> ex.Expr:
        """d^(n-m-1)/dv^(n-m-1) (1+v^2)^(n-1/2), exact."""
        _check_series(n, m)
        out = ex.power(ex.add(ex.ONE, ex.power(ex.sym("v"), 2)), Fraction(2 * n - 1, 2))
        for _ in range(n - m - 1):
            out = ex.diff(out, "v")
        return out

    def point_series(self, n: int, m: int, nu, seed: int = 0) -> HarmonicFamily:
        """Discrete family t = e^(m y + nu z) * profile(v); all certificates symbolic."""
        nu = Fraction(nu)
        t = self._series_member(n, m, nu)
        lam = ex.num(nu * nu + n * n)
        return HarmonicFamily(
            model=self.name,
            kind="point-series",
            labels={"n": n, "m": m, "nu": str(nu)},
            eigenvalues={"G": lam, "y-translation": ex.num(m), "z-translation": ex.num(nu)},
            components={f"n={n},m={m},nu={nu}": t},
            certificates=self.point_series_certificates(t, lam, n, m, nu, seed),
        )

    def _series_member(self, n: int, m: int, nu: Fraction) -> ex.Expr:
        """The point-series scalar e^(m y + nu z) * profile(v)."""
        return ex.mul(
            ex.exp(ex.add(ex.mul(ex.num(m), ex.sym("y")), ex.mul(ex.num(nu), ex.sym("z")))),
            self.point_series_profile(n, m),
        )

    def point_series_certificates(self, t: ex.Expr, lam: ex.Expr, n: int, m: int, nu: Fraction,
                                  seed: int = 0) -> list:
        """The four certificates of a point-series scalar t with labels n, m,
        nu: K t = lam t, xi_2 t = m t, xi_3 t = nu t, and the lowering relation
        xi_1 t = t_(m-1), the member one weight down."""
        box = self.chart.full_box()
        return [
            claim("casimir-eigenvalue", self.scalar_operator().apply(t), ex.mul(lam, t), box, seed),
            claim("y-translation-eigenvalue", self.generators[1].apply(t), ex.mul(ex.num(m), t), box, seed),
            claim("z-translation-eigenvalue", self.generators[2].apply(t), ex.mul(ex.num(nu), t), box, seed),
            claim("lowering-relation", self.generators[0].apply(t), ex.simplify(self._series_member(n, m - 1, nu)),
                  box, seed),
        ]

    # -- covector harmonics -----------------------------------------------------

    def covector_harmonic(self, n: int, m: int, nu, seed: int = 0) -> HarmonicFamily:
        """One-form harmonic on the invariant coframe with point-series scalar."""
        scalar_fam = self.point_series(n, m, nu, seed=seed)
        t = next(iter(scalar_fam.components.values()))
        lam = scalar_fam.eigenvalues["G"]
        monos = [
            TensorMonomial((), (leg,), ex.mul(ex.sym(a), t)) for leg, a in enumerate(AMPLITUDE_NAMES)
        ]
        tens = assemble(self.frame, monos, 0, 1)
        certs = self.covector_certificates(tens, lam, m, seed) + scalar_fam.certificates
        return HarmonicFamily(
            model=self.name,
            kind="covector",
            labels={"n": n, "m": m, "nu": str(Fraction(nu))},
            eigenvalues=dict(scalar_fam.eigenvalues),
            components=dict(scalar_fam.components),
            amplitudes=tuple(AMPLITUDE_NAMES),
            assemblies={"covector": assembly_to_json(self.frame, monos)},
            certificates=certs,
            notes=("coframe legs: e^1 = dv + v dy, e^2 = dy, e^3 = dz",),
        )

    def covector_certificates(self, tens, lam: ex.Expr, m: int, seed: int = 0) -> list:
        """The certificates of an assembled covector: G T = lam T, and
        L_(xi_2) T = m T on every component."""
        casimir, box = assembly_claim(self.op, tens, lam, seed), self.chart.full_box()
        ly = lie_derivative(self.generators[1], tens)
        reports = [nc.is_zero(ex.sub(a, ex.mul(ex.num(m), b)), box, seed) for a, b in zip(ly.comps, tens.comps)]
        translation = {"ok": all(r.is_zero for r in reports), "components": [r.to_json() for r in reports]}
        return [casimir, Certificate("y-translation-eigenvalue", translation)]

    # -- hypergeometric branch ---------------------------------------------------

    def hypergeometric_harmonic(self, mu, nu, lam, amp_even=1.0, amp_odd=0.0,
                                seed: int = 0) -> HarmonicFamily:
        """Continuous-spectrum family; numeric residual certificate on the
        series domain (restricted to v > 0 when the odd branch is present).
        Amplitudes A = B = 0 raise ValueError: the profile is then 0, and an
        eigenfunction is nonzero."""
        if not (amp_even or amp_odd):
            raise ValueError(ZERO_AMPLITUDES)
        prof = RadialProfile(mu, nu, lam, amp_even, amp_odd)
        lo, hi = self.chart.box["v"]
        if amp_odd:
            lo = 0.05
        vs = [lo + (hi - lo) * row[0] for row in nc.halton_points(1, HYPER_POINTS, seed)]
        resid, fvals = prof.residuals(vs)
        scale = max(1.0, max(abs(f) for f in fvals))
        worst = max(abs(r) for r in resid)
        ok = worst < HYPER_TOL * scale
        notes = ["series evaluation valid on |v| < 1; no analytic continuation"]
        if amp_odd:
            notes.append("odd branch certified on v > 0 (|v| prefactor)")
        payload = {
            "ok": ok,
            "verdict": "numerically-zero" if ok else "nonzero",
            "max_abs": worst,
            "scale": scale,
            "points": len(vs),
            "tolerance": HYPER_TOL,
        }
        return HarmonicFamily(
            model=self.name,
            kind="hypergeometric",
            labels={
                "mu": float(mu),
                "nu": float(nu),
                "lambda": float(lam),
                "sigma": float(lam) - float(nu) ** 2,
                "A": complex(amp_even).real,
                "B": complex(amp_odd).real,
            },
            eigenvalues={"G": ex.num(Fraction(str(float(lam))))},
            components={},
            certificates=[Certificate("radial-equation-residual", payload)],
            notes=tuple(notes),
        )

    # -- re-certification ----------------------------------------------------------

    def recertifier(self, doc: dict):
        """seed -> the certificates of a family document this model wrote,
        recomputed by the builders' code from its components, assemblies and
        labels, in a document's order: those of its covector assembly, then
        those of its point-series scalar; or a hypergeometric family's radial
        residual.  Every field is read (and may raise) before this returns."""
        kind, lab = doc["kind"], doc["labels"]
        lam = parse(doc["eigenvalues"]["G"], [], [])
        if kind == "hypergeometric":
            keys = (("mu", None), ("nu", None), ("lambda", None), ("A", 1), ("B", 0))
            hyper = [parse_label(lab.get(k, default), f"label {k!r}") for k, default in keys]
            if doc["components"] or doc.get("assemblies"):
                raise SchemaError("a hypergeometric family has no components or assemblies")
            if not (hyper[3] or hyper[4]):  # a stored zero function fails its recomputed residual
                failed = Certificate("radial-equation-residual", {"ok": False, "error": ZERO_AMPLITUDES})
                return lambda seed: [failed]
            return lambda seed: self.hypergeometric_harmonic(*hyper, seed=seed).certificates
        if kind not in ("point-series", "covector"):
            raise SchemaError(f"unknown bianchi2 family kind {kind!r}")
        n, m, nu = lab["n"], lab["m"], parse_rational(lab["nu"], "label 'nu'")
        _check_series(n, m)
        if max(n, n - m) > POINT_SERIES_MAX:
            raise SchemaError(f"point series labels n and n - m above {POINT_SERIES_MAX} are refused, "
                              f"got n={n}, m={m}")
        comps = [parse(comp, self.chart.coords, []) for comp in doc["components"].values()]
        tensors = [assemble_from_json(self.frame, monos) for monos in doc.get("assemblies", {}).values()]

        def recertify(seed):
            out = [c for tens in tensors for c in self.covector_certificates(tens, lam, m, seed)]
            return out + [c for t in comps for c in self.point_series_certificates(t, lam, n, m, nu, seed)]

        return recertify


def _check_series(n, m) -> None:
    """Refuse labels that name no point series: integers m < n with n >= 1."""
    if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m < n):
        raise ValueError(f"point series needs integers m < n with n >= 1, got n={n}, m={m}")


@functools.lru_cache(maxsize=1)
def bianchi2_model() -> Bianchi2Model:
    return Bianchi2Model()
