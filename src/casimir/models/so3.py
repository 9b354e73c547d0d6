"""Built-in rotation model: tensor spherical harmonics on r = const spheres.

The three rotation generators act on the (r, theta, phi) chart with
two-dimensional orbits; the invariant metric on orbits is the identity in
the generator basis (Cartan inverse).  The eigenframe is {dr, e^s} with
e^s = d theta + i s sin(theta) d phi, on which the raising/lowering
combinations of the generators act by scale factors, so type-(0,2)
harmonics split into scalar families t^l_{n,m} generated by normalized
ladder moves from a top-weight seed.

Weight families carry the eigenvalue -l(l+1) of G itself (see operator
module sign note).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .. import expr as ex
from .. import numcheck as nc
from ..lie_algebra import StructureConstants, so3 as so3_constants
from ..operator import (
    CasimirOperator,
    ScalarOperator,
    TensorMonomial,
    assemble,
    assembly_to_json,
    certify_eigen,
    reduce_to_scalar,
    shifted_generator,
)
from ..parser import parse
from ..split_structure import compute_mu, frame_from_vectors
from ..tensor_fields import Chart, VectorField
from .family import Certificate, HarmonicFamily
from .legendre import solve_generalized_legendre

EPS_GUARD = 0.01  # chart guard away from the sin(theta) = 0 loci

GENERATOR_COMPONENTS = (
    ("sin(phi)", "cot(theta)*cos(phi)"),
    ("-cos(phi)", "cot(theta)*sin(phi)"),
    ("0", "-1"),
)
LADDER_COMPONENTS = (
    ("exp(i*phi)", "i*cot(theta)*exp(i*phi)"),  # raising
    ("-exp(-i*phi)", "i*cot(theta)*exp(-i*phi)"),  # lowering
    ("0", "-i"),
)
FRAME_NAMES = ("r", "+1", "-1")
AMPLITUDE_NAMES = ("h_rr", "h_r", "h")

# frame leg indices: 0 = r, 1 = +1, 2 = -1
_LEGS_FOR_N = {0: (), 1: (1,), -1: (2,), 2: (1, 1), -2: (2, 2)}


class So3Model:
    """Charts, generators, eigenframe, scale factors, and both operators."""

    def __init__(self):
        self.name = "so3"
        box2 = {"theta": (EPS_GUARD, math.pi - EPS_GUARD), "phi": (0.05, 6.2)}
        loci = (ex.sin(ex.sym("theta")),)
        amp_box = {a: (0.3, 1.6) for a in AMPLITUDE_NAMES}
        self.sphere = Chart("sphere", ("theta", "phi"), box2, loci)
        self.space = Chart(
            "so3-space", ("r", "theta", "phi"), {"r": (1.0, 2.0), **box2}, loci, params=amp_box
        )
        self.constants = so3_constants()
        self.ladder_constants = StructureConstants.from_sparse(
            3,
            [
                {"k": 3, "i": 1, "j": 2, "value": "2"},
                {"k": 1, "i": 1, "j": 3, "value": "-1"},
                {"k": 2, "i": 2, "j": 3, "value": "1"},
            ],
        )
        self.generators = tuple(self._vf(self.sphere, c) for c in GENERATOR_COMPONENTS)
        self.ladder = tuple(self._vf(self.sphere, c) for c in LADDER_COMPONENTS)
        self.space_generators = tuple(self._vf3(c) for c in GENERATOR_COMPONENTS)
        self.space_ladder = tuple(self._vf3(c) for c in LADDER_COMPONENTS)

        e_r = self._vf3(("1", "0", "0"), with_r=True)
        e_p = self._vf3(("1/2", "-i/2*sin(theta)^(-1)"))
        e_m = self._vf3(("1/2", "i/2*sin(theta)^(-1)"))
        self.frame = frame_from_vectors(self.space, (e_r, e_p, e_m), FRAME_NAMES)
        self.mu = compute_mu(self.frame, self.space_ladder, self.ladder_constants)

        delta = tuple(
            tuple(ex.ONE if i == k else ex.ZERO for k in range(3)) for i in range(3)
        )
        half = Fraction(1, 2)
        gl = (
            (ex.ZERO, ex.num(-half), ex.ZERO),
            (ex.num(-half), ex.ZERO, ex.ZERO),
            (ex.ZERO, ex.ZERO, ex.num(-1)),
        )
        self.op_generators = CasimirOperator(
            "so3", self.sphere, self.generators, delta
        )
        self.op_space = CasimirOperator(
            "so3-space", self.space, self.space_generators, delta, self.frame, self.mu
        )
        self.op_ladder = CasimirOperator(
            "so3-ladder", self.space, self.space_ladder, gl, self.frame, self.mu
        )
        self.metric = delta
        self._families: dict = {}
        self._operators: dict = {}

    def _vf(self, chart, comps):
        return VectorField(chart, tuple(parse(s, chart.coords) for s in comps))

    def _vf3(self, comps, with_r: bool = False):
        if with_r:
            parsed = tuple(parse(s, self.space.coords) for s in comps)
        else:
            parsed = (ex.ZERO,) + tuple(parse(s, self.space.coords) for s in comps)
        return VectorField(self.space, parsed)

    # -- scalar operators ----------------------------------------------------

    def scalar_operator(self) -> ScalarOperator:
        """K = sum_i xi_i xi_i, the orbit Laplacian."""
        if "K" not in self._operators:
            self._operators["K"] = reduce_to_scalar(self.op_generators)
        return self._operators["K"]

    def ladder_scalar_operator(self) -> ScalarOperator:
        """-(L_+ L_- + L_3^2 - L_3) built from the ladder fields."""
        hp, hm, h3 = (ScalarOperator.from_vector_field(g) for g in self.ladder)
        out = hm.compose_vf_left(self.ladder[0])
        out = out.plus(h3.compose_vf_left(self.ladder[2]))
        out = out.plus(h3.scaled(ex.num(-1)))
        return out.scaled(ex.num(-1))

    def reduced_operator(self, n: int) -> ScalarOperator:
        """Scalar operator on a monomial component with covector weight n."""
        key = ("reduced", n)
        if key not in self._operators:
            self._operators[key] = reduce_to_scalar(self.op_ladder, (), _LEGS_FOR_N[n])
        return self._operators[key]

    def shifted_ladder(self, which: int, n: int) -> ScalarOperator:
        """L_{H_s} - phi on weight-n components; which = 0 raise, 1 lower, 2 axis."""
        key = ("shift", which, n)
        if key not in self._operators:
            self._operators[key] = shifted_generator(self.op_ladder, which, (), _LEGS_FOR_N[n])
        return self._operators[key]

    # -- families --------------------------------------------------------------

    def ladder_family(self, l: int, n: int) -> dict:
        """t^l_{n,m} for m = -l..l, normalized so ladder moves carry
        exactly the sqrt(l(l+1) - m(m+s)) coefficients."""
        if abs(n) > l:
            raise ValueError(f"no weight-{l} family on legs summing to {n}")
        key = (l, n)
        if key in self._families:
            return self._families[key]
        seed_p = solve_generalized_legendre(l, n, l, box=self.sphere.box)
        if not seed_p.ok:
            raise RuntimeError(f"seed solution failed its residual check for (l={l}, n={n})")
        phi = ex.sym("phi")
        top = ex.simplify(ex.mul(ex.exp(ex.mul(ex.num(0, l), phi)), seed_p.expr))
        fam = {l: top}
        lower = self.shifted_ladder(1, n)
        for m in range(l, -l, -1):
            c2 = l * (l + 1) - m * (m - 1)
            nxt = lower.apply(fam[m])
            fam[m - 1] = ex.simplify(ex.mul(nxt, ex.power(ex.num(c2), Fraction(-1, 2))))
        self._families[key] = fam
        return fam

    def ladder_coefficient(self, l: int, m: int, s: int) -> ex.Expr:
        return ex.power(ex.num(l * (l + 1) - m * (m + s)), Fraction(1, 2))

    def scalar_harmonic(self, l: int, m: int, seed: int = 0) -> HarmonicFamily:
        """Scalar weight-(l, m) harmonic with axis and Casimir certificates."""
        if not (isinstance(l, int) and l >= 0 and abs(m) <= l):
            raise ValueError(f"labels out of range: l={l}, m={m}")
        t = self.ladder_family(l, 0)[m]
        lam = ex.num(-l * (l + 1))
        return HarmonicFamily(
            model=self.name,
            kind="scalar",
            labels={"l": l, "m": m},
            eigenvalues={"G": lam, "axis": ex.num(m)},
            components={f"n=0,m={m}": t},
            certificates=self.scalar_certificates(t, lam, m, seed),
            notes=(
                "weight family generated by normalized ladder moves from the top seed",
            ),
        )

    def scalar_certificates(self, t: ex.Expr, lam: ex.Expr, m: int, seed: int = 0) -> list:
        """Residual certificates of a scalar on the sphere: K t = lam t and L_3 t = m t."""
        box = self.sphere.full_box()
        return [
            Certificate(
                "casimir-eigenvalue",
                nc.is_zero(ex.sub(self.scalar_operator().apply(t), ex.mul(lam, t)), box, seed),
            ),
            Certificate(
                "axis-eigenvalue",
                nc.is_zero(ex.sub(self.ladder[2].apply(t), ex.mul(ex.num(m), t)), box, seed),
            ),
        ]

    def scalar_family(self, l: int, m_values=None, seed: int = 0) -> HarmonicFamily:
        """All scalar weight-l members in one family document."""
        if m_values is None:
            m_values = range(-l, l + 1)
        components = {}
        certs = []
        for m in m_values:
            one = self.scalar_harmonic(l, m, seed=seed)
            components.update(one.components)
            for c in one.certificates:
                certs.append(Certificate(f"{c.name} m={m}", c.payload))
        return HarmonicFamily(
            model=self.name,
            kind="scalar",
            labels={"l": l},
            eigenvalues={"G": ex.num(-l * (l + 1))},
            components=components,
            certificates=certs,
        )

    def tensor_slots(self, l: int):
        """(upper, lower, n, amplitude) per frame slot of the symmetric type-(0,2) field."""
        slots = []
        for b1 in range(3):
            for b2 in range(3):
                n = (_leg_weight(b1)) + (_leg_weight(b2))
                if abs(n) > l:
                    continue
                if b1 == 0 and b2 == 0:
                    amp = "h_rr"
                elif 0 in (b1, b2):
                    amp = "h_r"
                else:
                    amp = "h"
                slots.append(((), (b1, b2), n, amp))
        return slots

    def tensor20_harmonic(self, l: int, m_values=None, seed: int = 0,
                          full_tensor_m=None) -> HarmonicFamily:
        """Symmetric two-covector-slot harmonic family of weight l.

        The family content is every scalar t^l_{n,m}; per weight m the slots
        assemble into a tensor certified against G (full Lie-derivative path
        for the weights in full_tensor_m, reduced scalar path for all)."""
        if m_values is None:
            m_values = range(-l, l + 1)
        m_values = list(m_values)
        if full_tensor_m is None:
            full_tensor_m = m_values
        full_tensor_m = set(full_tensor_m)
        lam = ex.num(-l * (l + 1))
        amps = {a: ex.sym(a) for a in AMPLITUDE_NAMES}
        components = {}
        n_values = sorted({n for _u, _lo, n, _a in self.tensor_slots(l)})
        for n in n_values:
            fam = self.ladder_family(l, n)
            for m in m_values:
                components[f"n={n},m={m}"] = fam[m]
        certs = []
        assemblies = {}
        box = self.space.full_box()
        reduced = {n: self.reduced_operator(n) for n in n_values}
        for m in m_values:
            monos = []
            for upper, lower, n, amp in self.tensor_slots(l):
                scalar = ex.mul(amps[amp], self.ladder_family(l, n)[m])
                monos.append(TensorMonomial(upper, lower, scalar))
            assemblies[f"m={m}"] = assembly_to_json(self.frame, monos)
            for n in n_values:
                t = self.ladder_family(l, n)[m]
                resid = ex.sub(reduced[n].apply(t), ex.mul(lam, t))
                certs.append(
                    Certificate(f"reduced-eigenvalue n={n} m={m}", nc.is_zero(resid, box, seed))
                )
                certs.append(
                    Certificate(
                        f"axis-eigenvalue n={n} m={m}",
                        nc.is_zero(ex.sub(self.ladder[2].apply(t), ex.mul(ex.num(m), t)), box, seed),
                    )
                )
            if m in full_tensor_m:
                tens = assemble(self.frame, monos, 0, 2)
                certs.append(
                    Certificate(f"casimir-eigenvalue m={m}", certify_eigen(self.op_space, tens, lam, seed))
                )
        return HarmonicFamily(
            model=self.name,
            kind="tensor20",
            labels={"l": l},
            eigenvalues={"G": lam},
            components=components,
            amplitudes=AMPLITUDE_NAMES,
            assemblies=assemblies,
            certificates=certs,
            notes=("slots: rr, r s, s s' on the frame (dr, e^+1, e^-1)",),
        )

    def apply_ladder(self, l: int, n: int, m: int, s: int, seed: int = 0):
        """One ladder move on t^l_{n,m}; returns (coefficient, target m, report).

        At the family edge the move annihilates and the coefficient is 0."""
        fam = self.ladder_family(l, n)
        t = fam[m]
        opn = self.shifted_ladder(0 if s > 0 else 1, n)
        moved = opn.apply(t)
        coef = self.ladder_coefficient(l, m, s)
        box = self.space.full_box()
        if abs(m + s) > l:
            rep = nc.is_zero(moved, box, seed)
            return ex.ZERO, None, rep
        target = fam[m + s]
        rep = nc.is_zero(ex.sub(moved, ex.mul(coef, target)), box, seed)
        return coef, m + s, rep


def _leg_weight(leg: int) -> int:
    return {0: 0, 1: 1, 2: -1}[leg]


@functools.lru_cache(maxsize=1)
def so3_model() -> So3Model:
    return So3Model()
