"""Built-in rotation model: tensor spherical harmonics on r = const spheres.

The three rotation generators act on the (r, theta, phi) chart with
two-dimensional orbits; the invariant metric on orbits is the identity in
the generator basis (Cartan inverse).  The eigenframe is {dr, e^s} with
e^s = d theta + i s sin(theta) d phi, on which the raising/lowering
combinations of the generators act by scale factors, so type-(0,2)
harmonics split into scalar families t^l_{n,m} generated by normalized
ladder moves from a top-weight seed.  Each (l, n) family is cached and
extended on demand: a request for weight m lowers from the family's lowest
built member down to m and no further, so the members below the lowest
weight asked for are never built.

The generators, structure constants, domain, singular locus and metric are
those of the built-in model file `modelio.BUILTIN_MODELS["so3"]`, so
`verify --model so3` certifies the chart the families sample.

Weight families carry the eigenvalue -l(l+1) of G itself (see operator
module sign note).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .. import expr as ex
from .. import numcheck as nc
from ..lie_algebra import StructureConstants
from ..modelio import load_model
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
        spec = load_model("so3")
        self.sphere = sphere = spec.chart
        amp_box = {a: (0.3, 1.6) for a in AMPLITUDE_NAMES}
        self.space = Chart(
            "so3-space", ("r",) + sphere.coords, {"r": (1.0, 2.0), **sphere.box},
            sphere.singular_loci, params=amp_box,
        )
        self.constants = spec.constants
        self.ladder_constants = StructureConstants.from_sparse(
            3,
            [
                {"k": 3, "i": 1, "j": 2, "value": "2"},
                {"k": 1, "i": 1, "j": 3, "value": "-1"},
                {"k": 2, "i": 2, "j": 3, "value": "1"},
            ],
        )
        self.generators = spec.generators
        self.ladder = tuple(self._sphere_field(c) for c in LADDER_COMPONENTS)
        self.space_generators = tuple(self._lift(x) for x in self.generators)
        self.space_ladder = tuple(self._lift(x) for x in self.ladder)

        e_r = VectorField(self.space, (ex.ONE, ex.ZERO, ex.ZERO))
        e_p = self._lift(self._sphere_field(("1/2", "-i/2*sin(theta)^(-1)")))
        e_m = self._lift(self._sphere_field(("1/2", "i/2*sin(theta)^(-1)")))
        self.frame = frame_from_vectors(self.space, (e_r, e_p, e_m), FRAME_NAMES)
        self.mu = compute_mu(self.frame, self.space_ladder, self.ladder_constants)

        half = Fraction(1, 2)
        gl = (
            (ex.ZERO, ex.num(-half), ex.ZERO),
            (ex.num(-half), ex.ZERO, ex.ZERO),
            (ex.ZERO, ex.ZERO, ex.num(-1)),
        )
        self.metric = spec.metric
        self.op_generators = CasimirOperator(
            "so3", self.sphere, self.generators, self.metric
        )
        self.op_space = CasimirOperator(
            "so3-space", self.space, self.space_generators, self.metric, self.frame, self.mu
        )
        self.op_ladder = CasimirOperator(
            "so3-ladder", self.space, self.space_ladder, gl, self.frame, self.mu
        )
        self._families: dict = {}
        self._operators: dict = {}

    def _sphere_field(self, comps) -> VectorField:
        return VectorField(self.sphere, tuple(parse(s, self.sphere.coords) for s in comps))

    def _lift(self, x: VectorField) -> VectorField:
        """A sphere field on the space chart, with a zero r component."""
        return VectorField(self.space, (ex.ZERO,) + x.comps)

    # -- scalar operators ----------------------------------------------------

    def scalar_operator(self) -> ScalarOperator:
        """K = sum_i xi_i xi_i, the orbit Laplacian."""
        if "K" not in self._operators:
            self._operators["K"] = reduce_to_scalar(self.op_generators)
        return self._operators["K"]

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
        exactly the sqrt(l(l+1) - m(m+s)) coefficients.

        Builds whatever part of the cached family is still missing; callers
        that need only weights m >= m0 extend it only down to m0."""
        _check_labels(l, n)
        return self._family_down_to(l, n, -l)

    def _family_down_to(self, l: int, n: int, low: int) -> dict:
        """The cached (l, n) family with every member from m = l down to
        max(low, -l) built.

        A family grows by lowering from its lowest member only as far as a
        caller asks.  A published family dict is never changed: a longer one
        is built on a copy and replaces it, so a dict handed to one thread
        stays whole for its range while another thread extends the family."""
        low = max(low, -l)
        key = (l, n)
        fam = self._families.get(key)
        if fam is None:
            seed_p = solve_generalized_legendre(l, n, l, box=self.sphere.box)
            if not seed_p.ok:
                raise RuntimeError(f"seed solution failed its residual check for (l={l}, n={n})")
            phi = ex.sym("phi")
            fam = {l: ex.simplify(ex.mul(ex.exp(ex.mul(ex.num(0, l), phi)), seed_p.expr))}
        elif low in fam:
            return fam
        else:
            fam = dict(fam)
        lower = self.shifted_ladder(1, n)
        for m in range(min(fam), low, -1):
            c2 = l * (l + 1) - m * (m - 1)
            nxt = lower.apply(fam[m])
            fam[m - 1] = ex.simplify(ex.mul(nxt, ex.power(ex.num(c2), Fraction(-1, 2))))
        self._families[key] = fam
        return fam

    def ladder_coefficient(self, l: int, m: int, s: int) -> ex.Expr:
        return ex.power(ex.num(l * (l + 1) - m * (m + s)), Fraction(1, 2))

    def scalar_harmonic(self, l: int, m: int, seed: int = 0) -> HarmonicFamily:
        """Scalar weight-(l, m) harmonic with axis and Casimir certificates."""
        _check_labels(l, 0, m)
        t = self._family_down_to(l, 0, m)[m]
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
        m_values = _weights(l, m_values)
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

    def tensor20_harmonic(self, l: int, m_values=None, seed: int = 0) -> HarmonicFamily:
        """Symmetric two-covector-slot harmonic family of weight l.

        The family content is every scalar t^l_{n,m}; per weight m the slots
        assemble into a tensor certified against G, both through the reduced
        scalar operators and through G's full Lie-derivative action."""
        m_values = _weights(l, m_values)
        lam = ex.num(-l * (l + 1))
        amps = {a: ex.sym(a) for a in AMPLITUDE_NAMES}
        components = {}
        n_values = sorted({n for _u, _lo, n, _a in self.tensor_slots(l)})
        low = min(m_values, default=l)
        fams = {n: self._family_down_to(l, n, low) for n in n_values}
        for n in n_values:
            for m in m_values:
                components[f"n={n},m={m}"] = fams[n][m]
        certs = []
        assemblies = {}
        box = self.space.full_box()
        reduced = {n: self.reduced_operator(n) for n in n_values}
        for m in m_values:
            monos = []
            for upper, lower, n, amp in self.tensor_slots(l):
                scalar = ex.mul(amps[amp], fams[n][m])
                monos.append(TensorMonomial(upper, lower, scalar))
            assemblies[f"m={m}"] = assembly_to_json(self.frame, monos)
            for n in n_values:
                t = fams[n][m]
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
        _check_labels(l, n, m)
        if not _is_int(s) or s not in (1, -1):
            raise ValueError(f"a ladder step is +1 or -1, got s={s!r}")
        fam = self._family_down_to(l, n, min(m, m + s))
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_labels(l, n, *ms) -> None:
    """Refuse labels that name no member of the weight-l family on legs
    summing to n: labels that are not plain ints, or out of range."""
    for x in (l, n, *ms):
        if not _is_int(x):
            raise ValueError(f"so3 labels must be integers, got {x!r}")
    if l < 0 or abs(n) > l or any(abs(m) > l for m in ms):
        raise ValueError(f"labels out of range: l={l}, n={n}" + "".join(f", m={m}" for m in ms))


def _weights(l, m_values) -> list:
    """The weights m a weight-l family asks for (all of -l..l by default),
    refused by `_check_labels` unless each names a member."""
    _check_labels(l, 0)
    m_values = list(range(-l, l + 1) if m_values is None else m_values)
    _check_labels(l, 0, *m_values)
    return m_values


def _leg_weight(leg: int) -> int:
    return {0: 0, 1: 1, 2: -1}[leg]


@functools.lru_cache(maxsize=1)
def so3_model() -> So3Model:
    return So3Model()
