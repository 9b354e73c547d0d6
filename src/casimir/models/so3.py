"""Built-in rotation model: tensor spherical harmonics on r = const spheres.

The three rotation generators act on the (r, theta, phi) chart with
two-dimensional orbits; the invariant metric on orbits is the identity in
the generator basis (Cartan inverse).  The eigenframe is {dr, e^s} with
e^s = d theta + i s sin(theta) d phi, on which the raising/lowering
combinations of the generators act by scale factors, so type-(0,2)
harmonics split into scalar families t^l_{n,m} generated by normalized
ladder moves from the closed-form top member

    t^l_{n,l} = e^{i l phi} (1 - cos theta)^{(l-n)/2} (1 + cos theta)^{(l+n)/2}.

A component of covector weight n sits on n raising legs e^+1 (or -n
lowering legs e^-1), so every weight |n| <= l has its reduced operator,
shifted ladder and family; each emitted member is certified by its own
residuals (reduced or Casimir, axis, and each ladder move).

A member is N^(-1/2) e^{i m phi} sin^eps(theta) P(cos theta), eps in {0, 1}.
Each (l, n) family is built whole on first use as the integer coefficient
lists of P, lowered exactly from the top member (`So3Model._family`).  A
member becomes an expression, built by the kernel, when a caller first asks
for it; every certificate is computed on that expression.

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
from ..modelio import SchemaError, load_model
from ..operator import (
    CasimirOperator,
    ScalarOperator,
    TensorMonomial,
    assemble,
    assemble_from_json,
    assembly_to_json,
    reduce_to_scalar,
    shifted_generator,
)
from ..parser import parse
from ..split_structure import compute_mu, frame_from_vectors
from ..tensor_fields import Chart, VectorField
from .family import Certificate, HarmonicFamily, assembly_claim, claim

LADDER_COMPONENTS = (
    ("exp(i*phi)", "i*cot(theta)*exp(i*phi)"),  # raising
    ("-exp(-i*phi)", "i*cot(theta)*exp(-i*phi)"),  # lowering
    ("0", "-i"),
)
FRAME_NAMES = ("r", "+1", "-1")
THETA, PHI = ex.sym("theta"), ex.sym("phi")
AMPLITUDE_NAMES = ("h_rr", "h_r", "h")


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
            "so3-space", self.space, self.space_generators, self.metric, self.frame
        )
        self.op_ladder = CasimirOperator(
            "so3-ladder", self.space, self.space_ladder, gl, self.frame, self.mu
        )
        self._families: dict = {}
        self._members: dict = {}

    def _sphere_field(self, comps) -> VectorField:
        return VectorField(self.sphere, tuple(parse(s, self.sphere.coords) for s in comps))

    def _lift(self, x: VectorField) -> VectorField:
        """A sphere field on the space chart, with a zero r component."""
        return VectorField(self.space, (ex.ZERO,) + x.comps)

    # -- scalar operators ----------------------------------------------------

    def scalar_operator(self) -> ScalarOperator:
        """K = sum_i xi_i xi_i, the orbit Laplacian."""
        return reduce_to_scalar(self.op_generators)

    def reduced_operator(self, n: int) -> ScalarOperator:
        """Scalar operator on a monomial component with covector weight n."""
        return reduce_to_scalar(self.op_ladder, (), _legs(n))

    def shifted_ladder(self, which: int, n: int) -> ScalarOperator:
        """L_{H_s} - phi on weight-n components; which = 0 raise, 1 lower, 2 axis."""
        return shifted_generator(self.op_ladder, which, (), _legs(n))

    # -- families --------------------------------------------------------------

    def ladder_family(self, l: int, n: int) -> dict:
        """t^l_{n,m} for m = -l..l, normalized so ladder moves carry
        exactly the sqrt(l(l+1) - m(m+s)) coefficients."""
        _check_labels(l, n)
        return {m: self._member(l, n, m) for m in self._family(l, n)}

    def _family(self, l: int, n: int) -> dict:
        """The (l, n) family, built whole on first use, as {m: (P, eps, N)}:
        the member is N^(-1/2) e^{i m phi} sin^eps(theta) P(cos theta), P
        ascending ints (the last may be 0).  With x = cos theta, the top
        member has eps = (l - n) mod 2 and P = (1 - x)^((l-n)//2)
        (1 + x)^((l+n)//2); each lower one comes from `_lower`."""
        fam = self._families.get((l, n))
        if fam is None:
            a, eps = divmod(l - n, 2)
            p = ex.poly_mul(ex.poly_pow([1, -1], a), ex.poly_pow([1, 1], (l + n) // 2))
            fam = {l: (p, eps, 1)}
            for m in range(l, -l, -1):
                fam[m - 1] = _lower(l, n, m, *fam[m])
            self._families[(l, n)] = fam
        return fam

    def _member(self, l: int, n: int, m: int) -> ex.Expr:
        """t^l_{n,m} as an expression, built by the kernel on first request."""
        key = (l, n, m)
        t = self._members.get(key)
        if t is None:
            p, eps, norm = self._family(l, n)[m]
            t = self._members[key] = ex.simplify(ex.mul(
                ex.power(ex.num(norm), Fraction(-1, 2)), ex.exp(ex.mul(ex.num(0, m), PHI)),
                ex.power(ex.sin(THETA), eps), ex.polynomial(p, ex.cos(THETA))))
        return t

    def ladder_coefficient(self, l: int, m: int, s: int) -> ex.Expr:
        return ex.power(ex.num(l * (l + 1) - m * (m + s)), Fraction(1, 2))

    def scalar_harmonic(self, l: int, m: int, seed: int = 0) -> HarmonicFamily:
        """Scalar weight-(l, m) harmonic with axis and Casimir certificates."""
        _check_labels(l, 0, m)
        t = self._member(l, 0, m)
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
            claim("casimir-eigenvalue", self.scalar_operator().apply(t), ex.mul(lam, t), box, seed),
            claim("axis-eigenvalue", self.ladder[2].apply(t), ex.mul(ex.num(m), t), box, seed),
        ]

    def scalar_family(self, l: int, m_values=None, seed: int = 0) -> HarmonicFamily:
        """All scalar weight-l members in one family document."""
        m_values = _weights(l, m_values)
        components = {}
        certs = []
        for m in m_values:
            one = self.scalar_harmonic(l, m, seed=seed)
            components.update(one.components)
            certs += _at_weight(one.certificates, m)
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
        fams = {n: {m: self._member(l, n, m) for m in m_values} for n in n_values}
        for n in n_values:
            for m in m_values:
                components[f"n={n},m={m}"] = fams[n][m]
        certs = []
        assemblies = {}
        box = self.space.full_box()
        reduced = {n: self.reduced_operator(n) for n in n_values}
        for m in m_values:
            tag = f"m={m}"
            monos = []
            for upper, lower, n, amp in self.tensor_slots(l):
                scalar = ex.mul(amps[amp], fams[n][m])
                monos.append(TensorMonomial(upper, lower, scalar))
            assemblies[tag] = assembly_to_json(self.frame, monos)
            for n in n_values:
                t = fams[n][m]
                red = reduced[n].apply(t)
                certs.append(claim(f"reduced-eigenvalue n={n} {tag}", red, ex.mul(lam, t), box, seed))
                axis = self.ladder[2].apply(t)
                certs.append(claim(f"axis-eigenvalue n={n} {tag}", axis, ex.mul(ex.num(m), t), box, seed))
            certs.append(assembly_claim(self.op_space, assemble(self.frame, monos, 0, 2), lam, seed, tag))
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

    def recertifier(self, doc: dict):
        """seed -> the certificates of a family document this model wrote,
        recomputed by the builders' code: both of each scalar weight, and the
        Lie-derivative one of each tensor assembly.  Every field is read (and
        may raise) before this returns."""
        kind = doc["kind"]
        lam = parse(doc["eigenvalues"]["G"], [], [])
        if kind == "scalar":
            single = "m" in doc["labels"]  # one harmonic: its certificates carry no weight
            comps = [(int(key.split("m=")[1]), parse(comp, self.sphere.coords))
                     for key, comp in doc["components"].items()]

            def recertify(seed):
                out = []
                for m, t in comps:
                    certs = self.scalar_certificates(t, lam, m, seed)
                    out += certs if single else _at_weight(certs, m)
                return out
        elif kind == "tensor20":
            tensors = [(tag, assemble_from_json(self.frame, monos))
                       for tag, monos in doc.get("assemblies", {}).items()]

            def recertify(seed):
                return [assembly_claim(self.op_space, tens, lam, seed, tag) for tag, tens in tensors]
        else:
            raise SchemaError(f"unknown so3 family kind {kind!r}")
        return recertify

    def apply_ladder(self, l: int, n: int, m: int, s: int, seed: int = 0):
        """One ladder move on t^l_{n,m}; returns (coefficient, target m, report).

        At the family edge the move annihilates and the coefficient is 0."""
        _check_labels(l, n, m)
        if not _is_int(s) or s not in (1, -1):
            raise ValueError(f"a ladder step is +1 or -1, got s={s!r}")
        t = self._member(l, n, m)
        opn = self.shifted_ladder(0 if s > 0 else 1, n)
        moved = opn.apply(t)
        coef = self.ladder_coefficient(l, m, s)
        box = self.space.full_box()
        if abs(m + s) > l:
            rep = nc.is_zero(moved, box, seed)
            return ex.ZERO, None, rep
        target = self._member(l, n, m + s)
        rep = nc.is_zero(ex.sub(moved, ex.mul(coef, target)), box, seed)
        return coef, m + s, rep


def _lower(l: int, n: int, m: int, p: list, eps: int, norm: int) -> tuple:
    """The member below t^l_{n,m} = (P, eps, N) in the form `_family` keeps.

    The shifted lowering ladder maps a member to e^{i(m-1) phi}
    sin^(eps-1) Q with Q = (1 - x^2) P' - (m + eps) x P + n P, and N gains
    the factor c2 = l(l+1) - m(m-1).  So the next member is (Q, 0) when
    eps = 1 and (Q / (1 - x^2), 1) when eps = 0, a division that is exact
    for every true member."""
    q = [0] * (len(p) + 1)
    for k, c in enumerate(p):
        q[k] += n * c
        q[k + 1] -= (m + eps + k) * c
        if k:
            q[k - 1] += k * c
    if not eps:  # divide by 1 - x^2: q = (x^2 - 1) s + r1 x + r0, so q_j = s_(j-2) - s_j
        s = q[2:]
        for j in range(len(s) - 3, -1, -1):
            s[j] += s[j + 2]
        if q[0] + (s[0] if s else 0) or q[1] + (s[1] if len(s) > 1 else 0):
            raise ArithmeticError(f"so3 lowering left a remainder at l={l}, n={n}, m={m}")
        q = [-c for c in s]
    return q, 1 - eps, norm * (l * (l + 1) - m * (m - 1))


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


def _at_weight(certs, m: int) -> list:
    """A weight's certificates as named in a document of several weights."""
    return [Certificate(f"{c.name} m={m}", c.payload) for c in certs]


def _leg_weight(leg: int) -> int:
    return {0: 0, 1: 1, 2: -1}[leg]


def _legs(n: int) -> tuple:
    """The covector legs of weight n: n raising legs +1, or -n lowering legs -1
    (frame leg indices: 0 = r, 1 = +1, 2 = -1)."""
    return (1,) * n if n >= 0 else (2,) * -n


@functools.lru_cache(maxsize=1)
def so3_model() -> So3Model:
    return So3Model()
