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
residuals (reduced or Casimir, axis, and each ladder move), or at m < 0 by
those of its conjugate partner at -m, scalar or tensor (`_conjugate_half`).

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
SIGMA_FLIP = ("h_r",)  # conjugation swaps the +1 and -1 legs, so the r-s slots change sign


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
        self.op_space = CasimirOperator("so3-space", self.space, self.space_generators, self.metric)
        self.op_ladder = CasimirOperator("so3-ladder", self.space, self.space_ladder, gl, self.mu)
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
        return [claim("casimir-eigenvalue", self.scalar_operator().apply(t), ex.mul(lam, t), box, seed),
                claim("axis-eigenvalue", self.ladder[2].apply(t), ex.mul(ex.num(m), t), box, seed)]

    def _scalar_claims(self, comps: dict, lam, seed: int) -> dict:
        """(0, m) -> the `scalar_certificates` of each member t of comps, (0, m) -> t."""
        return _conjugate_half(comps, lambda key: self.scalar_certificates(comps[key], lam, key[1], seed),
                               self._conjugate_scalars and ex.conj(lam) == lam)

    def scalar_family(self, l: int, m_values=None, seed: int = 0) -> HarmonicFamily:
        """All scalar weight-l members in one family document."""
        m_values = _weights(l, m_values)
        lam = ex.num(-l * (l + 1))
        comps = {(0, m): self._member(l, 0, m) for m in m_values}
        claims = self._scalar_claims(comps, lam, seed)
        return HarmonicFamily(
            model=self.name,
            kind="scalar",
            labels={"l": l},
            eigenvalues={"G": lam},
            components={f"n=0,m={m}": t for (_n, m), t in comps.items()},
            certificates=[c for m in m_values for c in _labelled(claims[0, m], f"m={m}")],
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
        n_values = sorted({n for _u, _lo, n, _a in self.tensor_slots(l)})
        slots = {(n, m): self._member(l, n, m) for n in n_values for m in m_values}
        components = {f"n={n},m={m}": t for (n, m), t in slots.items()}
        assemblies, tensors = {}, {}
        box = self.space.full_box()
        reduced = {n: self.reduced_operator(n) for n in n_values}
        for m in m_values:
            monos = [TensorMonomial(upper, lower, ex.mul(amps[amp], slots[n, m]))
                     for upper, lower, n, amp in self.tensor_slots(l)]
            assemblies[f"m={m}"] = assembly_to_json(self.frame, monos)
            tensors[f"m={m}"] = assemble(self.frame, monos, 0, 2)

        def full(key):
            (n, m), t = key, slots[key]
            return [claim("reduced-eigenvalue", reduced[n].apply(t), ex.mul(lam, t), box, seed),
                    claim("axis-eigenvalue", self.ladder[2].apply(t), ex.mul(ex.num(m), t), box, seed)]

        scalar = _conjugate_half(slots, full, self._conjugate_weights and ex.conj(lam) == lam)
        casimir = self._casimir_certificates(tensors, lam, seed)
        certs = []
        for m in m_values:
            certs += [c for n in n_values for c in _labelled(scalar[n, m], f"n={n} m={m}")] + casimir[f"m={m}"]
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
            comps = {(0, _weight(key, "n=0,m=")): parse(comp, self.sphere.coords)
                     for key, comp in doc["components"].items()}
            if (0, None) in comps:
                raise SchemaError("a scalar component is not named n=0,m=<weight>")

            def recertify(seed):
                return [c for (_n, m), certs in self._scalar_claims(comps, lam, seed).items()
                        for c in (certs if single else _labelled(certs, f"m={m}"))]
        elif kind == "tensor20":
            tensors = {tag: assemble_from_json(self.frame, monos)
                       for tag, monos in doc.get("assemblies", {}).items()}

            def recertify(seed):
                return [c for certs in self._casimir_certificates(tensors, lam, seed).values() for c in certs]
        else:
            raise SchemaError(f"unknown so3 family kind {kind!r}")
        return recertify

    @functools.cached_property
    def _sigma_commutes(self) -> bool:
        """Whether G commutes with sigma, `ex.conj` with h_r negated: sigma
        fixes the generator components and metric entries of `op_space`."""
        op = self.op_space
        entries = [c for x in op.generators for c in x.comps] + [g for row in op.metric for g in row]
        return all(ex.conj(e, SIGMA_FLIP) == e for e in entries)

    @functools.cached_property
    def _conjugate_scalars(self) -> bool:
        """Whether conjugation fixes the orbit Laplacian K and negates the axis generator."""
        return (all(ex.conj(c) == c for _, c in self.scalar_operator().table)
                and all(ex.conj(c) == ex.neg(c) for c in self.ladder[2].comps))

    @functools.cached_property
    def _conjugate_weights(self) -> bool:
        """Whether conjugation negates the axis generator and maps the reduced
        operator of each weight n to that of -n."""
        conj = {n: [(idx, ex.conj(c)) for idx, c in self.reduced_operator(n).table] for n in range(-2, 3)}
        return (all(ex.conj(c) == ex.neg(c) for c in self.ladder[2].comps)
                and all(c is not None for table in conj.values() for _, c in table)
                and all(ScalarOperator(self.space, tuple(table)).equal_to(self.reduced_operator(-n))
                        for n, table in conj.items()))

    def _casimir_certificates(self, tensors: dict, lam, seed: int) -> dict:
        """tag -> [the `casimir-eigenvalue` certificate of each assembly]; T(m) at m < 0
        takes T(-m)'s when G commutes with sigma and T(m) = (-1)^m sigma(T(-m))."""
        def plan(m, t):  # m = 0: a full certificate
            other = tensors.get(f"m={-m}")
            if m < 0 and other is not None and (t.p, t.q) == (other.p, other.q):
                return f"m={-m}", set(zip(t.comps, other.comps)), m

        certs = _conjugate_half(tensors, lambda tag: [assembly_claim(self.op_space, tensors[tag], lam, seed)],
                                self._sigma_commutes and ex.conj(lam) == lam, SIGMA_FLIP,
                                {tag: plan(_weight(tag) or 0, t) for tag, t in tensors.items()})
        return {tag: _labelled(c, tag) for tag, c in certs.items()}

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


def _conjugate_half(comps: dict, full, derivable: bool, flip=(), plans=None) -> dict:
    """key -> `full(key)`, the certificates of each key of comps, or p's for a
    key planned (p, pairs, k) when `derivable` (conjugation maps the claims'
    operators as they need, lam is real) and `_conjugates(pairs, k, flip, p's)`.
    By default t[n,m] at m < 0 is planned with t[-n,-m], (-1)^(n+m) its conj."""
    if plans is None:
        plans = {(n, m): ((-n, -m), [(t, comps[-n, -m])], n + m) if m < 0 and (-n, -m) in comps else None
                 for (n, m), t in comps.items()}
    out = {}
    for key in sorted(plans, key=lambda key: plans[key] is not None):
        known = plans[key] and out.get(plans[key][0])
        out[key] = known if derivable and known and _conjugates(*plans[key][1:], flip, known) else full(key)
    return {key: out[key] for key in plans}


def _conjugates(pairs, k: int, flip, certs) -> bool:
    """Whether every report of certs is symbolically zero and a = (-1)^k
    conj(b) exactly, with the symbols in `flip` negated, for every pair (a, b):
    the one test of a derived scalar weight, tensor slot and tensor assembly."""
    minus_sign = ex.num(1 if k % 2 else -1)
    return all(r.verdict is nc.Verdict.SYMBOLIC_ZERO
               for c in certs for r in getattr(c.payload, "reports", (c.payload,))) and all(
        (c := ex.conj(b, flip)) is not None and ex.simplify(ex.add(a, ex.mul(minus_sign, c))) == ex.ZERO
        for a, b in pairs)


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
    refused by `_check_labels` unless each names a member, and refused when
    empty or repeated, since a family certifies each weight once."""
    _check_labels(l, 0)
    m_values = list(range(-l, l + 1) if m_values is None else m_values)
    _check_labels(l, 0, *m_values)
    if not m_values or len(set(m_values)) < len(m_values):
        raise ValueError(f"a family needs distinct weights m, got {m_values}")
    return m_values


def _weight(label: str, prefix: str = "m=") -> int | None:
    """The weight of a plain ``<prefix><int>`` label, as the builders write it, or None."""
    digits = label.removeprefix(prefix)
    return int(digits) if digits.removeprefix("-").isdecimal() and label == f"{prefix}{int(digits)}" else None


def _labelled(certs, label: str) -> list:
    """Certificates as named in a document of several weights: `<name> <label>`."""
    return [Certificate(f"{c.name} {label}", c.payload) for c in certs]


def _leg_weight(leg: int) -> int:
    return {0: 0, 1: 1, 2: -1}[leg]


def _legs(n: int) -> tuple:
    """The covector legs of weight n: n raising legs +1, or -n lowering legs -1
    (frame leg indices: 0 = r, 1 = +1, 2 = -1)."""
    return (1,) * n if n >= 0 else (2,) * -n


@functools.lru_cache(maxsize=1)
def so3_model() -> So3Model:
    return So3Model()
