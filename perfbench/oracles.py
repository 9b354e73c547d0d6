"""Independent output oracles.  sympy, mpmath and numpy only: nothing here
imports casimir.

Each `check_<workload>(ops, docs)` takes the generated operations and the
parsed output of each (`docs[i]`, None when missing) and returns
{operation index: [problem, ...]} for every operation whose output is wrong.

What is checked, beyond the documents' own shape and every `ok` flag:

* tensor-cert: each assembled type-(0,2) tensor T_m is rebuilt from the
  family's `assemblies` on the coframe (dr, dtheta +/- i sin(theta) dphi), and
  sum_i L_i L_i T_m = lambda T_m, L_3 T_m = m T_m and the normalized lowering
  move L_- T_m = sqrt(l(l+1) - m(m-1)) T_{m-1} are checked at sample points
  with Lie derivatives assembled from sympy derivatives; the scalar weight-0
  components must have one common ratio to mpmath.spherharm(l, m, .).
* numeric-export: every exported row is compared with the emitted component
  strings evaluated independently; so3 components against spherharm as
  above, point series against the closed form
  e^(m y + nu z) d^(n-m-1)/dv^(n-m-1) (1+v^2)^(n-1/2), and hypergeometric
  families against the radial equation solved with mpmath.hyp2f1.
* library-session: every verdict against the generator's known answer.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import mpmath
import numpy as np
import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

NAMES = ("r", "theta", "phi", "v", "y", "z", "u", "w", "h_rr", "h_r", "h", "a_1", "a_2", "a_3")
S = {n: sp.Symbol(n) for n in NAMES}
_LOCAL = {**S, "i": sp.I, "sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "cot": sp.cot,
          "sqrt": sp.sqrt}
_TRANSFORMS = standard_transformations + (convert_xor,)

REL_TOL = 1e-8  # every exact identity below holds to ~1e-12 in double precision
R, TH, PH = S["r"], S["theta"], S["phi"]
COORDS3 = (R, TH, PH)
COVECTORS = {"r": (1, 0, 0), "+1": (0, 1, sp.I * sp.sin(TH)), "-1": (0, 1, -sp.I * sp.sin(TH))}
LEG_WEIGHT = {"r": 0, "+1": 1, "-1": -1}
KILLING = ((0, sp.sin(PH), sp.cot(TH) * sp.cos(PH)), (0, -sp.cos(PH), sp.cot(TH) * sp.sin(PH)),
           (0, 0, -1))
LOWERING = (0, -sp.exp(-sp.I * PH), sp.I * sp.cot(TH) * sp.exp(-sp.I * PH))
AXIS = (0, 0, -sp.I)


def parse(text: str) -> sp.Expr:
    return parse_expr(text, local_dict=dict(_LOCAL), transformations=_TRANSFORMS)


def _numeric(exprs, names, points):
    """Evaluate sympy expressions at points {name: array}; complex arrays."""
    syms = [S[n] for n in names]
    fn = sp.lambdify(syms, list(exprs), modules="numpy")
    n = len(points[names[0]])
    vals = fn(*[np.asarray(points[k], dtype=float) for k in names])
    return [np.broadcast_to(np.asarray(v, dtype=complex), (n,)) for v in vals]


def _precise(expr, names, point: dict) -> complex:
    fn = sp.lambdify([S[n] for n in names], expr, modules="mpmath")
    with mpmath.workdps(30):
        return complex(fn(*[mpmath.mpf(point[n]) for n in names]))


class Problems:
    def __init__(self):
        self.by_op: dict[int, list[str]] = {}

    def add(self, op: int, message: str) -> None:
        self.by_op.setdefault(op, []).append(message)

    def expect(self, op: int, cond, message: str) -> bool:
        if not cond:
            self.add(op, message)
        return bool(cond)


def all_ok(doc) -> bool:
    """No `ok: false` anywhere in the document."""
    if isinstance(doc, dict):
        if doc.get("ok") is False:
            return False
        return all(all_ok(v) for v in doc.values())
    if isinstance(doc, list):
        return all(all_ok(v) for v in doc)
    return True


def _same_number(text: str, value) -> bool:
    try:
        return sp.simplify(parse(text) - sp.nsimplify(value, rational=True)) == 0
    except (sp.SympifyError, SyntaxError, TypeError):
        return False


def _close(a, b, scale) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= REL_TOL * (1.0 + scale)))


def _rng_points(seed_text: str, box: dict, n: int) -> dict:
    rng = random.Random(seed_text)
    return {k: np.array([rng.uniform(lo, hi) for _ in range(n)]) for k, (lo, hi) in box.items()}


def _family_shape(p: Problems, op: int, doc, model: str, kind: str, cert_names) -> bool:
    if not p.expect(op, isinstance(doc, dict), "no output document"):
        return False
    p.expect(op, doc.get("model") == model and doc.get("kind") == kind,
             f"expected a {model} {kind} family")
    p.expect(op, doc.get("certified") is True, "family not certified")
    names = sorted(c.get("name") for c in doc.get("certificates", []))
    p.expect(op, names == sorted(cert_names), f"certificate names differ: {names}")
    p.expect(op, all_ok(doc), "a certificate has ok: false")
    return True


# --- so3 ---------------------------------------------------------------------------


SPHERE_POINTS = ((0.63, 0.41), (1.37, 2.29), (2.21, 4.87), (1.05, 5.71))


def check_spherical(p: Problems, op: int, l: int, m: int, text: str) -> None:
    """Scalar weight-l components are fixed multiples of Condon-Shortley
    Y_l^m: the family starts from the top member e^(i l phi) sin(theta)^l
    (series normalized to a leading coefficient of 1) and every normalized
    ladder move keeps the ratio, so t_lm / Y_lm = (-1)^l 2^l l! sqrt(4 pi / (2l+1)!)
    for every m, which pins the scale and sign of each component."""
    ref = (-1) ** l * 2 ** l * math.factorial(l) * math.sqrt(4 * math.pi / math.factorial(2 * l + 1))
    fn = sp.lambdify([TH, PH], parse(text), modules="mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for th, ph in SPHERE_POINTS:
            ratio = complex(fn(mpmath.mpf(th), mpmath.mpf(ph)) / mpmath.spherharm(l, m, th, ph))
            worst = max(worst, abs(ratio - ref) / abs(ref))
    p.expect(op, worst < 1e-9, f"component l={l} m={m} is not {ref:.6g} Y_l^m ({worst:.2e})")


def _jets(exprs, points):
    """Values, first and second (r, theta, phi) derivatives of a list of
    expressions at the sample points: arrays (k, n), (3, k, n), (3, 3, k, n).
    Derivatives are taken with mpmath.diff at 30 digits, which is far cheaper
    than symbolic differentiation of the large component expressions."""
    names = tuple(points)
    k, n = len(exprs), len(points["theta"])
    v0 = np.zeros((k, n), dtype=complex)
    v1 = np.zeros((3, k, n), dtype=complex)
    v2 = np.zeros((3, 3, k, n), dtype=complex)
    with mpmath.workdps(30):
        for s, e in enumerate(exprs):
            e = sp.sympify(e)
            fn = sp.lambdify([S[x] for x in names], e, modules="mpmath")
            free = [c for c in range(3) if COORDS3[c] in e.free_symbols]
            slot = [names.index(COORDS3[c].name) for c in free]
            for j in range(n):
                base = [mpmath.mpf(points[x][j]) for x in names]
                v0[s, j] = complex(fn(*base))
                if not free:
                    continue

                def at(*xs, base=base):
                    args = list(base)
                    for q, x in zip(slot, xs):
                        args[q] = x
                    return fn(*args)

                origin = [base[q] for q in slot]
                for a, ca in enumerate(free):
                    order = [0] * len(free)
                    order[a] = 1
                    v1[ca, s, j] = complex(mpmath.diff(at, origin, order))
                    for b in range(a, len(free)):
                        order2 = list(order)
                        order2[b] += 1
                        d2 = complex(mpmath.diff(at, origin, order2))
                        v2[ca, free[b], s, j] = v2[free[b], ca, s, j] = d2
    return v0, v1, v2


def _tensor_jets(monos, points, pair_jets):
    """2-jets of T_ij = sum over monomials of scalar * e^a_i e^b_j, by the
    product rule from the jets of each scalar and of the coframe products."""
    c0, c1, c2 = _jets([parse(mo["scalar"]) for mo in monos], points)
    idx = [pair_jets["pairs"].index(tuple(mo["lower"])) for mo in monos]
    f0, f1, f2 = (f[..., idx, :, :, :] for f in pair_jets["jets"])
    e = np.einsum
    t0 = e("sn,sijn->ijn", c0, f0)
    t1 = e("dsn,sijn->dijn", c1, f0) + e("sn,dsijn->dijn", c0, f1)
    t2 = (e("desn,sijn->deijn", c2, f0) + e("dsn,esijn->deijn", c1, f1)
          + e("esn,dsijn->deijn", c1, f1) + e("sn,desijn->deijn", c0, f2))
    return (t0, t1, t2), c0


def _coframe_pairs(pairs, points) -> dict:
    exprs = [COVECTORS[a][i] * COVECTORS[b][j] for a, b in pairs for i in range(3) for j in range(3)]
    k, n = len(pairs), len(points["theta"])
    jets = tuple(f.reshape(f.shape[:-2] + (k, 3, 3, n)) for f in _jets(exprs, points))
    return {"pairs": list(pairs), "jets": jets}


def _lie(field, tensor):
    """(L_X T, d(L_X T)) for a covariant 2-tensor from the 2-jets of X and T."""
    x, dx, ddx = field
    t, dt, ddt = tensor
    e = np.einsum
    val = e("cn,cabn->abn", x, dt) + e("cbn,acn->abn", t, dx) + e("acn,bcn->abn", t, dx)
    der = (e("dcn,cabn->dabn", dx, dt) + e("cn,dcabn->dabn", x, ddt)
           + e("dcbn,acn->dabn", dt, dx) + e("cbn,dacn->dabn", t, ddx)
           + e("dacn,bcn->dabn", dt, dx) + e("acn,dbcn->dabn", t, ddx))
    return val, der


def _lie_value(field, tensor_val, tensor_der):
    x, dx, _ = field
    e = np.einsum
    return (e("cn,cabn->abn", x, tensor_der) + e("cbn,acn->abn", tensor_val, dx)
            + e("acn,bcn->abn", tensor_val, dx))


def _amplitude(a: str, b: str) -> sp.Symbol:
    legs = (a, b).count("r")
    return S["h_rr"] if legs == 2 else S["h_r"] if legs == 1 else S["h"]


def check_tensor20(p: Problems, op: int, doc, l: int, seed_text: str) -> None:
    ms = range(-l, l + 1)
    slots = [(a, b) for a in COVECTORS for b in COVECTORS
             if abs(LEG_WEIGHT[a] + LEG_WEIGHT[b]) <= l]
    ns = sorted({LEG_WEIGHT[a] + LEG_WEIGHT[b] for a, b in slots})
    names = [f"{kind}-eigenvalue n={n} m={m}" for m in ms for n in ns for kind in ("reduced", "axis")]
    names += [f"casimir-eigenvalue m={m}" for m in ms]
    if not _family_shape(p, op, doc, "so3", "tensor20", names):
        return
    lam = -l * (l + 1)
    p.expect(op, doc.get("labels") == {"l": l}, "labels differ")
    p.expect(op, _same_number(doc.get("eigenvalues", {}).get("G", "x"), lam), "eigenvalue of G is wrong")
    comps = doc.get("components", {})
    want = sorted(f"n={n},m={m}" for n in ns for m in ms)
    if not p.expect(op, sorted(comps) == want, "component labels differ"):
        return
    for m in ms:
        check_spherical(p, op, l, m, comps[f"n=0,m={m}"])
    box = {"r": (1.0, 2.0), "theta": (0.4, 2.7), "phi": (0.2, 6.0),
           "h_rr": (0.3, 1.6), "h_r": (0.3, 1.6), "h": (0.3, 1.6)}
    pts = _rng_points(seed_text, box, 6)
    killing = [_jets(list(x), pts) for x in KILLING]
    lowering = _jets(list(LOWERING), pts)
    axis = _jets(list(AXIS), pts)
    pairs = _coframe_pairs(slots, pts)
    labels = sorted(comps)
    comp_vals = dict(zip(labels, _numeric([parse(comps[k]) for k in labels], tuple(box), pts)))
    tensors = {}
    assemblies = doc.get("assemblies", {})
    for m in ms:
        monos = assemblies.get(f"m={m}")
        if not p.expect(op, isinstance(monos, list)
                        and sorted(tuple(mo.get("lower", ())) for mo in monos) == sorted(slots),
                        f"assembly m={m} missing or incomplete"):
            return
        tensors[m], scalars = _tensor_jets(monos, pts, pairs)
        for mo, got in zip(monos, scalars):
            a, b = mo["lower"]
            amp = pts[_amplitude(a, b).name]
            ref = amp * comp_vals[f"n={LEG_WEIGHT[a] + LEG_WEIGHT[b]},m={m}"]
            p.expect(op, _close(got, ref, float(np.max(np.abs(ref)))),
                     f"assembly m={m} slot {a},{b} is not amplitude * component")
    for m in ms:
        val, der, _ = tensors[m]
        scale = float(np.max(np.abs(val)))
        if not p.expect(op, scale > 1e-6, f"tensor m={m} vanishes"):
            continue
        g = sum(_lie_value(x, *_lie(x, tensors[m])) for x in killing)
        p.expect(op, _close(g, lam * val, scale * (1 + abs(lam))),
                 f"G T != {lam} T for m={m}")
        p.expect(op, _close(_lie_value(axis, val, der), m * val, scale * (1 + abs(m))),
                 f"L_3 T != {m} T for m={m}")
        if m > -l:
            coef = math.sqrt(l * (l + 1) - m * (m - 1))
            p.expect(op, _close(_lie_value(lowering, val, der), coef * tensors[m - 1][0],
                                scale * (1 + coef)),
                     f"lowering T_{m} != {coef:.6g} T_{m - 1}")


def check_verify_report(p: Problems, op: int, doc, family_doc, seed: int) -> None:
    if not p.expect(op, isinstance(doc, dict), "no verify report"):
        return
    body = {k: v for k, v in doc.items() if k not in ("digest", "timings")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    p.expect(op, hashlib.sha256(blob.encode()).hexdigest() == doc.get("digest"),
             "digest does not match the report body")
    p.expect(op, doc.get("command") == "verify-family" and doc.get("seed") == seed,
             "wrong command or seed")
    p.expect(op, doc.get("ok") is True and all_ok(doc), "re-certification failed")
    tags = sorted((family_doc or {}).get("assemblies", {}))
    names = sorted(c.get("name") for c in doc.get("checks", []))
    p.expect(op, tags and names == sorted(f"recertify: casimir-eigenvalue {t}" for t in tags),
             "re-certified names differ from the family's assemblies")
    p.expect(op, all(c.get("stored") == c.get("recomputed") == "ok" for c in doc.get("checks", [])),
             "stored and recomputed verdicts differ")


def check_tensor_cert(ops, docs) -> dict:
    p = Problems()
    l = ops[0]["check"]["l"]
    seed = int(ops[0]["argv"][ops[0]["argv"].index("--seed") + 1])
    check_tensor20(p, 0, docs[0], l, f"tensor-cert:{seed}")
    check_verify_report(p, 1, docs[1], docs[0], seed)
    return p.by_op


# --- grids ------------------------------------------------------------------------------


def _grid_axes(grid: dict) -> dict:
    out = {}
    for name, (a, b, n) in grid.items():
        a, b = float(a), float(b)
        out[name] = [a + (b - a) * j / max(n - 1, 1) for j in range(n)]
    return out


def check_samples(p: Problems, op: int, doc, grid: dict) -> None:
    samples = doc.get("samples")
    if not p.expect(op, isinstance(samples, dict), "no samples"):
        return
    names = list(grid)
    labels = sorted(doc["components"])
    columns = names + [f"{lab}.{part}" for lab in labels for part in ("re", "im")]
    if not p.expect(op, samples.get("columns") == columns, "sample columns differ"):
        return
    rows = samples.get("rows", [])
    axes = _grid_axes(grid)
    count = math.prod(len(axes[n]) for n in names)
    if not p.expect(op, len(rows) == count, f"{len(rows)} rows, expected {count}"):
        return
    table = np.array([[float(x) for x in row] for row in rows])
    mesh = np.meshgrid(*[np.array(axes[n]) for n in names], indexing="ij")
    for k, name in enumerate(names):
        p.expect(op, np.allclose(table[:, k], mesh[k].ravel(), rtol=0, atol=1e-12),
                 f"grid coordinate {name} differs")
    pts = {n: table[:, k] for k, n in enumerate(names)}
    values = _numeric([parse(doc["components"][lab]) for lab in labels], tuple(names), pts)
    for j, (lab, ref) in enumerate(zip(labels, values)):
        got = table[:, len(names) + 2 * j] + 1j * table[:, len(names) + 2 * j + 1]
        p.expect(op, _close(got, ref, float(np.max(np.abs(ref)))),
                 f"exported values of {lab} differ from the component")


def check_so3_scalar(p: Problems, op: int, doc, l: int, ms) -> None:
    names = [f"{kind}-eigenvalue m={m}" for m in ms for kind in ("casimir", "axis")]
    if len(ms) == 1:
        names = ["casimir-eigenvalue", "axis-eigenvalue"]
    if not _family_shape(p, op, doc, "so3", "scalar", names):
        return
    comps = doc.get("components", {})
    if not p.expect(op, sorted(comps) == sorted(f"n=0,m={m}" for m in ms), "component labels differ"):
        return
    p.expect(op, _same_number(doc["eigenvalues"].get("G", "x"), -l * (l + 1)), "eigenvalue of G is wrong")
    if len(ms) == 1:
        p.expect(op, _same_number(doc["eigenvalues"].get("axis", "x"), ms[0]), "axis eigenvalue is wrong")
    for m in ms:
        check_spherical(p, op, l, m, comps[f"n=0,m={m}"])


def point_series_profile(n: int, m: int, nu) -> sp.Expr:
    v, y, z = S["v"], S["y"], S["z"]
    base = (1 + v ** 2) ** sp.Rational(2 * n - 1, 2)
    return sp.exp(m * y + sp.Rational(nu) * z) * sp.diff(base, v, n - m - 1)


def check_point_series(p: Problems, op: int, doc, n: int, m: int, nu: str, kind: str,
                       seed_text: str) -> None:
    names = ["casimir-eigenvalue", "y-translation-eigenvalue", "z-translation-eigenvalue",
             "lowering-relation"]
    if kind == "covector":
        names += ["casimir-eigenvalue", "y-translation-eigenvalue"]
    if not _family_shape(p, op, doc, "bianchi2", kind, names):
        return
    nu_q = sp.Rational(nu)
    label = f"n={n},m={m},nu={nu_q}"
    comps = doc.get("components", {})
    if not p.expect(op, list(comps) == [label], f"component label differs from {label}"):
        return
    ev = doc.get("eigenvalues", {})
    p.expect(op, _same_number(ev.get("G", "x"), nu_q ** 2 + n * n), "eigenvalue of G is wrong")
    p.expect(op, _same_number(ev.get("y-translation", "x"), m), "y eigenvalue is wrong")
    p.expect(op, _same_number(ev.get("z-translation", "x"), nu_q), "z eigenvalue is wrong")
    box = {"v": (-0.85, 0.85), "y": (-0.9, 0.9), "z": (-0.9, 0.9)}
    pts = _rng_points(seed_text, box, 12)
    comp = parse(comps[label])
    got, ref = _numeric([comp, point_series_profile(n, m, nu_q)], ("v", "y", "z"), pts)
    p.expect(op, _close(got, ref, float(np.max(np.abs(ref)))), "component is not the closed-form point series")
    if kind == "covector":
        monos = doc.get("assemblies", {}).get("covector", [])
        p.expect(op, [mo.get("lower") for mo in monos] == [["1"], ["2"], ["3"]], "coframe legs differ")
        for k, mo in enumerate(monos):
            scalar, want = _numeric([parse(mo["scalar"]), S[f"a_{k + 1}"] * comp],
                                    ("v", "y", "z", f"a_{k + 1}"),
                                    {**pts, f"a_{k + 1}": np.full(12, 0.7)})
            p.expect(op, _close(scalar, want, float(np.max(np.abs(want)))),
                     f"covector leg {k + 1} is not amplitude * component")


def radial_profile(mu, nu, lam, amp_even, amp_odd):
    """f(v) = A F(a,b;1/2;-v^2) + B |v| F(a+1/2,b+1/2;3/2;-v^2) with
    a, b = (-mu -/+ sqrt(lam - nu^2))/2: the regular solutions of
    (1+v^2) f'' + (1-2mu) v f' + (mu^2+nu^2) f = lam f."""
    root = mpmath.sqrt(mpmath.mpf(lam) - mpmath.mpf(nu) ** 2)
    a, b = (-mu - root) / 2, (-mu + root) / 2

    def f(v):
        z = -v * v
        out = amp_even * mpmath.hyp2f1(a, b, 0.5, z)
        if amp_odd:
            out += amp_odd * abs(v) * mpmath.hyp2f1(a + 0.5, b + 0.5, 1.5, z)
        return out

    return f


def check_hypergeometric(p: Problems, op: int, doc, params: dict) -> None:
    if not _family_shape(p, op, doc, "bianchi2", "hypergeometric", ["radial-equation-residual"]):
        return
    mu, nu, lam, amp_a, amp_b = (float(params[k]) for k in ("mu", "nu", "lam", "A", "B"))
    lab = doc.get("labels", {})
    want = {"mu": mu, "nu": nu, "lambda": lam, "A": amp_a, "B": amp_b, "sigma": lam - nu * nu}
    p.expect(op, set(lab) == set(want) and all(abs(lab[k] - v) <= 1e-12 * (1 + abs(v))
                                               for k, v in want.items()), "labels differ from the inputs")
    p.expect(op, _same_number(doc.get("eigenvalues", {}).get("G", "x"), sp.Rational(params["lam"])),
             "eigenvalue of G is wrong")
    cert = doc["certificates"][0]
    p.expect(op, cert.get("verdict") == "numerically-zero" and cert.get("points") == 16
             and cert.get("tolerance") == 1e-8, "certificate fields differ")
    p.expect(op, 0 <= cert.get("max_abs", 1) <= cert.get("tolerance", 0) * cert.get("scale", 0),
             "reported residual exceeds the tolerance")
    with mpmath.workdps(30):
        f = radial_profile(mu, nu, lam, amp_a, amp_b)
        lo = 0.05 if amp_b else -0.9
        grid = [lo + (0.9 - lo) * j / 399 for j in range(400)]
        sup = max(1.0, max(float(abs(f(v))) for v in grid))
        p.expect(op, 1.0 <= cert.get("scale", 0) <= sup * (1 + 1e-3),
                 f"reported scale {cert.get('scale')} is not max(1, |f|) on the box ({sup:.6g})")
        worst = 0.0
        for v in (lo + 0.1, 0.3, 0.55, 0.85):
            d1 = mpmath.diff(f, v, 1)
            d2 = mpmath.diff(f, v, 2)
            res = (1 + v * v) * d2 + (1 - 2 * mu) * v * d1 + (mu * mu + nu * nu - lam) * f(v)
            worst = max(worst, float(abs(res)) / sup)
    p.expect(op, worst < REL_TOL, f"radial equation fails for these parameters ({worst:.2e})")


def check_numeric_export(ops, docs) -> dict:
    p = Problems()
    for i, (op, doc) in enumerate(zip(ops, docs)):
        c = op["check"]
        if c["kind"] == "so3-scalar-grid":
            check_so3_scalar(p, i, doc, c["l"], list(range(-c["l"], c["l"] + 1)))
            if i not in p.by_op:
                check_samples(p, i, doc, c["grid"])
        elif c["kind"] == "point-series-grid":
            check_point_series(p, i, doc, c["n"], c["m"], c["nu"], "point-series", f"ps:{i}")
            if i not in p.by_op:
                check_samples(p, i, doc, c["grid"])
        else:
            check_hypergeometric(p, i, doc, c)
    return p.by_op


# --- library session ---------------------------------------------------------------


def _is_zero_verdict(doc) -> bool | None:
    verdict = (doc or {}).get("verdict")
    if verdict in ("symbolically-zero", "numerically-zero"):
        return True
    return False if verdict == "nonzero" else None


def check_reduced_operator(p: Problems, op: int, doc, n: int) -> None:
    """On weight-n components G reduces to the spin-weighted sphere Laplacian
    d_tt + cot(t) d_t + (d_pp - 2 i n cos(t) d_p - n^2) / sin(t)^2."""
    th = TH
    want = {(0, 2, 0): sp.Integer(1), (0, 1, 0): sp.cot(th), (0, 0, 2): sp.sin(th) ** -2,
            (0, 0, 1): -2 * sp.I * n * sp.cos(th) * sp.sin(th) ** -2,
            (0, 0, 0): -n * n * sp.sin(th) ** -2}
    want = {k: v for k, v in want.items() if v != 0}
    terms = {tuple(t["derivative"]): t["coefficient"] for t in doc.get("terms", [])}
    if not p.expect(op, doc.get("coordinates") == ["r", "theta", "phi"] and set(terms) == set(want),
                    f"reduced operator terms differ: {sorted(terms)}"):
        return
    keys = sorted(want)
    pts = {"theta": np.array([0.4, 1.1, 1.9, 2.6])}
    got = _numeric([parse(terms[k]) for k in keys], ("theta",), pts)
    ref = _numeric([want[k] for k in keys], ("theta",), pts)
    for k, a, b in zip(keys, got, ref):
        p.expect(op, _close(a, b, float(np.max(np.abs(b)))), f"coefficient of d^{k} differs")


def check_identity(p: Problems, i: int, op: dict, doc) -> None:
    """The verdict must match the known answer; the known answer itself is
    confirmed at a few points with mpmath."""
    got = _is_zero_verdict(doc)
    p.expect(i, got == (op["expect"] == "zero"), f"is_zero says {doc} for a {op['class']} input")
    e = parse(op["expr"])
    names = ("u", "w")
    vals = [abs(_precise(e, names, {"u": u, "w": w})) for u, w in ((0.3, 0.4), (0.9, 0.7), (1.3, 0.25))]
    if op["expect"] == "zero":
        p.expect(i, max(vals) < 1e-20, "generator identity is not zero")
    else:
        p.expect(i, max(vals) > 1e-7, "generator perturbation is too small")


def check_library_session(ops, docs) -> dict:
    p = Problems()
    for i, (op, doc) in enumerate(zip(ops, docs)):
        call = op["call"]
        if doc is None:
            p.add(i, "no result")
            continue
        if call == "scalar_family":
            check_so3_scalar(p, i, doc, op["l"], list(range(-op["l"], op["l"] + 1)))
        elif call == "scalar_harmonic":
            check_so3_scalar(p, i, doc, op["l"], [op["m"]])
        elif call == "apply_ladder":
            l, m, s = op["l"], op["m"], op["s"]
            edge = abs(m + s) > l
            coef = 0 if edge else sp.sqrt(l * (l + 1) - m * (m + s))
            p.expect(i, sp.simplify(parse(doc.get("coefficient", "x")) - coef) == 0,
                     f"ladder coefficient {doc.get('coefficient')} != {coef}")
            p.expect(i, doc.get("target") == (None if edge else m + s), "ladder target differs")
            p.expect(i, _is_zero_verdict(doc.get("residual")) is True, "ladder residual is not zero")
        elif call == "reduced_operator":
            check_reduced_operator(p, i, doc, op["n"])
        elif call in ("point_series", "covector_harmonic"):
            kind = "point-series" if call == "point_series" else "covector"
            check_point_series(p, i, doc, op["n"], op["m"], op["nu"], kind, f"lib:{i}")
        elif call == "hypergeometric_harmonic":
            check_hypergeometric(p, i, doc, op["check"])
        elif call == "check_commutes":
            res = doc.get("residuals", [])
            p.expect(i, len(res) == 3 and all(_is_zero_verdict(r) for r in res),
                     "G does not commute with the generator")
        elif call == "is_zero":
            check_identity(p, i, op, doc)
        else:
            p.add(i, f"unknown call {call}")
    return p.by_op


CHECKS = {
    "tensor-cert": check_tensor_cert,
    "numeric-export": check_numeric_export,
    "library-session": check_library_session,
}
