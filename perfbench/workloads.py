"""Seeded workload generator.

Each workload turns the benchmark seed into a fixed list of operations.  The
seed changes values (sampling seeds, grid ends, parameters, coefficients,
request order), never the number or kind of operations.  The program only
ever receives argv, files and expression strings.  All inputs stay strictly
inside the chart boxes and off the singular loci:

    so3        theta in (0.01, pi - 0.01), phi in (0.05, 6.2), r in (1, 2)
    bianchi2   v in (-0.9, 0.9), y in (-1, 1), z in (-1, 1)
"""

from __future__ import annotations

import random
from fractions import Fraction

SO3_L = 2
GRID_N = 100
CUBE_N = 20
POINT_SERIES = (3, 1)  # (n, m): the profile is the first v-derivative of (1+v^2)^(5/2)
SESSION_FAMILY_L = 6
SESSION_HARMONIC_L = (7, 9, 10, 12)
LADDER_MOVES = ((3, 1, 0, 1), (3, 1, 2, 1), (3, -1, -2, -1), (4, 2, 0, -1), (2, 0, 2, 1),
                (3, 0, -3, -1))
IDENTITY_BOX = {"u": [0.1, 1.4], "w": [0.2, 0.9]}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _dec(x: float, digits: int = 3) -> str:
    return f"{x:.{digits}f}"


def _frac(rng, lo: int = 1, hi: int = 9, dens=(1, 2, 3, 4)) -> Fraction:
    num = rng.randint(lo, hi) * rng.choice((-1, 1))
    return Fraction(num, rng.choice(dens))


def _paren(f: Fraction) -> str:
    return f"({f})"


def cli_seed(seed: int) -> str:
    return str(seed % 100_003)


def tensor_cert(seed: int, l: int = SO3_L) -> list[dict]:
    """Cold CLI: a certified type-(0,2) family, then its re-certification."""
    s = cli_seed(seed)
    return [
        {"argv": ["harmonics", "so3", "--type", "2,0", "--l", str(l), "--seed", s,
                  "--out", "family.json"], "models": "so3", "out": "family.json",
         "check": {"kind": "tensor20", "l": l}},
        {"argv": ["verify", "--family", "family.json", "--seed", s, "--out", "verify.json"],
         "models": "so3", "out": "verify.json", "check": {"kind": "verify-family", "of": 0}},
    ]


def hyper_params(rng, odd: bool) -> dict:
    mu = rng.uniform(-0.6, 0.6)
    nu = rng.uniform(-1.0, 1.0)
    sigma = rng.uniform(0.25, 3.0)
    p = {"mu": _dec(mu, 2), "nu": _dec(nu, 2)}
    p["lam"] = _dec(float(Fraction(p["nu"]) ** 2) + sigma, 4)
    p["A"] = _dec(rng.uniform(0.5, 1.5), 2)
    p["B"] = _dec(rng.uniform(0.2, 1.0), 2) if odd else "0"
    return p


def numeric_export(seed: int, grid_n: int = GRID_N, cube_n: int = CUBE_N) -> list[dict]:
    """Cold CLI: grid exports of an so3 scalar family and a bianchi2 point
    series, plus four continuous-spectrum families.  Signed values go as
    --opt=value, since argparse reads "-3/2" as an option."""
    rng = _rng("numeric-export", seed)
    s = cli_seed(seed)
    th = (rng.uniform(0.05, 0.4), rng.uniform(2.7, 3.05))
    ph = (rng.uniform(0.06, 0.5), rng.uniform(5.6, 6.15))
    grid_so3 = {"theta": (_dec(th[0], 4), _dec(th[1], 4), grid_n),
                "phi": (_dec(ph[0], 4), _dec(ph[1], 4), grid_n)}
    ops = [{
        "argv": ["harmonics", "so3", "--l", str(SO3_L), "--seed", s]
        + _grid_args(grid_so3) + ["--out", "so3_grid.json"],
        "models": "so3", "out": "so3_grid.json",
        "check": {"kind": "so3-scalar-grid", "l": SO3_L, "grid": grid_so3},
    }]
    n, m = POINT_SERIES
    nu = _frac(rng)
    grid_b2 = {
        "v": (_dec(rng.uniform(-0.88, -0.6), 4), _dec(rng.uniform(0.6, 0.88), 4), cube_n),
        "y": (_dec(rng.uniform(-0.95, -0.6), 4), _dec(rng.uniform(0.6, 0.95), 4), cube_n),
        "z": (_dec(rng.uniform(-0.95, -0.6), 4), _dec(rng.uniform(0.6, 0.95), 4), cube_n),
    }
    ops.append({
        "argv": ["harmonics", "bianchi2", "--point-series", "--n", str(n), "--m", str(m),
                 f"--nu={nu}", "--seed", s] + _grid_args(grid_b2)
        + ["--out", "point_series.json"],
        "models": "bianchi2", "out": "point_series.json",
        "check": {"kind": "point-series-grid", "n": n, "m": m, "nu": str(nu), "grid": grid_b2},
    })
    for k, odd in enumerate((False, True, False, True)):
        p = hyper_params(rng, odd)
        ops.append({
            "argv": ["harmonics", "bianchi2", "--hyper"]
            + [f"--{key}={p[key]}" for key in ("mu", "nu", "lam", "A", "B")]
            + ["--seed", s, "--out", f"hyper{k}.json"],
            "models": "bianchi2", "out": f"hyper{k}.json",
            "check": {"kind": "hypergeometric", **p},
        })
    return ops


def _grid_args(grid: dict) -> list[str]:
    out = []
    for name, (a, b, n) in grid.items():
        out += ["--grid", f"{name}={a}:{b}:{n}"]
    return out


# --- library session --------------------------------------------------------------


def _identities(rng) -> list[dict]:
    """is_zero inputs with known answers: symbolic-only identities, identities
    the kernel can only settle by sampling, and small perturbations of those."""
    a, b, c = _frac(rng), _frac(rng), _frac(rng)
    k = rng.randint(1, 3)
    symbolic = [
        f"({a}*u + {b})^2 - {_paren(a * a)}*u^2 - {_paren(2 * a * b)}*u - {_paren(b * b)}",
        f"exp({a}*u)*exp({b}*w) - exp({a}*u + {b}*w)",
        f"(u + {_paren(a)})*(w - {_paren(b)}) - u*w + {_paren(b)}*u - {_paren(a)}*w "
        f"+ {_paren(a * b)}",
        f"sin({k}*u)^2 + cos({k}*u)^2 - 1",
    ]
    numeric = [
        f"{_paren(c)}*(sin({2 * k}*u) - 2*sin({k}*u)*cos({k}*u))",
        f"{_paren(c)}*(cos({2 * k}*u) - 2*cos({k}*u)^2 + 1)",
        f"{_paren(c)}*(sin({k}*u + {b}*w) - sin({k}*u)*cos({b}*w) - cos({k}*u)*sin({b}*w))",
        f"{_paren(c)}*(sin({3 * k}*u) - 3*sin({k}*u) + 4*sin({k}*u)^3)",
    ]
    out = [{"expr": e, "expect": "zero", "class": "symbolic"} for e in symbolic]
    out += [{"expr": e, "expect": "zero", "class": "numeric"} for e in numeric]
    for e in numeric:
        eps = Fraction(rng.randint(1, 9), 10_000)
        out.append({"expr": f"{e} + {_paren(eps)}*u^2", "expect": "nonzero", "class": "perturbed"})
    return out


def _polynomial_covector(rng, coords) -> list[str]:
    """Degree-2 polynomial components with a fixed shape and seeded coefficients."""
    x, y, z = coords
    shape = ("1", x, f"{y}*{z}", f"{x}^2")
    return [" + ".join(f"{_paren(_frac(rng))}*{t}" for t in shape) for _ in range(3)]


def library_session(seed: int) -> list[dict]:
    """One warm process: scalar families and repeated harmonic requests,
    ladder moves, bianchi2 families, commutation checks and zero tests."""
    rng = _rng("library-session", seed)
    s = seed % 100_003
    ops = [{"call": "scalar_family", "l": SESSION_FAMILY_L}]
    for l in SESSION_HARMONIC_L:
        for m in (l, 0, -1, 0):  # (l, 0) is requested twice
            ops.append({"call": "scalar_harmonic", "l": l, "m": m})
    for l, n, m, step in LADDER_MOVES:
        ops.append({"call": "apply_ladder", "l": l, "n": n, "m": m, "s": step})
    for n in (1, -2, 1):  # the repeat is served from the model's operator cache
        ops.append({"call": "reduced_operator", "n": n})
    nu_a, nu_b = _frac(rng), _frac(rng)
    ops.append({"call": "point_series", "n": 3, "m": 1, "nu": str(nu_a)})
    ops.append({"call": "point_series", "n": 2, "m": 0, "nu": str(nu_b)})
    ops.append({"call": "covector_harmonic", "n": 2, "m": 0, "nu": str(nu_a)})
    ops.append({"call": "covector_harmonic", "n": 3, "m": 1, "nu": str(nu_b)})
    p = hyper_params(rng, odd=True)
    ops.append({"call": "hypergeometric_harmonic", "mu": float(p["mu"]), "nu": float(p["nu"]),
                "lam": float(p["lam"]), "A": float(p["A"]), "B": float(p["B"]), "check": p})
    for j in range(3):
        ops.append({"call": "check_commutes", "model": "bianchi2", "j": j,
                    "components": _polynomial_covector(rng, ("v", "y", "z"))})
    ops.append({"call": "check_commutes", "model": "so3", "j": 0,
                "components": _polynomial_covector(rng, ("r", "theta", "phi"))})
    for ident in _identities(rng):
        ops.append({"call": "is_zero", "box": IDENTITY_BOX, **ident})
    rng.shuffle(ops)
    for op in ops:
        op["seed"] = s
    return ops


WORKLOADS = {
    "tensor-cert": tensor_cert,
    "numeric-export": numeric_export,
    "library-session": library_session,
}
