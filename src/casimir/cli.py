"""Command-line surface.

Commands: verify, build-metric, harmonics, reduce, residual.  Reports are
JSON with per-check verdicts and a digest that is byte-stable for fixed
inputs and seed (timings are excluded from the digest).  Exit codes:
0 all checks pass, 1 check failure, 2 input/schema error, 3 solver
limitation.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import evalcore
from . import expr as ex
from .lie_algebra import (
    DegenerateCartanError,
    cartan_tensor,
    invert_cartan,
    validate,
)
from .modelio import SchemaError, load_family, load_model
from .models import bianchi2_model, so3_model
from .operator import CasimirOperator, assemble_from_json, certify_eigen, reduce_to_scalar
from .parser import ParseError, parse
from .report import Report, Stopwatch, format_number
from .split_structure import (
    DualityError,
    NoClosedFormError,
    NotEigenFrameError,
    NotSimplyTransitiveError,
    compute_mu,
    frame_from_components,
    frame_from_vectors,
    mat_inverse,
    mat_mul,
    metric_from_exprs,
    metric_from_frame,
    solve_invariant_frame,
)
from .tensor_fields import TensorField, verify_realization

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_LIMIT = 3


def _seed_default() -> int:
    try:
        return int(os.environ.get("CASIMIR_SEED", "0"))
    except ValueError:
        return 0


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casimir",
        description="Generalized Casimir operators and certified tensor harmonics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: CASIMIR_SEED or 0)")
    common.add_argument("--out", help="write the report/family to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="verify a model file or re-certify a family file")
    v.add_argument("--model")
    v.add_argument("--family")

    b = sub.add_parser("build-metric", parents=[common],
                       help="build the invariant metric for a model")
    b.add_argument("--model", required=True)

    h = sub.add_parser("harmonics", parents=[common], help="generate certified harmonic families")
    h.add_argument("model", choices=("so3", "bianchi2"))
    h.add_argument("--type", dest="tensor_type", help="tensor type, e.g. 2,0")
    h.add_argument("--l", type=int)
    h.add_argument("--m", type=int)
    h.add_argument("--point-series", action="store_true")
    h.add_argument("--hyper", action="store_true")
    h.add_argument("--n", type=int)
    h.add_argument("--nu", default=None)
    h.add_argument("--mu", default=None)
    h.add_argument("--lam", default=None)
    h.add_argument("--A", default="1")
    h.add_argument("--B", default="0")
    h.add_argument("--grid", action="append", default=[], metavar="coord=a:b:n")

    r = sub.add_parser("reduce", parents=[common],
                       help="print the reduced scalar operator for a monomial")
    r.add_argument("--model", required=True)
    r.add_argument("--upper", default="")
    r.add_argument("--lower", default="")

    s = sub.add_parser("residual", parents=[common],
                       help="certify a user-supplied tensor as an eigenfunction")
    s.add_argument("--model", required=True)
    s.add_argument("--tensor", required=True)
    s.add_argument("--eigenvalue", required=True)
    return ap


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if bool(args.model) == bool(args.family):
        raise SchemaError("verify needs exactly one of --model or --family")
    if args.family:
        return _verify_family(args)
    seed = args.seed
    spec = load_model(args.model)
    rep = Report("verify", {"model": args.model, "source": spec.source}, seed)
    with Stopwatch(rep, "total"):
        val = validate(spec.constants)
        rep.add_check("structure-constants", val.ok, **val.to_json())
        real = verify_realization(spec.generators, spec.constants, seed)
        rep.add_check("realization", real.ok, **real.to_json())
        if spec.frame_vectors is not None:
            try:
                if spec.frame_covectors is not None:
                    from .tensor_fields import one_form

                    covs = [one_form(spec.chart, row) for row in spec.frame_covectors]
                    frame = frame_from_components(
                        spec.chart, spec.frame_vectors, covs, spec.frame_names, seed=seed
                    )
                else:
                    frame = frame_from_vectors(
                        spec.chart, spec.frame_vectors, spec.frame_names, seed=seed
                    )
                mu = compute_mu(frame, spec.generators, spec.constants, seed=seed)
                rep.add_check("frame", True, mu=[[ex.unparse(e) for e in row] for row in mu.mu])
            except (NotEigenFrameError, DualityError, NoClosedFormError, NotSimplyTransitiveError) as e:
                rep.add_check("frame", False, error=str(e))
        if spec.metric is not None:
            metric = metric_from_exprs(spec.metric, spec.constants, spec.generators, seed=seed)
            rep.add_check(
                "killing-condition",
                metric.killing_ok(),
                rank=metric.rank,
                residuals=[r.to_json() for r in metric.killing],
            )
    _emit(args, rep.render())
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _verify_family(args) -> int:
    seed = args.seed
    doc = load_family(args.family)
    rep = Report("verify-family", {"family": args.family, "model": doc["model"], "kind": doc["kind"]}, seed)
    with Stopwatch(rep, "total"):
        with _as_input_error("malformed family document"):
            stored = {c["name"]: c.get("verdict", "ok" if c.get("ok") else "failed") for c in doc["certificates"]}
        recomputed = _recertify(doc, seed)
        for name, verdict in recomputed.items():
            if name in stored:
                rep.add_check(
                    f"recertify: {name}",
                    verdict == stored[name],
                    stored=stored[name],
                    recomputed=verdict,
                )
            else:
                rep.add_check(f"recertify: {name}", False, error="no stored certificate")
    _emit(args, rep.render())
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


@contextmanager
def _as_input_error(what: str):
    """Report a missing, wrongly typed or unparsable input field as a
    SchemaError (exit code 2)."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, ParseError) as e:
        raise SchemaError(f"{what}: {e}") from None


def _recertify(doc: dict, seed: int) -> dict:
    """Recompute every certificate of a family document.

    All document fields are read first, under `_as_input_error`; errors raised
    while certifying propagate unchanged."""
    model_name = doc["model"]
    kind = doc["kind"]
    out: dict[str, str] = {}
    if model_name == "so3":
        model = so3_model()
        with _as_input_error("malformed family document"):
            lam = parse(doc["eigenvalues"]["G"], [], [])
            if kind == "scalar":
                comps = [
                    (int(key.split("m=")[1]), parse(comp, model.sphere.coords))
                    for key, comp in doc["components"].items()
                ]
            elif kind == "tensor20":
                tensors = [
                    (tag, assemble_from_json(model.frame, monos))
                    for tag, monos in doc.get("assemblies", {}).items()
                ]
        if kind == "scalar":
            for m, t in comps:
                for c in model.scalar_certificates(t, lam, m, seed):
                    out[f"{c.name} m={m}"] = c.payload.verdict.value
        elif kind == "tensor20":
            for tag, tens in tensors:
                res = certify_eigen(model.op_space, tens, lam, seed)
                verdict = "ok" if res.ok else "failed"
                out[f"casimir-eigenvalue {tag}"] = verdict
        else:
            raise SchemaError(f"unknown so3 family kind {kind!r}")
    elif model_name == "bianchi2":
        model = bianchi2_model()
        with _as_input_error("malformed family document"):
            lam = parse(doc["eigenvalues"]["G"], [], [])
            comps = [parse(comp, model.chart.coords, []) for comp in doc["components"].values()]
            tensors = [
                (tag, assemble_from_json(model.frame, monos))
                for tag, monos in doc.get("assemblies", {}).items()
            ]
            if kind == "hypergeometric":
                lab = doc["labels"]
                labels = [
                    _parse_float(lab.get(k, default), f"label {k!r}")
                    for k, default in (("mu", None), ("nu", None), ("lambda", None), ("A", 1), ("B", 0))
                ]
        for t in comps:
            out["casimir-eigenvalue"] = model.casimir_certificate(t, lam, seed).payload.verdict.value
        for tag, tens in tensors:
            res = certify_eigen(model.op, tens, lam, seed)
            out[f"casimir-eigenvalue {tag}"] = "ok" if res.ok else "failed"
        if kind == "hypergeometric":
            fam = model.hypergeometric_harmonic(*labels, seed=seed)
            c = fam.certificates[0]
            out["radial-equation-residual"] = c.payload["verdict"]
    else:
        raise SchemaError(f"family re-certification supports built-in models, not {model_name!r}")
    return out


# --- build-metric --------------------------------------------------------------


def cmd_build_metric(args) -> int:
    seed = args.seed
    spec = load_model(args.model)
    rep = Report("build-metric", {"model": args.model, "source": spec.source}, seed)
    with Stopwatch(rep, "total"):
        val = validate(spec.constants)
        rep.add_check("structure-constants", val.ok)
        if not val.ok:
            _emit(args, rep.render())
            return EXIT_CHECK_FAILED
        ct = cartan_tensor(spec.constants)
        rep.add_section(
            "cartan",
            {
                "tensor": [[str(v) for v in row] for row in ct.g],
                "rank": ct.rank,
                "degenerate": ct.is_degenerate,
            },
        )
        try:
            cm = invert_cartan(ct, spec.constants)
            rep.add_check("killing-condition", cm.killing_ok, provenance=cm.provenance)
            gmat = [[str(v) for v in row] for row in cm.g_inv]
        except DegenerateCartanError:
            try:
                fs = solve_invariant_frame(spec.constants, spec.generators, seed=seed)
            except (NoClosedFormError, NotSimplyTransitiveError) as e:
                if spec.frame_vectors is not None:
                    gmat = _metric_from_user_frame(spec, rep, seed)
                else:
                    rep.add_check("invariant-frame", False, error=str(e))
                    rep.add_section(
                        "guidance",
                        "no closed-form invariant frame; supply a frame block in the model file",
                    )
                    _emit(args, rep.render())
                    return EXIT_SOLVER_LIMIT
            else:
                rep.add_check("invariant-frame", fs.ok(), base_point={k: str(v) for k, v in fs.base_point.items()})
                metric = metric_from_frame(fs.L, spec.constants, spec.generators, seed=seed)
                rep.add_check("killing-condition", metric.killing_ok(), rank=metric.rank,
                              provenance=metric.provenance)
                gmat = [[ex.unparse(e) for e in row] for row in metric.g]
        rep.add_section("metric", gmat)
    _emit(args, rep.render())
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _metric_from_user_frame(spec, rep, seed) -> list:
    frame = frame_from_vectors(spec.chart, spec.frame_vectors, spec.frame_names, seed=seed)
    mu = compute_mu(frame, spec.generators, spec.constants, seed=seed)
    if any(e != ex.ZERO for row in mu.mu for e in row):
        raise NoClosedFormError("supplied frame is not invariant; cannot build the metric from it")
    # e_d = L^a_d xi_a  =>  E = L^T Xi
    ximat = [list(g.comps) for g in spec.generators]
    emat = [list(v.comps) for v in frame.vectors]
    lmat_t = [[ex.simplify(e) for e in row] for row in mat_mul(emat, mat_inverse(ximat))]
    metric = metric_from_frame(list(zip(*lmat_t)), spec.constants, spec.generators, seed)
    rep.add_check("invariant-frame", True, provenance="user-supplied")
    rep.add_check("killing-condition", metric.killing_ok(), rank=metric.rank,
                  provenance=metric.provenance)
    return [[ex.unparse(e) for e in row] for row in metric.g]


# --- harmonics -----------------------------------------------------------------


def _parse_rational(text, what):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{what} must be rational, got {text!r}") from None


def _parse_float(text, what):
    """A rational label as the float the numeric families take."""
    try:
        return float(_parse_rational(text, what))
    except OverflowError:
        raise SchemaError(f"{what} is out of floating-point range, got {text!r}") from None


def cmd_harmonics(args) -> int:
    seed = args.seed
    if args.model == "so3":
        model = so3_model()
        chart = model.sphere
        _grid_points(chart, args.grid)
        if args.l is None:
            raise SchemaError("harmonics so3 needs --l")
        if args.l < 0 or (args.m is not None and abs(args.m) > args.l):
            print(f"labels out of range: l={args.l}, m={args.m}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        m_values = None if args.m is None else [args.m]
        if args.tensor_type:
            if args.tensor_type.replace(" ", "") not in ("2,0", "0,2"):
                raise SchemaError(f"unsupported tensor type {args.tensor_type!r}")
            fam = model.tensor20_harmonic(args.l, m_values=m_values, seed=seed)
        else:
            fam = model.scalar_family(args.l, m_values=m_values, seed=seed)
    else:
        model = bianchi2_model()
        chart = model.chart
        _grid_points(chart, args.grid)
        if args.hyper:
            if args.mu is None or args.nu is None or args.lam is None:
                raise SchemaError("hyper families need --mu --nu --lam")
            labels = [_parse_float(getattr(args, k), f"--{k}") for k in ("mu", "nu", "lam", "A", "B")]
            fam = model.hypergeometric_harmonic(*labels, seed=seed)
        elif args.point_series:
            if args.n is None or args.m is None or args.nu is None:
                raise SchemaError("point series needs --n --m --nu")
            try:
                fam = model.point_series(args.n, args.m, _parse_rational(args.nu, "--nu"), seed=seed)
            except ValueError as e:
                print(str(e), file=sys.stderr)
                return EXIT_CHECK_FAILED
        else:
            raise SchemaError("harmonics bianchi2 needs --point-series or --hyper")
    doc = fam.to_json()
    doc["seed"] = seed
    if args.grid:
        samples = _grid_samples(fam, chart, args.grid)
        doc["samples"] = samples
        if args.format == "csv":
            _emit(args, _samples_csv(samples))
            return EXIT_OK if fam.ok else EXIT_CHECK_FAILED
    _emit(args, json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if fam.ok else EXIT_CHECK_FAILED


def _grid_points(chart, grid_specs) -> tuple:
    """Parse --grid specs into (coordinate names, points in chart order).

    Needs only the chart, so a bad grid is refused before a family is built."""
    axes = {}
    for spec in grid_specs:
        try:
            name, rng = spec.split("=")
            a, b, n = rng.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise SchemaError(f"bad --grid spec {spec!r}; expected coord=a:b:n") from None
        if name not in chart.coords:
            raise SchemaError(f"--grid names unknown coordinate {name!r}")
        if n < 1:
            raise SchemaError("--grid needs at least one point")
        axes[name] = [a + (b - a) * j / max(n - 1, 1) for j in range(n)]
    names = [c for c in chart.coords if c in axes]
    pts = list(itertools.product(*[axes[n] for n in names]))
    # The kernel's rewrites hold on the side of each singular locus where the
    # sampling box lies, so every grid point must be strictly on that side.
    centre = {c: (lo + hi) / 2 for c, (lo, hi) in chart.box.items()}
    for locus in chart.singular_loci:
        if not ex.free_symbols(locus) <= set(names):
            continue  # no component may depend on a coordinate left out (see _grid_samples)
        side = ex.evaluate(locus, centre).real > 0
        for pt, val in zip(pts, evalcore.compile_expr(locus, names).run(pts)):
            if abs(val) <= 1e-9 or (val.real > 0) != side:
                where = ", ".join(f"{c}={v:g}" for c, v in zip(names, pt))
                raise SchemaError(f"--grid point {where} lies on or beyond the singular locus {ex.unparse(locus)} = 0")
    return names, pts


def _grid_samples(fam, chart, grid_specs) -> dict:
    names, pts = _grid_points(chart, grid_specs)
    for label, comp in sorted(fam.components.items()):
        missing = sorted(ex.free_symbols(comp) - set(names))
        if missing:
            raise SchemaError(f"component {label!r} depends on {missing}; add a --grid for each")
    columns = list(names)
    rows = [[format_number(v) for v in pt] for pt in pts]
    for label, comp in sorted(fam.components.items()):
        try:
            vals = evalcore.compile_expr(comp, names).run(pts)
        except (ArithmeticError, ex.EvalError) as e:
            raise SchemaError(f"component {label!r} cannot be evaluated on the --grid: {e}") from None
        if not all(cmath.isfinite(v) for v in vals):
            raise SchemaError(f"component {label!r} is not finite on the --grid")
        columns.append(f"{label}.re")
        columns.append(f"{label}.im")
        for row, val in zip(rows, vals):
            row.append(format_number(val.real))
            row.append(format_number(val.imag))
    return {"columns": columns, "rows": rows}


def _samples_csv(samples: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(samples["columns"])
    w.writerows(samples["rows"])
    return buf.getvalue().rstrip("\n")


# --- reduce ---------------------------------------------------------------------


def _leg_indices(text: str, names: tuple) -> tuple:
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if part not in names:
            raise SchemaError(f"unknown frame leg {part!r}; expected one of {list(names)}")
        out.append(names.index(part))
    return tuple(out)


def cmd_reduce(args) -> int:
    seed = args.seed
    if args.model == "so3":
        op = so3_model().op_ladder
    elif args.model == "bianchi2":
        op = bianchi2_model().op
    else:
        spec = load_model(args.model)
        if spec.frame_vectors is None or spec.metric is None:
            raise SchemaError("reduce on user models needs both a frame and a metric in the file")
        frame = frame_from_vectors(spec.chart, spec.frame_vectors, spec.frame_names, seed=seed)
        mu = compute_mu(frame, spec.generators, spec.constants, seed=seed)
        op = CasimirOperator(spec.name, spec.chart, spec.generators, spec.metric, frame, mu)
    upper = _leg_indices(args.upper, op.frame.names)
    lower = _leg_indices(args.lower, op.frame.names)
    reduced = reduce_to_scalar(op, upper, lower)
    rep = Report("reduce", {"model": args.model, "upper": list(args.upper), "lower": list(args.lower)}, seed)
    rep.add_check("reduced-operator", True, order=reduced.order())
    rep.add_section("operator", reduced.to_json())
    rep.add_section("pretty", reduced.pretty())
    _emit(args, rep.render())
    return EXIT_OK


# --- residual ---------------------------------------------------------------------


def cmd_residual(args) -> int:
    seed = args.seed
    if args.model == "so3":
        op = so3_model().op_space
    elif args.model == "bianchi2":
        op = bianchi2_model().op
    else:
        raise SchemaError("residual supports the built-in models so3 and bianchi2")
    path = Path(args.tensor)
    if not path.exists():
        raise SchemaError(f"tensor file {args.tensor!r} not found")
    with _as_input_error("bad eigenvalue"):
        lam = parse(str(args.eigenvalue), [], [])
    with _as_input_error("bad tensor file"):
        doc = json.loads(path.read_text())
        if "monomials" in doc:
            tens = assemble_from_json(op.frame, doc["monomials"])
        else:
            p, q = doc["type"]
            comps = tuple(parse(s, op.chart.coords, []) for s in doc["components"])
            tens = TensorField(op.chart, p, q, comps)
    res = certify_eigen(op, tens, lam, seed)
    rep = Report("residual", {"model": args.model, "tensor": args.tensor,
                              "eigenvalue": ex.unparse(lam)}, seed)
    rep.add_check("eigen-residual", res.ok, **res.to_json())
    _emit(args, rep.render())
    return EXIT_OK if res.ok else EXIT_CHECK_FAILED


# --- entry ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = _seed_default()
    commands = {"verify": cmd_verify, "build-metric": cmd_build_metric, "harmonics": cmd_harmonics,
                "reduce": cmd_reduce, "residual": cmd_residual}
    try:
        return commands[args.command](args)
    except SchemaError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (NoClosedFormError, NotSimplyTransitiveError, evalcore.SeriesNotConvergedError) as e:
        print(f"solver limitation: {e}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT


def main_entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
