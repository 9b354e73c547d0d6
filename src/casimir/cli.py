"""Command-line surface.

Commands: verify, build-metric, harmonics, reduce, residual.  Reports are
JSON with per-check verdicts and a digest that is byte-stable for fixed
inputs and seed (timings are excluded from the digest).  Exit codes:
0 all checks pass, 1 check failure, 2 input/schema error, 3 solver
limitation.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext

from . import evalcore, models
from . import expr as ex
from .cnum import TrialDivisionError
from .lie_algebra import (
    DegenerateCartanError,
    cartan_tensor,
    invert_cartan,
    validate,
)
from .modelio import (BUILTIN_MODELS, POINT_SERIES_MAX, SchemaError, file_digest, load_family, load_model,
                      parse_label, parse_rational, read_json)
from .models.family import SeriesNotConvergedError, verdict
from .numcheck import UndefinedPointError
from .operator import CasimirOperator, assemble_from_json, certify_eigen, reduce_to_scalar
from .parser import ParseError, parse
from .report import Report, Stopwatch
from .split_structure import (
    DualityError,
    NoClosedFormError,
    NotEigenFrameError,
    NotSimplyTransitiveError,
    compute_mu,
    frame_from_components,
    frame_from_vectors,
    metric_from_exprs,
    metric_from_frame,
    pairing,
    solve_invariant_frame,
)
from .tensor_fields import OffChartError, TensorField, one_form, verify_realization

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_LIMIT = 3

# Largest so3 label `harmonics` accepts (modelio bounds the point series): the
# work grows steeply with it, and at this limit a family ends within minutes
# (README gives timings).
SO3_MAX_L = 32
# Largest product of --grid axis lengths: an export holds the float parts of
# every value at once, 0.37 KB per point for the five so3 --l 2 components.
GRID_MAX_POINTS = 250_000

# the errors of a model file's frame, reported as a failed check rather than raised
FRAME_ERRORS = (NotEigenFrameError, DualityError, NoClosedFormError, NotSimplyTransitiveError)

# the models whose family documents `verify --family` re-certifies
FAMILY_MODELS = ("so3", "bianchi2")


def _seed_default() -> int:
    text = os.environ.get("CASIMIR_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"CASIMIR_SEED must be an integer, got {text!r}") from None


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casimir",
        description="Generalized Casimir operators and certified tensor harmonics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: CASIMIR_SEED or 0)")
    common.add_argument("--out", help="write the report/family to this path instead of stdout")
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
    h.add_argument("--type", help="tensor type, e.g. 2,0")
    h.add_argument("--l", type=int)
    h.add_argument("--m", type=int)
    h.add_argument("--point-series", action="store_true", default=None)  # None: not given
    h.add_argument("--hyper", action="store_true", default=None)
    h.add_argument("--n", type=int)
    h.add_argument("--nu", default=None)
    h.add_argument("--mu", default=None)
    h.add_argument("--lam", default=None)
    h.add_argument("--A", default=None)  # --hyper defaults: A = 1, B = 0
    h.add_argument("--B", default=None)
    h.add_argument("--grid", action="append", default=[], metavar="coord=a:b:n")
    h.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv writes only the --grid samples")

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


def _emit(args, pieces):
    """Write the output's pieces in order, then a newline, to --out or stdout.
    Every check has run before: a refused command leaves no --out file."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as f:
        f.writelines(pieces)
        f.write("\n")


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if bool(args.model) == bool(args.family):
        raise SchemaError("verify needs exactly one of --model or --family")
    if args.family:
        return _verify_family(args)
    seed = args.seed
    spec = load_model(args.model)
    rep = Report("verify", {"model": _model_name(args.model, spec), "source": spec.source}, seed)
    with Stopwatch(rep, "total"):
        val = validate(spec.constants)
        rep.add_check("structure-constants", val.ok, **val.to_json())
        real = verify_realization(spec.generators, spec.constants, seed)
        rep.add_check("realization", real.ok, **real.to_json())
        _check_frame_and_metric(spec, rep, seed)
    _emit(args, [rep.render()])
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _model_name(ref: str, spec) -> str:
    """A built-in model by its name, a model file by the digest of its bytes."""
    return ref if ref in BUILTIN_MODELS else spec.source


def _spec_frame(spec, seed: int):
    """Scale factors of a model file's frame: its covectors when the file gives
    them, else the duals of its vectors.  Raises one of FRAME_ERRORS."""
    if spec.frame_covectors is not None:
        covs = [one_form(spec.chart, row) for row in spec.frame_covectors]
        frame = frame_from_components(spec.chart, spec.frame_vectors, covs, spec.frame_names, seed=seed)
    else:
        frame = frame_from_vectors(spec.chart, spec.frame_vectors, spec.frame_names, seed=seed)
    return compute_mu(frame, spec.generators, spec.constants, seed=seed)


def _check_frame_and_metric(spec, rep, seed: int):
    """Add the `frame` and `killing-condition` checks of what the model file
    gives; returns the frame's scale factors, or None."""
    mu = None
    if spec.frame_vectors is not None:
        try:
            mu = _spec_frame(spec, seed)
        except FRAME_ERRORS as e:
            rep.add_check("frame", False, error=str(e))
        else:
            rep.add_check("frame", True, mu=[[ex.unparse(e) for e in row] for row in mu.mu])
    if spec.metric is not None:
        metric = metric_from_exprs(spec.metric, spec.constants, spec.generators, seed=seed)
        rep.add_check(
            "killing-condition",
            metric.killing_ok(),
            rank=metric.rank,
            residuals=[r.to_json() for r in metric.killing],
        )
    return mu


def _verify_family(args) -> int:
    seed = args.seed
    doc, digest = load_family(args.family)
    rep = Report("verify-family", {"family": digest, "model": doc["model"], "kind": doc["kind"]}, seed)
    with Stopwatch(rep, "total"):
        with _as_input_error("malformed family document"):
            stored: dict[str, list] = {}
            for c in doc["certificates"]:
                stored.setdefault(c["name"], []).append(verdict(c))
        if doc["model"] not in FAMILY_MODELS:
            raise SchemaError(f"family re-certification supports built-in models, not {doc['model']!r}")
        with _as_input_error("malformed family document"):
            recertify = getattr(models, f"{doc['model']}_model")().recertifier(doc)
        seen: dict[str, int] = {}
        # a document may hold several certificates of one name (a tensor's and
        # its scalar's); the k-th recomputed one answers the k-th stored one
        for cert in recertify(seed):
            name, got = cert.name, verdict(cert.to_json())
            k = seen[name] = seen.get(name, 0) + 1
            label = f"recertify: {name}" + (f" #{k}" if k > 1 else "")
            if k <= len(stored.get(name, ())):
                want = stored[name][k - 1]
                rep.add_check(label, got == want, stored=want, recomputed=got)
            else:
                rep.add_check(label, False, error="no stored certificate")
        # a stored Casimir certificate that nothing recomputed was not verified
        for name, wants in stored.items():
            if str(name).startswith("casimir-eigenvalue"):
                for k in range(seen.get(name, 0) + 1, len(wants) + 1):
                    rep.add_check(f"recertify: {name}" + (f" #{k}" if k > 1 else ""), False,
                                  error="not recomputed")
        if not rep.checks:
            raise SchemaError("the family document has nothing to recertify")
    _emit(args, [rep.render()])
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


@contextmanager
def _as_input_error(what: str):
    """Report a missing, wrongly typed or unparsable input field as a
    SchemaError (exit code 2)."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, ParseError) as e:
        raise SchemaError(f"{what}: {e}") from None


# --- build-metric --------------------------------------------------------------


def cmd_build_metric(args) -> int:
    seed = args.seed
    spec = load_model(args.model)
    rep = Report("build-metric", {"model": _model_name(args.model, spec), "source": spec.source}, seed)
    with Stopwatch(rep, "total"):
        val = validate(spec.constants)
        rep.add_check("structure-constants", val.ok)
        if not val.ok:
            _emit(args, [rep.render()])
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
            rep.add_section("metric", [[str(v) for v in row] for row in cm.g_inv])
        except DegenerateCartanError:
            try:
                fs = solve_invariant_frame(spec.constants, spec.generators, seed=seed)
            except (NoClosedFormError, NotSimplyTransitiveError) as e:
                # a wrong realization is the input's fault, not the solver's
                real = verify_realization(spec.generators, spec.constants, seed)
                if not real.ok:
                    rep.add_check("realization", False, **real.to_json())
                    _emit(args, [rep.render()])
                    return EXIT_CHECK_FAILED
                if spec.frame_vectors is None:
                    rep.add_check("invariant-frame", False, error=str(e))
                    rep.add_section(
                        "guidance",
                        "no closed-form invariant frame; supply a frame block in the model file",
                    )
                    _emit(args, [rep.render()])
                    return EXIT_SOLVER_LIMIT
                lmat = _user_frame_coefficients(spec, rep, seed)
            else:
                rep.add_check("invariant-frame", True, base_point=dict.fromkeys(spec.chart.coords, "0"))
                lmat = fs.L
            if lmat is not None:
                metric = metric_from_frame(lmat, spec.constants, spec.generators, seed=seed)
                rep.add_check("killing-condition", metric.killing_ok(), rank=metric.rank,
                              provenance=metric.provenance)
                rep.add_section("metric", [[ex.unparse(e) for e in row] for row in metric.g])
    _emit(args, [rep.render()])
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _user_frame_coefficients(spec, rep, seed) -> list | None:
    """The coefficients L of the model file's frame, e_d = L^a_d xi_a, or
    None after a failed `invariant-frame` check.  Each is a pairing
    L^a_d = <theta^a, e_d> with the generators' dual coframe theta, which
    `frame_from_vectors` inverts and certifies."""
    try:
        mu = _spec_frame(spec, seed)
    except FRAME_ERRORS as e:
        rep.add_check("invariant-frame", False, error=str(e))
        return None
    if not mu.invariant():
        rep.add_check("invariant-frame", False,
                      error="supplied frame is not invariant: its scale factors are not all zero")
        return None
    try:
        coframe = frame_from_vectors(spec.chart, spec.generators, seed=seed).covectors
    except DualityError:
        n, dim = len(spec.generators), spec.chart.dim
        error = (f"the generators are not a basis: {n} of them on a {dim}-dimensional chart" if n != dim
                 else "the generators are dependent: their matrix is singular")
        rep.add_check("invariant-frame", False, error=error)
        return None
    rep.add_check("invariant-frame", True, provenance="user-supplied")
    return [[ex.simplify(pairing(theta, e)) for e in mu.frame.vectors] for theta in coframe]


# --- harmonics -----------------------------------------------------------------


def _refuse_other_flags(args, family: str, takes: str):
    """Refuse each label flag given that `family` does not take; `takes` names the ones it does."""
    for k in "type l m point_series hyper n nu mu lam A B".split():
        if k not in takes.split() and getattr(args, k) is not None:
            raise SchemaError(f"--{k.replace('_', '-')} does not apply to harmonics {family}")


def cmd_harmonics(args) -> int:
    seed = args.seed
    if args.format == "csv" and not args.grid:
        raise SchemaError("--format csv writes the --grid samples; give at least one --grid")
    if args.model == "so3":
        _refuse_other_flags(args, "so3", "type l m")
        model = models.so3_model()
        grid = _grid_points(model.sphere, args.grid)
        if args.l is None:
            raise SchemaError("harmonics so3 needs --l")
        if max(abs(args.l), abs(args.m or 0)) > sys.maxsize:
            raise SchemaError(f"so3 labels must lie in the machine integer range, |--l|, |--m| <= {sys.maxsize}")
        if args.l > SO3_MAX_L:
            raise SchemaError(f"so3 --l above {SO3_MAX_L} is refused, got {args.l}")
        if args.type and args.type.replace(" ", "") not in ("2,0", "0,2"):
            raise SchemaError(f"unsupported tensor type {args.type!r}")
        build = model.tensor20_harmonic if args.type else model.scalar_family
        try:
            fam = build(args.l, m_values=None if args.m is None else [args.m], seed=seed)
        except ValueError as e:  # labels outside the weight-l family
            print(str(e), file=sys.stderr)
            return EXIT_CHECK_FAILED
    else:
        model = models.bianchi2_model()
        grid = _grid_points(model.chart, args.grid)
        if args.hyper:
            _refuse_other_flags(args, "bianchi2 --hyper", "hyper mu nu lam A B")
            if args.grid:
                raise SchemaError("--grid samples symbolic components, and a --hyper family has none")
            if args.mu is None or args.nu is None or args.lam is None:
                raise SchemaError("hyper families need --mu --nu --lam")
            labels = [parse_label(v, f"--{k}") for k, v in (("mu", args.mu), ("nu", args.nu), ("lam", args.lam),
                      ("A", "1" if args.A is None else args.A), ("B", "0" if args.B is None else args.B))]
            fam = model.hypergeometric_harmonic(*labels, seed=seed)
        elif args.point_series:
            _refuse_other_flags(args, "bianchi2 --point-series", "point_series n m nu")
            if args.n is None or args.m is None or args.nu is None:
                raise SchemaError("point series needs --n --m --nu")
            if max(args.n, args.n - args.m) > POINT_SERIES_MAX:
                raise SchemaError(f"point series --n and --n - --m above {POINT_SERIES_MAX} are refused, "
                                  f"got --n {args.n}, --m {args.m}")
            try:
                fam = model.point_series(args.n, args.m, parse_rational(args.nu, "--nu"), seed=seed)
            except ValueError as e:
                print(str(e), file=sys.stderr)
                return EXIT_CHECK_FAILED
        else:
            raise SchemaError("harmonics bianchi2 needs --point-series or --hyper")
    doc = fam.to_json()
    doc["seed"] = seed
    if not args.grid:
        _emit(args, [json.dumps(doc, indent=2, sort_keys=True)])
    else:
        names, axes = grid
        columns, values = _grid_samples(fam, names, axes)
        _emit(args, _samples_csv(columns, axes, values) if args.format == "csv"
              else _samples_json(doc, columns, axes, values))
    return EXIT_OK if fam.ok else EXIT_CHECK_FAILED


def _grid_points(chart, grid_specs) -> tuple:
    """Parse --grid specs into (coordinate names, their axes), each in chart
    order, once every point of the axes' product passes `Chart.check_grid`.

    Needs only the chart, so a bad grid is refused before a family is built,
    and only the specs, so a grid too large is refused before its axes are."""
    specs = {}
    for spec in grid_specs:
        try:
            name, rng = spec.split("=")
            a, b, n = rng.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise SchemaError(f"bad --grid spec {spec!r}; expected coord=a:b:n") from None
        if name not in chart.coords:
            raise SchemaError(f"--grid names unknown coordinate {name!r}")
        if name in specs:
            raise SchemaError(f"--grid names coordinate {name!r} more than once")
        if n < 1:
            raise SchemaError("--grid needs at least one point")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise SchemaError(f"--grid bounds must be finite numbers, got {spec!r}")
        specs[name] = a, b, n
    names = [c for c in chart.coords if c in specs]
    total = math.prod(specs[c][2] for c in names)
    if total > GRID_MAX_POINTS:
        raise SchemaError(f"--grid asks for {total} points, more than the {GRID_MAX_POINTS} allowed")
    axes = [[a + (b - a) * j / max(n - 1, 1) for j in range(n)] for a, b, n in (specs[c] for c in names)]
    try:
        chart.check_grid(names, axes)
    except OffChartError as e:
        raise SchemaError(f"--grid {e}") from None
    return names, axes


def _grid_samples(fam, names, axes) -> tuple:
    """The sample columns, and per point of a grid already checked by
    `_grid_points` the real and imaginary part of each component's value, as
    the flat float rows of the grid program."""
    labels = sorted(fam.components)
    comps = tuple(fam.components[label] for label in labels)
    for label, comp in zip(labels, comps):
        missing = sorted(ex.free_symbols(comp) - set(names))
        if missing:
            raise SchemaError(f"component {label!r} depends on {missing}; add a --grid for each")
    try:
        values = evalcore.compile_expr(comps, names, grid=True).run(axes)
    except ArithmeticError:
        values = None
    if values is None or not _all_finite(values):
        _refuse_grid_component(labels, comps, names, axes)
    columns = list(names) + [f"{label}.{part}" for label in labels for part in ("re", "im")]
    return columns, values


def _all_finite(rows) -> bool:
    return all(map(math.isfinite, itertools.chain.from_iterable(rows)))


def _refuse_grid_component(labels, comps, names, axes):
    """Name the first component that cannot be evaluated, or is not finite, on
    the grid: the program of all components cannot say which one failed."""
    for label, comp in zip(labels, comps):
        try:
            vals = evalcore.compile_expr(comp, names, grid=True).run(axes)
        except ArithmeticError as e:
            raise SchemaError(f"component {label!r} cannot be evaluated on the --grid: {e}") from None
        if not _all_finite(vals):
            raise SchemaError(f"component {label!r} is not finite on the --grid")
    raise SchemaError("the components cannot be evaluated on the --grid")


# JSON-escaped NUL: `unparse` never writes a NUL, so it marks one place only
_ROWS_PLACEHOLDER = "\0"


def _samples_json(doc: dict, columns: list, axes: list, values: list):
    """The family document with its samples, in pieces, as `json.dumps(doc,
    indent=2, sort_keys=True)` would write rows of "%.17g" strings."""
    doc["samples"] = {"columns": columns, "rows": _ROWS_PLACEHOLDER}
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(json.dumps(_ROWS_PLACEHOLDER))
    rows = _sample_rows(axes, values, '\n        "%.17g"', start="      [", end="\n      ]", sep=",\n")
    return itertools.chain([head, "[\n"], rows, ["\n    ]", tail])


def _samples_csv(columns: list, axes: list, values: list):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(columns)  # quotes labels such as "n=0,m=-1.re"
    return itertools.chain([buf.getvalue()], _sample_rows(axes, values, "%.17g"))


def _sample_rows(axes: list, values: list, cell: str, start: str = "", end: str = "", sep: str = "\n"):
    """The sample rows as text, `sep` between rows: `start`, then the cells
    of the point's coordinates and values, each `cell` % float, between
    commas, then `end`.  A coordinate cell is formatted once per axis value
    and a row's value cells with one template."""
    cells = [[sep + start + cell % x for x in axes[0]]] + [["," + cell % x for x in axis] for axis in axes[1:]]
    template = ("," + cell) * len(values[0]) + end
    rows = map(str.__add__, map("".join, itertools.product(*cells)), map(template.__mod__, values))
    yield next(rows)[len(sep):]  # a row's first cell opens with `sep`, and no row comes before the first
    yield from rows


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
    """The report records the legs by their frame names, so every spelling
    of one leg list gives one digest."""
    seed = args.seed
    spec = None
    if args.model == "so3":
        op = models.so3_model().op_ladder
    elif args.model == "bianchi2":
        op = models.bianchi2_model().op
    else:
        spec = load_model(args.model)
        if spec.frame_vectors is None or spec.metric is None:
            raise SchemaError("reduce on user models needs both a frame and a metric in the file")
    names = op.mu.frame.names if spec is None else spec.frame_names
    upper = _leg_indices(args.upper, names)
    lower = _leg_indices(args.lower, names)
    rep = Report("reduce", {"model": args.model if spec is None else _model_name(args.model, spec),
                            "upper": [names[a] for a in upper], "lower": [names[b] for b in lower]}, seed)
    if spec is not None:
        mu = _check_frame_and_metric(spec, rep, seed)
        if not rep.ok:
            _emit(args, [rep.render()])
            return EXIT_CHECK_FAILED
        op = CasimirOperator(spec.name, spec.chart, spec.generators, spec.metric, mu)
    reduced = reduce_to_scalar(op, upper, lower)
    rep.add_check("reduced-operator", True, order=reduced.order())
    rep.add_section("operator", reduced.to_json())
    rep.add_section("pretty", reduced.pretty())
    _emit(args, [rep.render()])
    return EXIT_OK


# --- residual ---------------------------------------------------------------------


def cmd_residual(args) -> int:
    seed = args.seed
    if args.model == "so3":
        model = models.so3_model()
        op = model.op_space
    elif args.model == "bianchi2":
        model = models.bianchi2_model()
        op = model.op
    else:
        raise SchemaError("residual supports the built-in models so3 and bianchi2")
    doc, raw = read_json(args.tensor, f"tensor file {args.tensor!r} cannot be read")
    with _as_input_error("bad eigenvalue"):
        lam = parse(str(args.eigenvalue), [], [])
    with _as_input_error("bad tensor file"):
        if "monomials" in doc:
            tens = assemble_from_json(model.frame, doc["monomials"])
        else:
            p, q = doc["type"]
            comps = tuple(parse(s, op.chart.coords, []) for s in doc["components"])
            tens = TensorField(op.chart, p, q, comps)
    res = certify_eigen(op, tens, lam, seed)
    rep = Report("residual", {"model": args.model, "tensor": file_digest(raw),
                              "eigenvalue": ex.unparse(lam)}, seed)
    rep.add_check("eigen-residual", res.ok, **res.to_json())
    _emit(args, [rep.render()])
    return EXIT_OK if res.ok else EXIT_CHECK_FAILED


# --- entry ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    commands = {"verify": cmd_verify, "build-metric": cmd_build_metric, "harmonics": cmd_harmonics,
                "reduce": cmd_reduce, "residual": cmd_residual}
    try:
        if args.seed is None:
            args.seed = _seed_default()
        return commands[args.command](args)
    except (SchemaError, UndefinedPointError, TrialDivisionError, ex.ExpansionError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (NoClosedFormError, NotSimplyTransitiveError, SeriesNotConvergedError) as e:
        print(f"solver limitation: {e}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT


def main_entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
