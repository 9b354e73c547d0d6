"""Model file ingestion: JSON schema validation and built-in models.

A model file declares a chart, structure constants (sparse triplets with
rational string values), generator components, and optionally an explicit
frame and/or metric.  Expression strings use the package grammar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import expr as ex
from . import numcheck as nc
from .lie_algebra import StructureConstants
from .parser import ParseError, parse
from .tensor_fields import Chart, OffChartError, VectorField


class SchemaError(Exception):
    """Malformed model or family document."""


BUILTIN_MODELS = {
    "so3": {
        "name": "so3",
        "chart": {
            "coords": ["theta", "phi"],
            # theta keeps 0.01 away from the sin(theta) = 0 loci
            "domain": {"theta": [0.01, math.pi - 0.01], "phi": [0.05, 6.2]},
            "singular_loci": ["sin(theta)"],
        },
        "structure_constants": {
            "r": 3,
            "C": [
                {"k": 3, "i": 1, "j": 2, "value": "1"},
                {"k": 1, "i": 2, "j": 3, "value": "1"},
                {"k": 2, "i": 3, "j": 1, "value": "1"},
            ],
        },
        "generators": [
            ["sin(phi)", "cot(theta)*cos(phi)"],
            ["-cos(phi)", "cot(theta)*sin(phi)"],
            ["0", "-1"],
        ],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    },
    "bianchi2": {
        "name": "bianchi2",
        "chart": {
            "coords": ["v", "y", "z"],
            "domain": {"v": [-0.9, 0.9], "y": [-1.0, 1.0], "z": [-1.0, 1.0]},
        },
        "structure_constants": {
            "r": 3,
            "C": [{"k": 1, "i": 1, "j": 2, "value": "1"}],
        },
        "generators": [["exp(-y)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    },
    "abelian": {
        "name": "abelian",
        "chart": {
            "coords": ["x", "y", "z"],
            "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [-1.0, 1.0]},
        },
        "structure_constants": {"r": 3, "C": []},
        "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    },
}


@dataclass
class ModelSpec:
    name: str
    chart: Chart
    constants: StructureConstants
    generators: tuple
    frame_vectors: tuple | None
    frame_names: tuple | None
    metric: tuple | None  # Expr matrix
    source: str
    frame_covectors: tuple | None


def _need(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"missing {key!r} in {where}")
    val = doc[key]
    if not isinstance(val, kind):
        raise SchemaError(f"{where}.{key} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _expr_row(row, n: int, what: str, coords, params) -> tuple:
    """Parse a list of n expression strings; `what` names the row in errors."""
    if not (isinstance(row, list) and len(row) == n):
        raise SchemaError(f"{what} needs {n} components")
    try:
        return tuple(parse(str(s), coords, params) for s in row)
    except ParseError as e:
        raise SchemaError(f"{what}: {e}") from None


def load_model(ref: str) -> ModelSpec:
    """Load a built-in model by name or a model file by path."""
    if ref in BUILTIN_MODELS:
        return model_from_dict(BUILTIN_MODELS[ref], source=f"builtin:{ref}")
    path = Path(ref)
    if not path.exists():
        raise SchemaError(f"model {ref!r} is neither built in nor a readable file")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON in {ref}: {e}") from None
    return model_from_dict(doc, source=str(path))


def model_from_dict(doc: dict, source: str) -> ModelSpec:
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    chart_doc = _need(doc, "chart", dict, "model")
    coords = _need(chart_doc, "coords", list, "chart")
    if len(set(coords)) != len(coords):
        raise SchemaError("chart coordinates must be unique")
    domain = chart_doc.get("domain", {})
    box = {}
    for c, rng in domain.items():
        if c not in coords:
            raise SchemaError(f"domain names unknown coordinate {c!r}")
        if not (isinstance(rng, list) and len(rng) == 2 and rng[0] < rng[1]):
            raise SchemaError(f"domain for {c!r} must be [lo, hi] with lo < hi")
        box[c] = (float(rng[0]), float(rng[1]))
    for c in coords:
        box.setdefault(c, (-1.0, 1.0))
    params = {}
    for pname, rng in chart_doc.get("parameters", {}).items():
        params[pname] = (float(rng[0]), float(rng[1]))
    loci = []
    for s in chart_doc.get("singular_loci", []):
        try:
            loci.append(parse(s, coords, params))
        except ParseError as e:
            raise SchemaError(f"bad singular locus {s!r}: {e}") from None
    chart = Chart(doc.get("name", "model"), tuple(coords), box, tuple(loci), params)

    sc_doc = _need(doc, "structure_constants", dict, "model")
    r = _need(sc_doc, "r", int, "structure_constants")
    try:
        sc = StructureConstants.from_sparse(r, sc_doc.get("C", []))
    except (ValueError, TypeError, KeyError) as e:
        raise SchemaError(f"bad structure constants: {e}") from None

    gen_rows = _need(doc, "generators", list, "model")
    if len(gen_rows) != r:
        raise SchemaError(f"expected {r} generators, found {len(gen_rows)}")
    generators = [
        VectorField(chart, _expr_row(row, len(coords), f"generator {gi + 1}", coords, params))
        for gi, row in enumerate(gen_rows)
    ]

    _validate_box_against_loci(chart)

    frame_vecs = None
    frame_names = None
    frame_covs = None
    if "frame" in doc:
        fr = _need(doc, "frame", dict, "model")
        rows = _need(fr, "vectors", list, "frame")
        if len(rows) != len(coords):
            raise SchemaError(f"frame needs {len(coords)} vectors, one per chart coordinate, found {len(rows)}")
        names = fr.get("names", [str(i + 1) for i in range(len(rows))])
        if not (isinstance(names, list) and len(names) == len(rows)
                and all(isinstance(n, str) for n in names)):
            raise SchemaError(f"frame names must be a list of {len(rows)} strings, one per frame vector")
        frame_names = tuple(names)
        frame_vecs = tuple(
            VectorField(chart, _expr_row(row, len(coords), f"frame vector {fi + 1}", coords, params))
            for fi, row in enumerate(rows)
        )
        if "covectors" in fr:
            cov_rows = _need(fr, "covectors", list, "frame")
            if len(cov_rows) != len(rows):
                raise SchemaError(f"frame needs {len(rows)} covectors, one per frame vector, found {len(cov_rows)}")
            frame_covs = tuple(
                _expr_row(row, len(coords), f"frame covector {fi + 1}", coords, params)
                for fi, row in enumerate(cov_rows)
            )

    metric = None
    if "metric" in doc:
        rows = _need(doc, "metric", list, "model")
        if len(rows) != r:
            raise SchemaError(f"metric must be an {r}x{r} matrix of expression strings")
        metric = tuple(_expr_row(row, r, f"metric row {i + 1}", coords, params) for i, row in enumerate(rows))
        for i in range(r):
            for k in range(i + 1, r):
                if ex.simplify(ex.sub(metric[i][k], metric[k][i])) != ex.ZERO:
                    raise SchemaError(f"metric is not symmetric at ({i + 1},{k + 1})")

    return ModelSpec(
        doc.get("name", "model"),
        chart,
        sc,
        tuple(generators),
        frame_vecs,
        frame_names,
        metric,
        source,
        frame_covectors=frame_covs,
    )


def _validate_box_against_loci(chart: Chart):
    """The domain box must lie on one side of every declared singular locus,
    judged by `Chart.check_points` at the points a verdict samples at seed 0."""
    if not chart.singular_loci:
        return
    box = chart.full_box()
    names = tuple(box)
    pts = [tuple(env[c] for c in names) for env in nc.sample_box(box, nc.NUM_POINTS)]
    try:
        chart.check_points(names, pts)
    except OffChartError as e:
        raise SchemaError(f"domain box: {e}") from None


def parse_rational(text, what: str) -> Fraction:
    """A rational label, given as text or a number; `what` names it in errors."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{what} must be rational, got {text!r}") from None


def parse_label(text, what: str) -> float:
    """A rational label as the float the numeric families take."""
    try:
        return float(parse_rational(text, what))
    except OverflowError:
        raise SchemaError(f"{what} is out of floating-point range, got {text!r}") from None


def load_family(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"family file {path!r} not found")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON in {path}: {e}") from None
    for key in ("model", "kind", "labels", "eigenvalues", "components", "certificates"):
        if key not in doc:
            raise SchemaError(f"family file is missing {key!r}")
    return doc
