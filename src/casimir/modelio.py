"""Model file ingestion: JSON schema validation and built-in models.

A model file declares a chart, structure constants (sparse triplets with
rational string values), generator components, and optionally an explicit
frame and/or metric.  Expression strings use the package grammar.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import expr as ex
from . import numcheck as nc
from .cnum import read_rational
from .lie_algebra import StructureConstants
from .parser import ParseError, parse
from .record import Record
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


class ModelSpec(Record):
    """metric: Expr matrix, or None; frame_vectors, frame_names and
    frame_covectors are None when the file declares no frame."""

    _fields = ("name", "chart", "constants", "generators", "frame_vectors", "frame_names",
               "metric", "source", "frame_covectors")


def _need(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"missing {key!r} in {where}")
    val = doc[key]
    if not isinstance(val, kind) or type(val) is bool:  # bool is an int, but true is no count
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


def _ranges(chart_doc: dict, key: str) -> dict:
    """The chart's optional {name: [lo, hi]} object `key`, with finite real bounds, as floats."""
    doc = chart_doc.get(key, {})
    if not isinstance(doc, dict):
        raise SchemaError(f"chart.{key} must be an object, got {type(doc).__name__}")
    out = {}
    for name, rng in doc.items():
        # a bool is no number, and an int must fit a float
        if not (isinstance(rng, list) and len(rng) == 2
                and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in rng)):
            raise SchemaError(f"chart.{key} for {name!r} must be [lo, hi] with finite real numbers")
        out[name] = (float(rng[0]), float(rng[1]))
    return out


def load_model(ref: str) -> ModelSpec:
    """Load a built-in model by name or a model file by path."""
    if ref in BUILTIN_MODELS:
        return model_from_dict(BUILTIN_MODELS[ref], source=f"builtin:{ref}")
    doc, raw = read_json(ref, f"model {ref!r} is neither built in nor a readable file")
    return model_from_dict(doc, source=file_digest(raw))


def read_json(path: str, unreadable: str) -> tuple:
    """The JSON document in the file at `path` and its bytes; SchemaError if
    the file cannot be read (with the message `unreadable`) or decoded."""
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise SchemaError(f"{unreadable} ({e})") from None
    try:
        return json.loads(raw), raw
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
        raise SchemaError(f"invalid JSON in {path}: {e}") from None


def model_from_dict(doc: dict, source: str) -> ModelSpec:
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    chart_doc = _need(doc, "chart", dict, "model")
    coords = _need(chart_doc, "coords", list, "chart")
    if not all(isinstance(c, str) for c in coords):
        raise SchemaError("chart coordinates must be strings")
    if len(set(coords)) != len(coords):
        raise SchemaError("chart coordinates must be unique")
    box = {}
    for c, rng in _ranges(chart_doc, "domain").items():
        if c not in coords:
            raise SchemaError(f"domain names unknown coordinate {c!r}")
        if not rng[0] < rng[1]:
            raise SchemaError(f"domain for {c!r} must be [lo, hi] with lo < hi")
        box[c] = rng
    for c in coords:
        box.setdefault(c, (-1.0, 1.0))
    params = _ranges(chart_doc, "parameters")
    loci_doc = chart_doc.get("singular_loci", [])
    if not (isinstance(loci_doc, list) and all(isinstance(s, str) for s in loci_doc)):
        raise SchemaError("chart.singular_loci must be a list of expression strings")
    loci = []
    for s in loci_doc:
        try:
            loci.append(parse(s, coords, params))
        except ParseError as e:
            raise SchemaError(f"bad singular locus {s!r}: {e}") from None
    chart = Chart(doc.get("name", "model"), tuple(coords), box, tuple(loci), params)

    sc_doc = _need(doc, "structure_constants", dict, "model")
    r = _need(sc_doc, "r", int, "structure_constants")
    gen_rows = _need(doc, "generators", list, "model")
    if len(gen_rows) != r:  # checked first: from_sparse allocates r^3 entries
        raise SchemaError(f"expected {r} generators, found {len(gen_rows)}")
    try:
        sc = StructureConstants.from_sparse(r, sc_doc.get("C", []))
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as e:
        raise SchemaError(f"bad structure constants: {e}") from None
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
        return read_rational(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"{what} must be rational: {e}") from None


def parse_label(text, what: str) -> float:
    """A rational label as the float the numeric families take."""
    try:
        return float(parse_rational(text, what))
    except OverflowError:
        raise SchemaError(f"{what} is out of floating-point range, got {text!r}") from None


def file_digest(raw: bytes) -> str:
    """How reports name an input file: the sha256 of the bytes read, so a
    report digest does not depend on the path as typed."""
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def load_family(path: str) -> tuple[dict, str]:
    """The family document at `path` and its `file_digest`."""
    doc, raw = read_json(path, f"family file {path!r} cannot be read")
    if not isinstance(doc, dict):
        raise SchemaError("family document must be a JSON object")
    for key in ("model", "kind", "labels", "eigenvalues", "components", "certificates"):
        if key not in doc:
            raise SchemaError(f"family file is missing {key!r}")
    return doc, file_digest(raw)
