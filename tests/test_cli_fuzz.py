"""CLI fuzzing in process through `main`: mutated family documents for
`verify --family`, mutated built-in model files for `verify --model`,
`build-metric` and `reduce`, mutated tensor files and random eigenvalue
strings for `residual`, and random `--grid` specs for `harmonics`.  Every
input must end in a documented exit code (0/1/2/3) with no traceback.  A
mutation may still verify (exit 0), since re-certification does not yet check
every field of a document; these tests do not assert on the exit code beyond
its range."""

import contextlib
import copy
import io
import json
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from casimir.cli import main
from casimir.modelio import BUILTIN_MODELS

EXIT_CODES = {0, 1, 2, 3}

# small documents whose verification takes milliseconds
SOURCES = {
    "so3-scalar": ("harmonics", "so3", "--l", "1"),
    "bianchi2-point-series": ("harmonics", "bianchi2", "--point-series", "--n", "2", "--m", "0", "--nu", "1"),
}

_EXPR_TEXT = st.text(alphabet="vyzthetaphicosinexp0123456789+-*/^()., ", max_size=24)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    _EXPR_TEXT,
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def _run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call; an exception that
    escapes `main` is reported as a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse refusing an argument
            code = e.code
        except Exception:
            return -1, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, argv in SOURCES.items():
        path = base / f"{name}.json"
        assert _run(*argv, "--out", str(path)) == (0, "")
        docs[name] = json.loads(path.read_text())
    return base, docs


def _mutate(data, doc, values=_JSON):
    """One random edit at a random place of a JSON tree, drawing new values
    from `values`; returns the new tree."""
    holder = [doc]
    parent, key = holder, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        node = parent[key]
        parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                      else range(len(node))))
    node = parent[key]
    edit = data.draw(st.sampled_from(["replace", "delete", "duplicate", "retype", "edit-text"]))
    if edit == "delete" and parent is not holder:
        del parent[key]
    elif edit == "duplicate" and isinstance(parent, list) and parent is not holder:
        parent.insert(key, copy.deepcopy(node))
    elif edit == "retype":
        parent[key] = data.draw(st.sampled_from([[node], {"value": node}, str(node), None]))
    elif edit == "edit-text" and isinstance(node, str):
        at = data.draw(st.integers(0, len(node)))
        cut = data.draw(st.integers(0, 3))
        parent[key] = node[:at] + data.draw(_EXPR_TEXT) + node[at + cut:]
    else:
        parent[key] = data.draw(values)
    return holder[0]


@given(st.sampled_from(sorted(SOURCES)), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_family_documents_exit_cleanly(documents, source, data):
    base, docs = documents
    doc = json.loads(json.dumps(docs[source]))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        doc = _mutate(data, doc)
    path = base / "mutated.json"
    path.write_text(json.dumps(doc))
    code, err = _run("verify", "--family", str(path))
    assert code in EXIT_CODES and "Traceback" not in err, err


# values that broke model files: beyond float range, exact division by zero,
# a coefficient too large for an unbounded root search, and wrong types
_MODEL_VALUES = st.one_of(_JSON, st.sampled_from([
    10**400, "1" * 401, "1/0", "(2-2)^(-1)", "1000000000000000000000000000000000000007",
    "theta^2 - 1000000000000000000000000000000000000007", None, [], {}, True, 1.5,
]))


@given(st.sampled_from(sorted(BUILTIN_MODELS)), st.sampled_from(["verify", "build-metric", "reduce"]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_model_files_exit_cleanly(tmp_path_factory, model, command, data):
    doc = json.loads(json.dumps(BUILTIN_MODELS[model]))
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        doc = _mutate(data, doc, _MODEL_VALUES)
    path = tmp_path_factory.getbasetemp() / "model.json"
    path.write_text(json.dumps(doc))
    code, err = _run(command, "--model", str(path))
    assert code in EXIT_CODES and "Traceback" not in err, err


COORDS = {"so3-scalar": ("theta", "phi"), "bianchi2-point-series": ("v", "y", "z")}
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.-+eEinfa", max_size=8),
)


def _grid_specs(coords):
    """A spec for every coordinate, about half of them well formed, plus up to
    two stray specs, in any order."""
    def spec(names):
        return st.one_of(
            st.builds("{}={!r}:{!r}:{}".format, names, st.floats(-1.0, 3.2), st.floats(-1.0, 3.2),
                      st.integers(1, 12)),
            st.builds("{}={}:{}:{}".format, names, _NUMBER_TEXT, _NUMBER_TEXT,
                      st.one_of(st.integers(-2, 12).map(str), _NUMBER_TEXT)),
        )

    every = st.tuples(*(spec(st.just(c)) for c in coords))
    stray = st.lists(st.one_of(spec(st.sampled_from(coords + ("x", ""))),
                               st.text(alphabet="thetaphivyz=:0123456789.-e, ", max_size=20)),
                     max_size=2)
    return st.builds(lambda a, b: [*a, *b], every, stray).flatmap(st.permutations)


@given(st.sampled_from(sorted(SOURCES)), st.sampled_from(["json", "csv"]), st.data())
@settings(max_examples=150, deadline=None)
def test_random_grid_specs_exit_cleanly(source, fmt, data):
    argv = list(SOURCES[source]) + ["--format", fmt]
    for spec in data.draw(_grid_specs(COORDS[source])):
        argv += ["--grid", spec]
    code, err = _run(*argv)
    assert code in EXIT_CODES and "Traceback" not in err, err


# a tensor file per built-in model, with an eigenvalue it satisfies
TENSORS = {
    "so3": ({"type": [0, 0], "components": ["cos(theta)"]}, "-2"),
    "bianchi2": ({"monomials": [{"upper": [], "lower": ["1"], "scalar": "exp(z)*(1+v^2)^(1/2)"}]}, "2"),
}


@given(st.sampled_from(sorted(TENSORS)), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_tensor_files_exit_cleanly(tmp_path_factory, model, data):
    doc, eigenvalue = TENSORS[model]
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        doc = _mutate(data, doc, _MODEL_VALUES)
    path = tmp_path_factory.getbasetemp() / "tensor.json"
    path.write_text(json.dumps(doc))
    code, err = _run("residual", "--model", model, "--tensor", str(path), "--eigenvalue", eigenvalue)
    assert code in EXIT_CODES and "Traceback" not in err, err


# eigenvalue text: constant expressions, plus inputs that nest, expand or write long literals
_EIGENVALUES = st.one_of(
    st.text(alphabet="0123456789+-*/^().eisncoxpqrt ", max_size=24),
    st.sampled_from(["(" * 400 + "1" + ")" * 400, "-" * 1000 + "1", "1e99999999", "1" * 5000,
                     "sin(1)^2000", "9^9999999", "\u00b2", "2^(1/3)", "(-1)^(1/2)"]),
)


@given(st.sampled_from(sorted(TENSORS)), _EIGENVALUES)
@settings(max_examples=200, deadline=None)
def test_eigenvalue_strings_exit_cleanly(tmp_path_factory, model, text):
    doc, _ = TENSORS[model]
    path = tmp_path_factory.getbasetemp() / f"{model}-tensor.json"
    path.write_text(json.dumps(doc))
    code, err = _run("residual", "--model", model, "--tensor", str(path), f"--eigenvalue={text}")
    assert code in EXIT_CODES and "Traceback" not in err, err
