"""Command-line surface: reports, exit codes, round trips, determinism."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import casimir

from casimir.cli import GRID_MAX_POINTS, main
from casimir import expr as ex
from casimir import numcheck as nc
from casimir import split_structure as ss
from casimir.modelio import BUILTIN_MODELS, MAX_COORDINATES, load_model
from casimir.models import bianchi2_model, so3_model
from casimir.models.so3 import So3Model
from helpers import HEISENBERG

GOOD_SOLVABLE = {
    "name": "solvable-custom",
    "chart": {
        "coords": ["v", "y", "z"],
        "domain": {"v": [-0.9, 0.9], "y": [-1, 1], "z": [-1, 1]},
    },
    "structure_constants": {"r": 3, "C": [{"k": 1, "i": 1, "j": 2, "value": "1"}]},
    "generators": [["exp(-y)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}

# the model file of README's "Model files" section
README_MODEL = {
    **GOOD_SOLVABLE,
    "name": "solvable-example",
    "frame": {"vectors": [["1", "0", "0"], ["-v", "1", "0"], ["0", "0", "1"]],
              "covectors": [["1", "v", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "metric": [["(1+v^2)*exp(2*y)", "-v*exp(y)", "0"], ["-v*exp(y)", "1", "0"], ["0", "0", "1"]],
}
BIG_PRIME = "1000000000000000000000000000000000000007"  # 10^39 + 7
SINGULAR_FRAME = [["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]]
IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def model_file(tmp_path, doc) -> str:
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_input_error(capsys, *argv):
    """Exit code 2 with a one-line message on stderr (an escaping exception fails the test)."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


def operator_table(out: str) -> list:
    return [(t["derivative"], t["coefficient"]) for t in json.loads(out)["operator"]["terms"]]


class TestVerify:
    @pytest.mark.parametrize("model", ["so3", "bianchi2", "abelian"])
    def test_builtin_models_pass(self, capsys, model):
        code, out = run(capsys, "verify", "--model", model)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"]
        names = {c["name"] for c in doc["checks"]}
        assert {"structure-constants", "realization"} <= names

    def test_corrupted_constants_fail_with_witness(self, capsys, tmp_path):
        bad = json.loads(json.dumps(GOOD_SOLVABLE))
        bad["structure_constants"]["C"][0]["value"] = "2"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, out = run(capsys, "verify", "--model", str(p))
        assert code == 1
        doc = json.loads(out)
        real = next(c for c in doc["checks"] if c["name"] == "realization")
        assert not real["ok"]
        witnesses = [
            comp.get("witness")
            for pair in real["pairs"]
            for comp in pair["components"]
            if comp["verdict"] == "nonzero"
        ]
        assert witnesses and witnesses[0]

    def test_schema_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "nonsense.json"
        p.write_text(json.dumps({"chart": {"coords": ["x"]}}))
        code = main(["verify", "--model", str(p)])
        assert code == 2

    def test_missing_file_exit_code(self):
        assert main(["verify", "--model", "no-such-model"]) == 2

    @pytest.mark.parametrize("key,value", [
        ("frame", {"vectors": [5, ["0", "1", "0"], ["0", "0", "1"]]}),
        ("frame", {"vectors": [["1", "0", "0"]] * 3, "covectors": 5}),
        ("metric", [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]),
        ("metric", [["1", "0", "0"], ["0", "q", "0"], ["0", "0", "1"]]),
        # frame block sizes: vectors per coordinate, covectors and names per vector
        ("frame", {"vectors": README_MODEL["frame"]["vectors"][:2]}),
        ("frame", {"vectors": README_MODEL["frame"]["vectors"], "covectors": [["1", "v", "0"]]}),
        ("frame", {"vectors": README_MODEL["frame"]["vectors"], "names": ["a", "b"]}),
        ("frame", {"vectors": README_MODEL["frame"]["vectors"], "names": [1, 2, 3]}),
    ])
    def test_bad_expression_rows_exit_code(self, capsys, tmp_path, key, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**GOOD_SOLVABLE, key: value}))
        assert_input_error(capsys, "verify", "--model", str(p))

    @pytest.mark.parametrize("command,extra", [
        ("build-metric", {}),
        ("verify", {"singular_loci": ["1 + x^2"]}),
    ])
    def test_too_many_sample_dimensions_is_an_input_error(self, capsys, command, extra, tmp_path):
        """3 coordinates and 14 parameters pass the 16 bases of the sample points."""
        doc = json.loads(HEISENBERG.read_text())
        doc["chart"].update(extra, parameters={f"a{k}": [0, 1] for k in range(14)})
        err = assert_input_error(capsys, command, "--model", model_file(tmp_path, doc))
        assert f"at most {nc.MAX_DIMENSIONS} coordinates and parameters" in err

    @pytest.mark.parametrize("command", ["verify", "build-metric", "reduce"])
    def test_too_many_coordinates_is_an_input_error(self, capsys, command, tmp_path):
        d = MAX_COORDINATES + 1
        coords = [f"x{k}" for k in range(d)]
        unit = [["1" if j == k else "0" for j in range(d)] for k in range(d)]
        doc = {"chart": {"coords": coords}, "structure_constants": {"r": d, "C": []},
               "generators": unit, "frame": {"vectors": unit}, "metric": unit}
        err = assert_input_error(capsys, command, "--model", model_file(tmp_path, doc))
        assert f"at most {MAX_COORDINATES} coordinates, got {d}" in err

    @pytest.mark.parametrize("flag", ["--model", "--family"])
    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path, flag):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff{}")
        assert_input_error(capsys, "verify", flag, str(p))

    def test_needs_exactly_one_input(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--model"), ("verify", "--family"), ("build-metric", "--model"),
        ("residual", "--model", "so3", "--eigenvalue", "-2", "--tensor"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
    def test_a_directory_is_an_input_error(self, capsys, tmp_path, argv):
        assert_input_error(capsys, *argv, str(tmp_path))

    @pytest.mark.parametrize("command", ["verify", "build-metric"])
    def test_algebra_dimension_must_not_be_a_bool(self, capsys, tmp_path, command):
        doc = {"chart": {"coords": ["x"]}, "structure_constants": {"r": True, "C": []}, "generators": [["1"]]}
        assert "structure_constants.r must be int" in assert_input_error(
            capsys, command, "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("text", [
        "(" * 400 + "1" + ")" * 400, "\u00b2", "1e99999999", "1" * 5000, "(1+v)^3000", "sin(v)^2000",
        "9^9999999",
    ], ids=["nesting", "superscript", "exponent", "digits", "power", "sin-power", "exact-power"])
    def test_expression_text_bounds_are_input_errors(self, capsys, tmp_path, text):
        doc = json.loads(json.dumps(BUILTIN_MODELS["bianchi2"]))
        doc["generators"][1][0] = text
        start = time.perf_counter()
        assert_input_error(capsys, "verify", "--model", model_file(tmp_path, doc))
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("theta", [[-1, 1], [-1, 2], [0.5, 3.5]])
    def test_domain_must_keep_to_one_side_of_each_locus(self, capsys, tmp_path, theta):
        # [-1, 1] has its centre on sin(theta) = 0; the others straddle a zero
        doc = json.loads(json.dumps(BUILTIN_MODELS["so3"]))
        doc["chart"]["domain"]["theta"] = theta
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--model", str(p))

    @pytest.mark.parametrize("change", [
        {"domain": {"v": ["-1", "log(x)"]}},  # strings would compare as strings
        {"domain": {"v": [None, 1]}},
        {"domain": {"v": [False, True]}},  # a bool is no number
        {"domain": {"v": [-10**400, 1]}},  # beyond the float range
        {"domain": {"v": [-math.inf, 1]}},
        {"domain": "v"},
        {"parameters": [1, 2]},
        {"parameters": {"a": [0, "1"]}},
    ], ids=["string-bounds", "null-bound", "bool-bounds", "huge-bound", "infinite-bound",
            "domain-not-object", "parameters-not-object", "string-parameter-bound"])
    def test_malformed_chart_ranges_are_input_errors(self, capsys, tmp_path, change):
        doc = json.loads(json.dumps(BUILTIN_MODELS["bianchi2"]))
        doc["chart"].update(change)
        assert_input_error(capsys, "verify", "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("command", ["verify", "build-metric", "reduce"])
    @pytest.mark.parametrize("change", [
        {"coords": [[1], "y", "z"]},  # was a TypeError at the uniqueness check
        {"singular_loci": [5]},  # was a TypeError in the parser
    ], ids=["coordinate-not-a-string", "locus-not-a-string"])
    def test_malformed_chart_names_are_input_errors(self, capsys, tmp_path, command, change):
        doc = json.loads(json.dumps(BUILTIN_MODELS["bianchi2"]))
        doc["chart"].update(change)
        assert_input_error(capsys, command, "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("command, model, at, value", [
        ("verify", "so3", 0, 10**400),  # a JSON number; was an OverflowError in numcheck.is_zero
        ("verify", "bianchi2", 1, "1" * 401),
        ("build-metric", "bianchi2", 1, "1" * 401),  # was an OverflowError in split_structure._matrices
    ], ids=["verify-so3-number", "verify-bianchi2-string", "build-metric-bianchi2-string"])
    def test_constants_beyond_float_range_are_input_errors(self, capsys, tmp_path, command, model, at,
                                                           value):
        doc = json.loads(json.dumps(BUILTIN_MODELS[model]))
        doc["generators"][at][at] = value
        assert_input_error(capsys, command, "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("command", ["verify", "build-metric", "reduce"])
    def test_structure_constant_dividing_by_zero_is_an_input_error(self, capsys, tmp_path, command):
        doc = json.loads(json.dumps(BUILTIN_MODELS["so3"]))
        doc["structure_constants"]["C"][0]["value"] = "1/0"  # was a ZeroDivisionError
        assert "bad structure constants" in assert_input_error(
            capsys, command, "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("value", ["1e99999999", "1" * 5000])
    def test_structure_constant_literal_size_is_bounded(self, capsys, tmp_path, value):
        doc = json.loads(json.dumps(BUILTIN_MODELS["so3"]))
        doc["structure_constants"]["C"][0]["value"] = value
        start = time.perf_counter()
        assert "digits" in assert_input_error(capsys, "verify", "--model", model_file(tmp_path, doc))
        assert time.perf_counter() - start < 5

    def test_algebra_dimension_is_checked_against_the_generators_first(self, capsys, tmp_path):
        doc = json.loads(json.dumps(BUILTIN_MODELS["abelian"]))
        doc["structure_constants"]["r"] = 10**40  # was an OverflowError allocating r^3 constants
        assert "expected 10" in assert_input_error(capsys, "verify", "--model", model_file(tmp_path, doc))

    @pytest.mark.parametrize("command, model, section, key, value", [
        # parsing factors theta^2 - N over its rational roots, which needs the divisors of N
        ("verify", "so3", "metric", 0, [f"(theta^2 - {BIG_PRIME})^(-1)", "0", "0"]),
    ], ids=["so3-metric-pole"])
    def test_large_polynomial_coefficients_end_quickly(self, capsys, tmp_path, command, model, section,
                                                       key, value):
        """The rational-root search trial-divides a coefficient up to a bound,
        not up to its square root (about 10^19 steps here)."""
        doc = json.loads(json.dumps(BUILTIN_MODELS[model]))
        doc[section][key] = value
        start = time.perf_counter()
        assert_input_error(capsys, command, "--model", model_file(tmp_path, doc))
        assert time.perf_counter() - start < 5

    def test_large_structure_constant_in_the_frame_solver_ends_quickly(self, capsys, tmp_path):
        """A 40-digit bracket coefficient is one more rational in the frame
        solver's exact elimination, and no step searches its divisors.  The
        coordinate fields do not realize [xi_1, xi_2] = N xi_1, so there is
        no invariant frame, and the report gives the failed realization
        check behind it, as for any other N."""
        doc = json.loads(json.dumps(BUILTIN_MODELS["abelian"]))
        doc["structure_constants"]["C"] = [{"k": 1, "i": 1, "j": 2, "value": BIG_PRIME}]
        start = time.perf_counter()
        code, out = run(capsys, "build-metric", "--model", model_file(tmp_path, doc))
        assert code == 1
        assert json.loads(out)["checks"][1]["name"] == "realization"
        assert not json.loads(out)["checks"][1]["ok"]
        assert time.perf_counter() - start < 5

    def test_locus_may_name_a_parameter(self, capsys, tmp_path):
        doc = json.loads(json.dumps(GOOD_SOLVABLE))
        doc["chart"]["parameters"] = {"a": [0, 1]}
        doc["chart"]["singular_loci"] = ["v+a+3"]
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--model", str(p))
        assert code == 0 and json.loads(out)["ok"]
        doc["chart"]["singular_loci"] = ["v+a"]  # changes sign inside the box
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--model", str(p))

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "so3"],
        ["build-metric", "--model", "so3"],
        ["reduce", "--model", "so3"],
        ["residual", "--model", "so3", "--tensor", "t.json", "--eigenvalue", "-2"],
    ])
    def test_only_harmonics_takes_a_format(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestBuildMetric:
    def test_rotation_constant_metric(self, capsys):
        code, out = run(capsys, "build-metric", "--model", "so3")
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        assert not doc["cartan"]["degenerate"]

    def test_solvable_frame_metric(self, capsys):
        code, out = run(capsys, "build-metric", "--model", "bianchi2")
        assert code == 0
        doc = json.loads(out)
        assert doc["cartan"]["degenerate"]
        assert doc["metric"] == [
            ["exp(2*y) + exp(2*y)*v^2", "-v*exp(y)", "0"],
            ["-v*exp(y)", "1", "0"],
            ["0", "0", "1"],
        ]

    def test_abelian_identity_via_frame(self, capsys):
        code, out = run(capsys, "build-metric", "--model", "abelian")
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    def test_solver_limitation_exit_code(self, capsys, tmp_path):
        doc = json.loads(json.dumps(GOOD_SOLVABLE))
        doc["chart"]["coords"] = ["x", "y", "z"]
        doc["chart"]["domain"] = {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1]}
        doc["generators"] = [["1", "0", "0"], ["x", "1", "0"], ["0", "0", "1"]]
        p = tmp_path / "xyz.json"
        p.write_text(json.dumps(doc))
        code = main(["build-metric", "--model", str(p)])
        assert code == 3

    def test_wrong_realization_fails_its_check(self, capsys, tmp_path):
        """The built-in abelian generators with [xi_1, xi_2] = 2 xi_1: the
        solver finds no frame because the generators do not realize the
        constants, and the report says so, as `verify --model` does."""
        doc = {**BUILTIN_MODELS["abelian"],
               "structure_constants": {"r": 3, "C": [{"k": 1, "i": 1, "j": 2, "value": "2"}]}}
        code, out = run(capsys, "build-metric", "--model", model_file(tmp_path, doc))
        assert code == 1
        real = json.loads(out)["checks"][-1]
        assert real["name"] == "realization" and not real["ok"]
        first = real["pairs"][0]
        assert (first["i"], first["j"]) == (1, 2) and first["components"][0]["verdict"] == "nonzero"

    def test_heisenberg_frame_metric(self, capsys):
        """Bianchi type II (the paper's G3II), whose third generator moves
        two coordinates: the frame is solved, based at the origin."""
        code, out = run(capsys, "build-metric", "--model", str(HEISENBERG))
        assert code == 0
        doc = json.loads(out)
        assert doc["cartan"]["rank"] == 0
        assert doc["checks"][1] == {"name": "invariant-frame", "ok": True,
                                    "base_point": {"x": "0", "y": "0", "z": "0"}}
        assert doc["checks"][2]["name"] == "killing-condition" and doc["checks"][2]["ok"]
        assert doc["metric"] == [["1 + x^2 + y^2", "y", "-x"], ["y", "1", "0"], ["-x", "0", "1"]]

    @pytest.mark.parametrize("generators,error", [
        ([["i*exp(-y)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "complex coefficient"),
        ([["exp(1-y)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "exp(1 - y)"),
        ([["1", "0", "0"], ["x", "1", "0"], ["0", "0", "1"]], "no unique solution"),
    ], ids=["imaginary-coefficient", "constant-in-exponent", "null-space-size"])
    def test_frame_solver_failures_exit_cleanly(self, capsys, tmp_path, generators, error):
        """Each way the frame solver can fail is a solver limitation (exit 3)
        with a report, not a traceback.  Every case is a valid realization of
        [xi_1, xi_2] = xi_1; the last needs exp(y), which its generators lack,
        so its invariance equations have a two-dimensional null space."""
        doc = {**GOOD_SOLVABLE, "chart": {"coords": ["x", "y", "z"]}, "generators": generators}
        path = model_file(tmp_path, doc)
        assert main(["verify", "--model", path]) == 0
        capsys.readouterr()
        code = main(["build-metric", "--model", path])
        out, err = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in err
        frame = json.loads(out)["checks"][1]
        assert frame["name"] == "invariant-frame" and not frame["ok"]
        assert error in frame["error"]

    def test_a_wrong_frame_solve_cannot_pass(self, capsys, monkeypatch):
        """The solved frame is certified invariant by its scale factors.  A
        solve that returned L = I for bianchi2, whose generators are no
        invariant frame, fails the solver and the build (exit 3)."""
        spec = load_model("bianchi2")
        identity = [[ex.ONE if a == d else ex.ZERO for d in range(3)] for a in range(3)]
        monkeypatch.setattr(ss, "_frame_coefficients", lambda sc, generators: identity)
        with pytest.raises(ss.NoClosedFormError, match="failed the invariance equations"):
            ss.solve_invariant_frame(spec.constants, spec.generators)
        code = main(["build-metric", "--model", "bianchi2"])
        out, err = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in err
        frame = json.loads(out)["checks"][1]
        assert frame == {"name": "invariant-frame", "ok": False,
                         "error": "candidate frame failed the invariance equations"}

    def _frame_model(self, tmp_path, vectors):
        return model_file(tmp_path, {**GOOD_SOLVABLE, "frame": {"vectors": vectors}})

    def _xyz_model(self, tmp_path, vectors) -> str:
        """A solvable model the frame solver cannot do, with a user frame."""
        doc = json.loads(json.dumps(GOOD_SOLVABLE))
        doc["chart"]["coords"] = ["x", "y", "z"]
        doc["chart"]["domain"] = {"x": [-1, 1], "y": [-1, 1], "z": [-1, 1]}
        doc["generators"] = [["1", "0", "0"], ["x", "1", "0"], ["0", "0", "1"]]
        doc["frame"] = {"vectors": vectors}
        return model_file(tmp_path, doc)

    def test_frame_solver_errors_are_reported(self, capsys, tmp_path):
        for vectors, error in ((SINGULAR_FRAME, "singular"), (IDENTITY, "off its axis")):
            code, out = run(capsys, "verify", "--model", self._frame_model(tmp_path, vectors))
            assert code == 1
            frame = [c for c in json.loads(out)["checks"] if c["name"] == "frame"]
            assert not frame[0]["ok"] and error in frame[0]["error"]

    def test_frame_programming_errors_propagate(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("bug in the frame check")

        monkeypatch.setattr("casimir.cli.compute_mu", fail)
        path = self._frame_model(tmp_path, [["1", "0", "0"], ["-v", "1", "0"], ["0", "0", "1"]])
        with pytest.raises(RuntimeError, match="bug in the frame check"):
            main(["verify", "--model", path])
        with pytest.raises(RuntimeError, match="bug in the frame check"):
            main(["reduce", "--model", model_file(tmp_path, README_MODEL)])
        with pytest.raises(RuntimeError, match="bug in the frame check"):
            main(["build-metric", "--model", self._xyz_model(tmp_path, IDENTITY)])

    def test_user_frame_rescues_the_build(self, capsys, tmp_path):
        path = self._xyz_model(tmp_path, [["exp(y)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        code, out = run(capsys, "build-metric", "--model", path)
        assert code == 0
        got = json.loads(out)["metric"]
        assert got == [["exp(2*y) + x^2", "-x", "0"], ["-x", "1", "0"], ["0", "0", "1"]]

    @pytest.mark.parametrize("vectors,error", [
        (SINGULAR_FRAME, "singular"),
        ([["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]], "off its axis"),
        (IDENTITY, "not invariant"),
    ], ids=["singular", "not-eigen", "not-invariant"])
    def test_bad_user_frame_fails_the_build(self, capsys, tmp_path, vectors, error):
        code, out = run(capsys, "build-metric", "--model", self._xyz_model(tmp_path, vectors))
        assert code == 1
        doc = json.loads(out)
        assert [(c["name"], c["ok"]) for c in doc["checks"]] == [
            ("structure-constants", True), ("invariant-frame", False)]
        assert error in doc["checks"][1]["error"]
        assert "metric" not in doc

    def test_dependent_generators_with_a_user_frame_fail_the_build(self, capsys, tmp_path):
        """A zero generator makes the generator matrix singular, so the user
        frame has no coefficients in the generator basis: a failed check, not
        a traceback.  The constants are abelian, which the zero generator
        still realizes."""
        path = model_file(tmp_path, {
            **json.loads(json.dumps(BUILTIN_MODELS["bianchi2"])),
            "structure_constants": {"r": 3, "C": []},
            "generators": [["exp(-y)", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
            "frame": {"vectors": [["exp(-y)", "0", "0"], ["-v", "1", "0"], ["0", "0", "1"]]},
        })
        code, out = run(capsys, "build-metric", "--model", path)
        assert code == 1
        doc = json.loads(out)
        assert [(c["name"], c["ok"]) for c in doc["checks"]] == [
            ("structure-constants", True), ("invariant-frame", False)]
        assert doc["checks"][1]["error"] == "the generators are dependent: their matrix is singular"
        assert "metric" not in doc

    @pytest.mark.parametrize("generators,error", [
        ([["1", "0"], ["0", "1"], ["0", "1"]], "the generators are not a basis: 3 of them on a 2-dimensional chart"),
        ([["1", "0"]], "the generators are not a basis: 1 of them on a 2-dimensional chart"),
    ], ids=["three-on-a-plane", "one-on-a-plane"])
    def test_generators_that_are_no_basis_fail_the_build(self, capsys, tmp_path, generators, error):
        """Commuting generators more or fewer than the coordinates give a user
        frame no coefficients in their basis: a failed check, not a traceback
        (three) or a metric from coefficients that do not exist (one).  Its
        error names the count, since their matrix is not square, so not
        singular either."""
        path = model_file(tmp_path, {
            "name": "plane", "chart": {"coords": ["x", "y"], "domain": {"x": [-1, 1], "y": [-1, 1]}},
            "structure_constants": {"r": len(generators), "C": []},
            "generators": generators,
            "frame": {"vectors": [["1", "0"], ["0", "1"]]},
        })
        code, out = run(capsys, "build-metric", "--model", path)
        assert code == 1
        doc = json.loads(out)
        assert [(c["name"], c["ok"]) for c in doc["checks"]] == [
            ("structure-constants", True), ("invariant-frame", False)]
        assert doc["checks"][1]["error"] == error
        assert "metric" not in doc


class TestHarmonics:
    def test_point_series_eigenvalue(self, capsys):
        code, out = run(capsys, "harmonics", "bianchi2", "--point-series",
                        "--n", "1", "--m", "0", "--nu", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"]["G"] == "5"
        assert doc["certified"]

    def test_negative_label_written_with_equals(self, capsys):
        """argparse takes `-1/2` after a space for an option; `--nu=-1/2` is the documented form."""
        code, out = run(capsys, "harmonics", "bianchi2", "--point-series",
                        "--n", "1", "--m", "0", "--nu=-1/2")
        assert code == 0
        assert json.loads(out)["labels"]["nu"] == "-1/2"

    def test_scalar_weight_zero(self, capsys):
        code, out = run(capsys, "harmonics", "so3", "--l", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["components"] == {"n=0,m=0": "1"}

    def test_tensor_family_component_count(self, capsys):
        code, out = run(capsys, "harmonics", "so3", "--type", "2,0", "--l", "2", "--m", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 5  # five weighted slots at fixed m
        assert len(doc["assemblies"]) == 1

    def test_hyper_family(self, capsys):
        code, out = run(capsys, "harmonics", "bianchi2", "--hyper",
                        "--mu", "0", "--nu", "0", "--lam", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"]

    def test_label_out_of_range_exit_code(self, capsys):
        assert main(["harmonics", "so3", "--l", "1", "--m", "5"]) == 1
        for labels in (["--l=-1"], ["--l=-2", "--type", "2,0"], ["--l", "1", "--m", "3", "--type", "2,0"]):
            assert main(["harmonics", "so3", *labels]) == 1
            assert capsys.readouterr().err.startswith("labels out of range: l=")
        assert main(["harmonics", "bianchi2", "--point-series",
                     "--n", "1", "--m", "1", "--nu", "0"]) == 1

    def test_grid_csv(self, capsys):
        code, out = run(
            capsys, "harmonics", "so3", "--l", "1", "--m", "0", "--format", "csv",
            "--grid", "theta=0.2:3.0:3", "--grid", "phi=0.1:6.0:2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["theta", "phi"]
        assert len(rows) == 1 + 6
        # 17 significant digits in every numeric cell
        val = float(rows[1][2])
        assert f"{val:.17g}" == rows[1][2]

    def test_csv_needs_a_grid(self, capsys):
        assert_input_error(capsys, "harmonics", "so3", "--l", "0", "--format", "csv")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_hyper_family_refuses_a_grid(self, capsys, fmt):
        assert_input_error(capsys, "harmonics", "bianchi2", "--hyper", "--mu=0.1", "--nu=0.5", "--lam=1.5",
                           "--A=1", "--B=0", "--grid", "v=-2:2:5", "--format", fmt)

    def test_grid_json_samples(self, capsys):
        code, out = run(capsys, "harmonics", "so3", "--l", "0", "--grid", "theta=0.5:2.5:4")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["samples"]["rows"]) == 4

    @pytest.mark.parametrize("flag,value", [("--lam", "nan"), ("--A", "x"), ("--mu", "1/0"),
                                            ("--mu", "1e400"), ("--B", "1e999")])
    def test_hyper_label_not_rational(self, capsys, flag, value):
        argv = {"--mu": "0", "--nu": "0", "--lam": "1", flag: value}
        assert_input_error(capsys, "harmonics", "bianchi2", "--hyper",
                           *[x for kv in argv.items() for x in kv])

    @pytest.mark.parametrize("argv", [
        ("--point-series", "--n", "2", "--m", "0", "--nu=1e99999999"),
        ("--point-series", "--n", "2", "--m", "0", "--nu=" + "1" * 5000),
        ("--hyper", "--mu=1e99999999", "--nu", "0", "--lam", "1"),
    ], ids=["exponent", "digits", "hyper-exponent"])
    def test_label_literal_size_is_bounded(self, capsys, argv):
        start = time.perf_counter()
        assert "digits" in assert_input_error(capsys, "harmonics", "bianchi2", *argv)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("labels", [
        ("--l", "100000000000000000000"),
        ("--l", "100000000000000000000", "--type", "2,0"),
        ("--l", "3", "--m=-100000000000000000000"),
        ("--l=-100000000000000000000",),
    ])
    def test_so3_label_beyond_machine_integers(self, capsys, labels):
        assert_input_error(capsys, "harmonics", "so3", *labels)

    @pytest.mark.parametrize("labels", [
        ("--l", "33", "--m", "33"),
        ("--l", "33", "--m", "33", "--type", "2,0"),
        ("--l", "9223372036854775807", "--m", "9223372036854775807"),
    ])
    def test_so3_label_above_the_limit(self, capsys, labels):
        assert_input_error(capsys, "harmonics", "so3", *labels)

    @pytest.mark.parametrize("n,m", [
        ("17", "16"), ("100000000000000000000", "0"), ("1", "-16"), ("16", "-1"),
        ("1", "-100000000000000000000"),
    ])
    def test_point_series_labels_above_the_limit(self, capsys, n, m):
        assert_input_error(capsys, "harmonics", "bianchi2", "--point-series",
                           "--n", n, f"--m={m}", "--nu", "2")

    def test_hyper_series_not_converging_is_a_solver_limit(self, capsys):
        code = main(["harmonics", "bianchi2", "--hyper", "--mu", "0", "--nu", "0", "--lam", "1e30"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("solver limitation: hypergeometric series did not converge")

    def test_grid_must_cover_every_component_coordinate(self, capsys):
        assert_input_error(capsys, "harmonics", "so3", "--l", "1", "--grid", "theta=0.2:3.0:5")

    @pytest.mark.parametrize("grid", ["theta=0:3.0:3", "theta=0.2:3.2:3", "theta=3.3:4:2"])
    def test_grid_must_keep_off_the_singular_locus(self, capsys, grid):
        assert_input_error(capsys, "harmonics", "so3", "--l", "0", "--grid", grid)

    @pytest.mark.parametrize("theta,phi", [("0.3:inf:5", "0:1:2"), ("0.5:2:3", "-inf:1:2"),
                                           ("0.5:2:3", "nan:1:2")])
    def test_grid_bounds_must_be_finite(self, capsys, theta, phi):
        # an infinite theta reached the singular-locus check as a math domain error
        err = assert_input_error(capsys, "harmonics", "so3", "--l", "1", "--grid", f"theta={theta}",
                                 "--grid", f"phi={phi}")
        assert "--grid bounds must be finite numbers" in err

    def test_grid_names_each_coordinate_once(self, capsys):
        # the last spec for theta used to replace the first without a word
        err = assert_input_error(capsys, "harmonics", "so3", "--l", "1", "--grid", "theta=0.5:2.5:2",
                                 "--grid", "phi=0:1:2", "--grid", "theta=1:2:3")
        assert "'theta' more than once" in err

    def test_bad_grid_is_refused_before_the_family_is_built(self, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("family built before the grid was checked")

        monkeypatch.setattr(So3Model, "tensor20_harmonic", build)
        assert_input_error(capsys, "harmonics", "so3", "--type", "2,0", "--l", "2", "--grid", "theta=0:1:2")

    @pytest.mark.parametrize("grids", [
        ["theta=0.1:3:1000", "phi=0.1:6:1000"],
        ["theta=0.1:3:1000000000000"],
    ], ids=["two-axes", "one-axis"])
    def test_grid_size_is_bounded(self, capsys, monkeypatch, grids):
        def build(*args, **kwargs):
            raise AssertionError("family built before the grid was checked")

        monkeypatch.setattr(So3Model, "scalar_family", build)
        argv = [arg for g in grids for arg in ("--grid", g)]
        err = assert_input_error(capsys, "harmonics", "so3", "--l", "1", *argv)
        assert f"more than the {GRID_MAX_POINTS} allowed" in err

    def test_grid_may_leave_the_sampling_box(self, capsys):
        # phi is periodic and a point series is closed-form in v, y and z:
        # neither range is cut down to the box the certificates sample.
        code, _ = run(capsys, "harmonics", "so3", "--l", "1", "--m", "1",
                      "--grid", "theta=0.5:2.5:3", "--grid", "phi=0:6.3:4")
        assert code == 0
        code, out = run(capsys, "harmonics", "bianchi2", "--point-series", "--n", "2", "--m", "1",
                        "--nu", "2", "--grid", "v=2:2:1", "--grid", "y=2:2:1", "--grid", "z=0:0:1")
        assert code == 0
        value = float(json.loads(out)["samples"]["rows"][0][3])
        assert value == pytest.approx(math.exp(2) * 5 ** 1.5, rel=1e-12)

    @pytest.mark.parametrize("v,z,error", [
        # (1 + v^2)^(3/2) overflows to inf
        pytest.param("0:1e200:2", "0:1:2", "is not finite", id="0:1e200:2-0:1:2"),
        # exp(2*z) raises OverflowError
        pytest.param("0:1:2", "0:1000:2", "cannot be evaluated", id="0:1:2-0:1000:2"),
    ])
    def test_grid_values_must_be_finite(self, capsys, v, z, error):
        err = assert_input_error(capsys, "harmonics", "bianchi2", "--point-series", "--n", "2", "--m", "0",
                                 "--nu", "2", "--grid", f"v={v}", "--grid", "y=0:1:2", "--grid", f"z={z}")
        assert f"component 'n=2,m=0,nu=2' {error} on the --grid" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refused_grid_writes_no_out_file(self, capsys, tmp_path, fmt):
        # every value is checked before the output file is opened
        path = tmp_path / "grid.out"
        assert_input_error(capsys, "harmonics", "bianchi2", "--point-series", "--n", "2", "--m", "0", "--nu", "2",
                           "--grid", "v=0:1e200:2", "--grid", "y=0:1:2", "--grid", "z=0:1:2",
                           "--format", fmt, "--out", str(path))
        assert not path.exists()


# one document of each kind the library writes, built by the named call
LIBRARY_DOCUMENTS = {
    "scalar_family": lambda: so3_model().scalar_family(2),
    "scalar_harmonic": lambda: so3_model().scalar_harmonic(2, 1),
    "tensor20_harmonic": lambda: so3_model().tensor20_harmonic(1),
    "point_series": lambda: bianchi2_model().point_series(3, 1, "1/2"),
    "covector_harmonic": lambda: bianchi2_model().covector_harmonic(2, 0, 1),
    "hypergeometric_harmonic": lambda: bianchi2_model().hypergeometric_harmonic(0.2, 0.3, 1.5, 0.7, 0.5),
}


@functools.lru_cache(maxsize=None)
def _stripped_document(case: str) -> str:
    if case == "point series without components":
        doc = bianchi2_model().point_series(3, 1, "1/2").to_json()
        doc["components"] = {}
    else:
        doc = so3_model().tensor20_harmonic(2).to_json()
        if case == "tensor family without assemblies":
            del doc["assemblies"]
        else:
            del doc["assemblies"]["m=0"]
    return json.dumps(doc)


class TestFamilyRoundTrip:
    @pytest.mark.parametrize("case,missing,answered", [
        ("tensor family without assemblies", ["m=-2", "m=-1", "m=0", "m=1", "m=2"], 0),
        ("tensor family without one assembly", ["m=0"], 4),
        ("point series without components", [""], 0),
    ], ids=["no-assemblies", "no-m0-assembly", "no-components"])
    def test_unanswered_casimir_certificates_fail(self, capsys, tmp_path, case, missing, answered):
        p = tmp_path / "fam.json"
        p.write_text(_stripped_document(case))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 1
        checks = json.loads(out)["checks"]
        assert all(c["ok"] and c["stored"] == c["recomputed"] for c in checks[:answered])
        assert [(c["name"], c["ok"], c["error"]) for c in checks[answered:]] == [
            (f"recertify: casimir-eigenvalue {m}".rstrip(), False, "not recomputed") for m in missing]

    @pytest.mark.parametrize("argv", [
        ["so3", "--l", "1"],
        ["so3", "--type", "2,0", "--l", "2"],
        ["bianchi2", "--point-series", "--n", "3", "--m", "1", "--nu=1/2"],
    ], ids=["scalar", "tensor", "point-series"])
    def test_document_with_nothing_to_recertify_is_an_input_error(self, capsys, tmp_path, argv):
        """A document emptied of its components, assemblies and certificates
        verifies nothing, so it is refused rather than reported ok."""
        p = tmp_path / "fam.json"
        assert main(["harmonics", *argv, "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        doc.update(components={}, certificates=[])
        if "assemblies" in doc:
            doc["assemblies"] = {}
        p.write_text(json.dumps(doc))
        err = assert_input_error(capsys, "verify", "--family", str(p))
        assert "nothing to recertify" in err

    @pytest.mark.parametrize("kind", sorted(LIBRARY_DOCUMENTS))
    def test_library_document_recertifies(self, capsys, tmp_path, kind):
        doc = LIBRARY_DOCUMENTS[kind]().to_json()
        assert doc["certified"]
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        checks = json.loads(out)["checks"]
        stored = {c["name"] for c in doc["certificates"]}
        assert checks
        for c in checks:
            assert c["name"].removeprefix("recertify: ").split(" #")[0] in stored
            assert c["stored"] == c["recomputed"]

    def test_scalar_family_recertifies(self, capsys, tmp_path):
        p = tmp_path / "fam.json"
        code = main(["harmonics", "so3", "--l", "1", "--out", str(p)])
        assert code == 0
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"]
        assert all(c["stored"] == c["recomputed"] for c in doc["checks"])

    def test_tensor_family_recertifies(self, capsys, tmp_path):
        p = tmp_path / "fam.json"
        code = main(["harmonics", "so3", "--type", "2,0", "--l", "1", "--out", str(p)])
        assert code == 0
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_corrupted_mirrored_slot_fails(self, capsys, tmp_path):
        """The (+1, -1) and (-1, +1) slots of an assembly carry one scalar; with
        two different ones the tensor is not symmetric and its certificate
        is recomputed from every component."""
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--type", "2,0", "--l", "2", "--m", "0", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        for mono in doc["assemblies"]["m=0"]:
            if mono["lower"] == ["-1", "+1"]:
                mono["scalar"] = "h*cos(theta)"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert [(c["name"], c["stored"], c["recomputed"]) for c in failed] == [
            ("recertify: casimir-eigenvalue m=0", "ok", "failed")]

    @pytest.mark.parametrize("tag", ["m=-1", "m=1"])
    def test_corrupted_conjugate_pair_fails(self, capsys, tmp_path, tag):
        """The m = -1 certificate is derived from the m = 1 one only when the
        two assemblies are conjugates; a corrupted assembly on either side
        is certified in full and fails, and its partner still passes."""
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--type", "2,0", "--l", "2", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        for mono in doc["assemblies"][tag]:
            if mono["lower"] == ["r", "r"]:
                mono["scalar"] = "h_rr*cos(theta)"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert [(c["name"], c["stored"], c["recomputed"]) for c in failed] == [
            (f"recertify: casimir-eigenvalue {tag}", "ok", "failed")]

    @pytest.mark.parametrize("case,code,zero_checks", [
        ("m=-2 tripled", 0, 16),
        ("m=-1 without its sign", 0, 16),
        ("non-real eigenvalue", 1, 26),
        ("one weight, m=-2", 0, 2),
    ])
    def test_scalar_conjugate_half_takes_the_full_claims(self, capsys, tmp_path, monkeypatch,
                                                        case, code, zero_checks):
        """An m < 0 scalar weight is derived from its partner -m only when its
        component is (-1)^m conj of the partner's and G is real.  Each case
        breaks a condition, so that weight, or with a non-real G every
        weight, is certified in full (14 zero checks when none is); a tripled
        or negated member is still an eigenfunction, and only the corrupted
        eigenvalue fails."""
        p = tmp_path / "fam.json"
        weights = ["--m", "-2"] if case.startswith("one weight") else []
        assert main(["harmonics", "so3", "--l", "6", *weights, "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        comps = doc["components"]
        if case == "m=-2 tripled":
            comps["n=0,m=-2"] = f"3*({comps['n=0,m=-2']})"
        elif case == "m=-1 without its sign":
            comps["n=0,m=-1"] = f"-({comps['n=0,m=-1']})"
        elif case == "non-real eigenvalue":
            doc["eigenvalues"]["G"] = "-42 + i"
        p.write_text(json.dumps(doc))
        so3_model()  # built before the count
        calls, is_zero = [], nc.is_zero
        monkeypatch.setattr(nc, "is_zero", lambda *args: calls.append(args) or is_zero(*args))
        result, out = run(capsys, "verify", "--family", str(p))
        assert (result, len(calls)) == (code, zero_checks)
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["ok"]}
        assert failed == {f"recertify: casimir-eigenvalue m={m}" for m in range(-6, 7) if code}

    @pytest.mark.parametrize("monomials", [
        [],
        [{"upper": [], "lower": ["+1", "-1"], "scalar": "m*h*cos(theta)"}],
        [{"upper": [], "lower": ["+1", "nope"], "scalar": "h"}],
    ])
    def test_bad_assembly_is_an_input_error(self, capsys, tmp_path, monomials):
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--type", "2,0", "--l", "0", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        doc["assemblies"] = {"m=0": monomials}
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--family", str(p))

    @pytest.mark.parametrize("field,value", [
        ("components", {"n=0,m=0": "sin(theta"}),
        ("components", {"n=0,m=0": "m*cos(theta)"}),  # m is not a coordinate
        ("components", ["cos(theta)"]),
        ("components", {"n=1,m=0": 3}),
        ("components", {"m0": "cos(theta)"}),
        ("eigenvalues", "-2"),
        ("certificates", [1]),
    ])
    def test_malformed_field_is_an_input_error(self, capsys, tmp_path, field, value):
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--l", "1", "--m", "0", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        doc[field] = value
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--family", str(p))

    @pytest.mark.parametrize("names", [
        {"n=0,m=1": "n=0,m=+1", "n=0,m=0": "n=0,m=0_0"},
        {"n=0,m=1": "n=0,m= 1"},
        {"n=0,m=1": "n=0,m=01"},
        {"n=0,m=1": "m=1"},
    ], ids=["signed-and-underscored", "spaced", "leading-zero", "no-n-prefix"])
    def test_scalar_key_without_a_plain_weight_is_an_input_error(self, capsys, tmp_path, names):
        """A scalar component's key carries its weight as the builder writes
        it, n=0,m=<int>; any other spelling of a weight is refused."""
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--l", "1", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        doc["components"] = {names.get(key, key): comp for key, comp in doc["components"].items()}
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--family", str(p))

    @pytest.mark.parametrize("doc", [None, [], "so3", 1])
    def test_document_must_be_an_object(self, capsys, tmp_path, doc):
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        err = assert_input_error(capsys, "verify", "--family", str(p))
        assert "family document must be a JSON object" in err

    @pytest.mark.parametrize("label", ["nan", "x", None, "1e400"])
    def test_bad_hyper_label_is_an_input_error(self, capsys, tmp_path, label):
        p = tmp_path / "fam.json"
        assert main(["harmonics", "bianchi2", "--hyper", "--mu", "0.2", "--nu", "0.3",
                     "--lam", "1.5", "--out", str(p)]) == 0
        doc = json.loads(p.read_text())
        doc["labels"]["lambda"] = label
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--family", str(p))

    def test_certification_errors_are_not_input_errors(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--l", "1", "--m", "0", "--out", str(p)]) == 0

        def fail(*args):
            raise ValueError("solver failure")

        monkeypatch.setattr(So3Model, "scalar_certificates", fail)
        with pytest.raises(ValueError, match="solver failure"):
            main(["verify", "--family", str(p)])

    def test_covector_family_recertifies(self, capsys, tmp_path):
        # the document holds casimir-eigenvalue and y-translation-eigenvalue
        # twice, the tensor's and then its scalar's; each recomputed check
        # answers its own stored certificate, one check per certificate
        doc = bianchi2_model().covector_harmonic(2, 0, 1).to_json()
        assert doc["certified"]
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        checks = json.loads(out)["checks"]
        zero = "symbolically-zero"
        assert [(c["name"], c["stored"], c["recomputed"]) for c in checks] == [
            ("recertify: casimir-eigenvalue", "ok", "ok"),
            ("recertify: y-translation-eigenvalue", "ok", "ok"),
            ("recertify: casimir-eigenvalue #2", zero, zero),
            ("recertify: y-translation-eigenvalue #2", zero, zero),
            ("recertify: z-translation-eigenvalue", zero, zero),
            ("recertify: lowering-relation", zero, zero),
        ]
        assert len(checks) == len(doc["certificates"])
        leg = doc["assemblies"]["covector"][1]
        leg["scalar"] = f"v*({leg['scalar']})"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 1
        assert [c["ok"] for c in json.loads(out)["checks"]] == [False, True, True, True, True, True]

    def test_point_series_recertifies(self, capsys, tmp_path):
        p = tmp_path / "fam.json"
        code = main(["harmonics", "bianchi2", "--point-series",
                     "--n", "2", "--m", "0", "--nu", "1", "--out", str(p)])
        assert code == 0
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        assert json.loads(out)["ok"]

    def _point_series_document(self, tmp_path):
        p = tmp_path / "fam.json"
        assert main(["harmonics", "bianchi2", "--point-series",
                     "--n", "3", "--m", "1", "--nu", "1/2", "--out", str(p)]) == 0
        return p, json.loads(p.read_text())

    def test_point_series_recomputes_every_certificate(self, capsys, tmp_path):
        """Each stored certificate is recomputed from the component and the
        labels, so a document whose nu label no longer matches its component
        fails (the z translation and the lowering relation)."""
        p, doc = self._point_series_document(tmp_path)
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == len(doc["certificates"]) == 4
        assert [c["name"] for c in checks] == [f"recertify: {c['name']}" for c in doc["certificates"]]
        doc["labels"]["nu"] = "1"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--family", str(p))
        assert code == 1
        assert [c["ok"] for c in json.loads(out)["checks"]] == [True, True, False, False]

    @pytest.mark.parametrize("labels", [{"n": 2**70}, {"m": -100}, {"n": "3"}, {"m": 3}, {"nu": "x"}],
                             ids=["n-too-large", "n-m-too-large", "n-text", "m-not-below-n", "nu-text"])
    def test_point_series_labels_are_input(self, capsys, tmp_path, labels):
        """Labels the builder would refuse are an input error (exit 2), and a
        label past the builder's bound is refused before any work."""
        p, doc = self._point_series_document(tmp_path)
        doc["labels"].update(labels)
        p.write_text(json.dumps(doc))
        assert_input_error(capsys, "verify", "--family", str(p))


# small grid exports, pinned byte for byte in both formats
GRID_EXPORTS = {
    "so3-scalar": ["so3", "--l", "2", "--grid", "theta=0.3:2.8:7", "--grid", "phi=0.1:6.0:9"],
    "so3-tensor": ["so3", "--type", "2,0", "--l", "1", "--grid", "theta=0.4:2.6:3", "--grid", "phi=0.2:5:4"],
    "point-series": ["bianchi2", "--point-series", "--n", "3", "--m", "1", "--nu", "1/2",
                     "--grid", "v=-0.8:0.8:4", "--grid", "y=-0.5:0.5:3", "--grid", "z=-0.9:0.9:2"],
    "repeated-axis": ["so3", "--l", "1", "--grid", "theta=1:1:3", "--grid", "phi=0.5:1.5:2"],
    "single-point-axis": ["bianchi2", "--point-series", "--n", "2", "--m", "1", "--nu", "2",
                          "--grid", "v=-1:1:3", "--grid", "y=2:2:1", "--grid", "z=0:0:1"],
    "negative-zero": ["bianchi2", "--point-series", "--n", "1", "--m=-1", "--nu", "1/2",
                      "--grid", "v=-0:-1:3", "--grid", "y=-1:1:3", "--grid", "z=0:0:1"],
}
GRID_EXPORT_SHA = {
    ("so3-scalar", "json"):
        "fec6a36e71291998a0c22fcdd0cd446a8c4cd4924ebf8dc7d7042cb043f79f3f",
    ("so3-scalar", "csv"):
        "d579c16fd53fc4383fb931f610e146f4b347a264c91db4f1e1acb0a472ea2315",
    ("so3-tensor", "json"):
        "2bec5945a9c9c597b5fab53c7d247793034c521503640396e92feada31657948",
    ("so3-tensor", "csv"):
        "ee8c10ec050fcae7d4813fb76078b8bb664ee18ba6b85788798b9a8b6321b74b",
    ("point-series", "json"):
        "493cc527aceeb58dc44deb1e640a3d8734c6e16a26555dc210a80015f8faadf8",
    ("point-series", "csv"):
        "9629d1ecc9b8d4eea1132e30194f26b9e1aabda9f4a069f72d50595a2f2bbb3b",
    ("repeated-axis", "json"):
        "8290e8947b9aecee3d381d816352bc765ac23025e20d1ccf11766e35928fc2c9",
    ("repeated-axis", "csv"):
        "a09f068833377ed56b53e2d177e75f4f5ba80c743e2feaa5138ad95d2678b440",
    ("single-point-axis", "json"):
        "989170926c9f6cf60fc082dcca042c239846943de667a15859671be59855a89f",
    ("single-point-axis", "csv"):
        "a69b80ed8acb8aeb933bab1ffacf98a8dc0f5858745aabb27a5c59edb908b074",
    ("negative-zero", "json"):
        "49e3f5794d0c356abace800491fd382bae7ffe11c000a372f833792daa3e25ae",
    ("negative-zero", "csv"):
        "159aa6fdda536b0f0691290fbce2c29bbd8454917696e622a6eb3fdbc391ef6b",
}


class TestDeterminism:
    def test_report_digest_is_stable(self, capsys):
        _, a = run(capsys, "verify", "--model", "so3", "--seed", "11")
        _, b = run(capsys, "verify", "--model", "so3", "--seed", "11")
        da, db = json.loads(a), json.loads(b)
        assert da["digest"] == db["digest"]
        # body excluding timings is byte-identical
        da.pop("timings"), db.pop("timings")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_tensor_family_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        """Regression gate for kernel changes: the `--type 2,0 --l 1` family
        document and its `verify --family` digest, as released when linear
        cos bases began to divide out of numerators and reports began to
        name input files by digest."""
        monkeypatch.chdir(tmp_path)
        assert main(["harmonics", "so3", "--type", "2,0", "--l", "1", "--seed", "0",
                     "--out", "fam.json"]) == 0
        family = (tmp_path / "fam.json").read_bytes()
        assert hashlib.sha256(family).hexdigest() == (
            "6c4ac835549926a50a1a5fda17e41548aeb45e3deab47c695621e73554428a77")
        code, out = run(capsys, "verify", "--family", "fam.json", "--seed", "0")
        assert code == 0
        assert json.loads(out)["digest"] == (
            "baea38f3be2030ffea72f4e677dcdcb4db8aa741ab1f14eb62d6a6b1b212ad12")

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_tensor_family_bytes_do_not_follow_hash_order(self, tmp_path, hash_seed):
        """Atoms hash by address and strings by the interpreter's hash seed,
        so a fresh interpreter under each of two seeds must still write the
        pinned `--type 2,0 --l 1` document."""
        src = str(pathlib.Path(casimir.__file__).parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "casimir.cli", "harmonics", "so3", "--type", "2,0",
                               "--l", "1", "--seed", "0", "--out", "fam.json"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256((tmp_path / "fam.json").read_bytes()).hexdigest() == (
            "6c4ac835549926a50a1a5fda17e41548aeb45e3deab47c695621e73554428a77")

    def test_benchmarked_tensor_family_bytes_are_pinned(self, tmp_path):
        """The `--type 2,0 --l 2` family the tensor-cert benchmark runs, as
        released when linear cos bases began to divide out of numerators."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--type", "2,0", "--l", "2", "--seed", "0",
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "29cc502567c536322363bc6d161a26cac5e422dca857ffbc10dffe648f5d99b1")

    @pytest.mark.parametrize("l,digest", [
        (2, "78bc60b8d38b331903e7b0d1314659303501aa08308cf21138c15178b537f3a5"),
        (4, "a2d7055bc10609c215b2fd622ba6e876b21e275b69c052ff479cd528e8ad4c1d"),
    ])
    def test_tensor_family_verify_digests_are_pinned(self, capsys, tmp_path, l, digest):
        """The `verify --family` digests of the `--type 2,0 --l 2` and `--l 4`
        documents, as released before the m < 0 certificates were derived
        by conjugation."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--type", "2,0", "--l", str(l), "--seed", "0",
                     "--out", str(path)]) == 0
        code, out = run(capsys, "verify", "--family", str(path), "--seed", "0")
        assert code == 0
        assert json.loads(out)["digest"] == digest

    @pytest.mark.parametrize("model,seed,digest", [
        ("bianchi2", 0, "ca880e1a226ed7a02708340e2acaeb0e4a2e9173cc2a5c2c87c685bd4924dc96"),
        ("bianchi2", 1, "2d6707e01800cf1769432eaf183e81749a198ecd34cdee5384aa49dd1a6be00b"),
        ("abelian", 0, "c25c28a4ff6dccaf8e13d2e2b48f821d749862a355bdcee48b9029bd29e3a1f0"),
        ("abelian", 1, "0a7422158ee63ea558e19a1bd19c49b9f5fe882e46cb7084b673734d1ef61354"),
    ])
    def test_build_metric_digests_are_pinned(self, capsys, model, seed, digest):
        """Regression gate for the invariant-frame solver: the `build-metric`
        digests of the built-in models whose Cartan tensor is degenerate, as
        released while the frame was integrated along generator flows."""
        code, out = run(capsys, "build-metric", "--model", model, "--seed", str(seed))
        assert code == 0
        assert json.loads(out)["digest"] == digest

    @pytest.mark.parametrize("argv,digest", [
        (["verify", "--model", "so3"], "e7e93c5ee9b1cb912951868dd02530c8a4e990d456be0e5da3eee03a6fbc96e0"),
        (["verify", "--model", "bianchi2"], "d793406a89f9db8296be6d30321fc80d0c560695b5a6833228b5c72124a895ad"),
        (["verify", "--model", "abelian"], "652fc4c671708befdf9ad5a2619a662d7d4d9f2f224ffe77af5b893307cf251a"),
        (["verify", "--model", str(HEISENBERG)],
         "4182a7eaf442328e0eb422558b4f0102466c859d3aa21cbd8c0b9d125d05a5da"),
        (["verify", "--model", README_MODEL],
         "78b733576ea3452b94a87cc075115b1c96e6cfc8f9e1c28d81547eda9397f936"),
        (["reduce", "--model", "so3", "--lower", "+1,+1"],
         "4e126d4ee83ea79f8cddc6092f15c752f936b94bf2e9d4ff2beae0a82712071b"),
        (["reduce", "--model", "bianchi2", "--lower", "1"],
         "403400d4df4c952645ffc6be5a849e877c704df4f9c3edba371616866917025c"),
        (["reduce", "--model", README_MODEL, "--lower", "1"],
         "dd502c80734f9bb219e88f874edf23bebc5dbcdc40296f394561fe307b998674"),
    ])
    def test_model_report_digests_are_pinned(self, capsys, tmp_path, argv, digest):
        """Regression gate for the frame layer (`compute_mu` feeds every one
        of these reports): `verify --model` and `reduce` on the built-in
        models, the Heisenberg file and README's model file, as released
        while `compute_mu` also checked the off-axis pairings and the dual
        action."""
        argv = [model_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        code, out = run(capsys, *argv, "--seed", "0")
        assert code == 0
        assert json.loads(out)["digest"] == digest

    @pytest.mark.parametrize("argv,sha", [
        (["so3", "--l", "4"], "d6420ae5b3c7f6ba88be97f45ffb67695c6a281a3656f9cdca6f6ba52110b521"),
        (["bianchi2", "--point-series", "--n", "3", "--m", "1", "--nu", "1/2"],
         "08398fde3baf04e10937284035ba56bbc6e4c193c6a852d7cd2276011a91c00f"),
    ])
    def test_half_power_family_bytes_are_pinned(self, tmp_path, argv, sha):
        """Regression gate for the half-power and numeric-radicand paths: the
        so3 scalar family at l = 4 (as released when linear cos bases began
        to divide out of numerators) and a bianchi2 point series with a
        half-integer label (as released before integral parts became ints)."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", *argv, "--seed", "0", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("argv,sha", [
        (["--l", "12"], "7e19dc58c9d56867a91d1c577876c79dca308696d52b636275d045986549a37f"),
        (["--type", "2,0", "--l", "4"], "69034b08f9c3afac42e0a2f9c190e3139ac48adc5f8e4817f3d476e7dde397bb"),
    ])
    def test_lowered_family_bytes_are_pinned(self, tmp_path, argv, sha):
        """Regression gate for the so3 lowering recurrence, as released when
        every member was lowered through the symbolic kernel: every weight of
        the scalar family at l = 12 (twelve steps each way), and the tensor
        family at l = 4 (odd and even n, tops with half powers)."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", "so3", *argv, "--seed", "0", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    def test_benchmarked_scalar_family_bytes_are_pinned(self, tmp_path):
        """The `--l 6` family the library-session benchmark builds, as
        released before its m < 0 certificates were derived by conjugation."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--l", "6", "--seed", "0", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6bf7ab13a52e3a123a7e5b109b04353d14011bf49becc1d2cba2464afd9fc869")

    @pytest.mark.parametrize("l,digest", [
        (4, "e0c80078dfc5608f96e3f0af949f91ef52c44218d2892d21a72e01a0d15d5b21"),
        (6, "268bbdfaa823108d5e0c605337fc0f82e49a518b536cb4053d288b66f3374836"),
    ])
    def test_scalar_family_verify_digests_are_pinned(self, capsys, tmp_path, l, digest):
        """The `verify --family` digests of the `--l 4` and `--l 6` scalar
        documents, as released before their m < 0 certificates were derived
        by conjugation."""
        path = tmp_path / "fam.json"
        assert main(["harmonics", "so3", "--l", str(l), "--seed", "0", "--out", str(path)]) == 0
        code, out = run(capsys, "verify", "--family", str(path), "--seed", "0")
        assert code == 0
        assert json.loads(out)["digest"] == digest

    def test_partial_scalar_family_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        """A one-member family built only down to m = 0, and its `verify
        --family` digest, as released when linear cos bases began to divide
        out of numerators and reports began to name input files by digest."""
        monkeypatch.chdir(tmp_path)
        assert main(["harmonics", "so3", "--l", "6", "--m", "0", "--seed", "0",
                     "--out", "fam.json"]) == 0
        family = (tmp_path / "fam.json").read_bytes()
        assert hashlib.sha256(family).hexdigest() == (
            "47095e834f56f4d8465d0681cba12f6dc056265a9af353b3e1cd3248055d25a9")
        code, out = run(capsys, "verify", "--family", "fam.json", "--seed", "0")
        assert code == 0
        assert json.loads(out)["digest"] == (
            "6bb2e494086a206d80e405451a07139a2dc6b3d9b37a45088277001f928fb2ea")

    @pytest.mark.parametrize("argv,sha", [
        pytest.param(GRID_EXPORTS[case] + ["--format", fmt], GRID_EXPORT_SHA[case, fmt], id=f"{case}-{fmt}")
        for case in GRID_EXPORTS for fmt in ("json", "csv")
    ])
    def test_grid_export_bytes_are_pinned(self, tmp_path, argv, sha):
        """Regression gate for grid evaluation and sample rendering, as
        released when each component was evaluated on the grid by its own
        program.  The cases hold labels that CSV must quote, repeated and
        single-point axes, and a coordinate and a value that are -0."""
        path = tmp_path / "grid.out"
        assert main(["harmonics", *argv, "--seed", "0", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    def test_grid_export_shows_negative_zero(self, capsys):
        code, out = run(capsys, "harmonics", *GRID_EXPORTS["negative-zero"], "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "-0"  # v = -0 + (-1 - -0) * 0
        assert rows[1][3] == "-0"  # v * exp(-y + z/2) * (1 + v^2)^(-1/2) at v = -0

    def test_digests_do_not_depend_on_the_path_as_typed(self, capsys, tmp_path, monkeypatch):
        """An input file is named in a report by the sha256 of its bytes, so
        a relative and an absolute path to it give one report digest."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fam.json").write_text(_stripped_document("tensor family without one assembly"))
        model_file(tmp_path, README_MODEL)
        cases = [(("verify", "--family"), "fam.json"), (("verify", "--model"), "model.json"),
                 (("build-metric", "--model"), "model.json"), (("reduce", "--lower", "1", "--model"), "model.json")]
        for argv, name in cases:
            docs = [json.loads(run(capsys, *argv, path)[1]) for path in (name, str(tmp_path / name))]
            assert docs[0]["digest"] == docs[1]["digest"], argv
            sha = "sha256:" + hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert docs[0]["inputs"][argv[-1].removeprefix("--")] == sha

    def test_seed_changes_inputs_echo_only_not_verdicts(self, capsys):
        _, a = run(capsys, "verify", "--model", "so3", "--seed", "1")
        _, b = run(capsys, "verify", "--model", "so3", "--seed", "2")
        da, db = json.loads(a), json.loads(b)
        assert da["ok"] and db["ok"]
        assert da["digest"] != db["digest"]  # the seed is part of the report

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_SEED", "42")
        _, out = run(capsys, "verify", "--model", "abelian")
        assert json.loads(out)["seed"] == 42

    def test_env_seed_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_SEED", "abc")
        assert_input_error(capsys, "verify", "--model", "abelian")


class TestReduceAndResidual:
    def test_reduce_rotation_weighted_slot(self, capsys):
        code, out = run(capsys, "reduce", "--model", "so3", "--lower", "+1")
        assert code == 0
        sing = "(1 + cos(theta))^(-1)*(1 - cos(theta))^(-1)"
        assert operator_table(out) == [
            ([0, 0, 0], f"-{sing}"),
            ([0, 0, 1], f"-2*i*cos(theta)*{sing}"),  # the weighted first-order term
            ([0, 0, 2], sing),
            ([0, 1, 0], f"cos(theta)*sin(theta)*{sing}"),
            ([0, 2, 0], "1"),
        ]

    def test_reduce_solvable_is_plain_casimir(self, capsys, tmp_path):
        for model in ("bianchi2", model_file(tmp_path, README_MODEL)):
            for lower in ("1", "1,2"):
                code, out = run(capsys, "reduce", "--model", model, "--lower", lower)
                assert code == 0
                assert operator_table(out) == [
                    ([0, 0, 2], "1"),
                    ([0, 2, 0], "1"),
                    ([1, 0, 0], "v"),
                    ([1, 1, 0], "-2*v"),
                    ([2, 0, 0], "1 + v^2"),
                ]

    def test_reduce_certifies_the_model_files_frame_and_metric(self, capsys, tmp_path):
        code, out = run(capsys, "reduce", "--model", model_file(tmp_path, README_MODEL), "--lower", "1")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["ok"]) for c in checks] == [
            ("frame", True), ("killing-condition", True), ("reduced-operator", True)]
        assert checks[0]["mu"] == [["0"] * 3] * 3

    @pytest.mark.parametrize("change,failed,error", [
        ({"frame": {"vectors": SINGULAR_FRAME}}, "frame", "singular"),
        ({"frame": {"vectors": IDENTITY}}, "frame", "off its axis"),
        ({"metric": IDENTITY}, "killing-condition", None),
    ], ids=["singular-frame", "not-eigen-frame", "not-killing-metric"])
    def test_reduce_refuses_an_uncertified_model_file(self, capsys, tmp_path, change, failed, error):
        code, out = run(capsys, "reduce", "--model", model_file(tmp_path, {**README_MODEL, **change}),
                        "--lower", "1")
        assert code == 1
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"] if not c["ok"]] == [failed]
        assert [c["name"] for c in doc["checks"]] == ["frame", "killing-condition"]
        assert error is None or error in doc["checks"][0]["error"]
        assert "operator" not in doc

    def test_reduce_records_legs_by_frame_name(self, capsys):
        docs = [json.loads(run(capsys, "reduce", "--model", "so3", f"--lower={legs}")[1])
                for legs in ("+1,+1", " +1 , +1 ")]
        assert docs[0]["inputs"] == {"model": "so3", "upper": [], "lower": ["+1", "+1"]}
        assert docs[0]["digest"] == docs[1]["digest"]

    def test_reduce_unknown_leg(self, capsys):
        assert main(["reduce", "--model", "so3", "--lower", "nope"]) == 2

    def test_residual_accepts_eigenfunction(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        assert main(["residual", "--model", "so3", "--tensor", str(p),
                     "--eigenvalue", "-2"]) == 0

    def test_residual_rejects_wrong_eigenvalue(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        assert main(["residual", "--model", "so3", "--tensor", str(p),
                     "--eigenvalue", "-6"]) == 1

    def test_residual_on_monomials(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({
            "monomials": [
                {"upper": [], "lower": ["1"], "scalar": "exp(z)*(1+v^2)^(1/2)"},
            ]
        }))
        assert main(["residual", "--model", "bianchi2", "--tensor", str(p),
                     "--eigenvalue", "2"]) == 0

    @pytest.mark.parametrize("eigenvalue", ["1/0", "(2-2)^(-1)"])
    def test_residual_eigenvalue_dividing_by_zero(self, capsys, tmp_path, eigenvalue):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        assert_input_error(capsys, "residual", "--model", "so3", "--tensor", str(p),
                           "--eigenvalue", eigenvalue)

    @pytest.mark.parametrize("eigenvalue", [
        "-2*(2^60*3^40*61^2*67^2)^(1/2)/(2^30*3^20*61*67)",  # smooth
        "-2*(1000000000000037^2)^(1/2)/1000000000000037",  # the square of a large prime
        "-2*(10007*10009)^(1/2)/(10007*10009)^(1/2)",  # two primes above the trial bound
    ])
    def test_residual_settles_radicands_it_can_factor(self, capsys, tmp_path, eigenvalue):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        assert main(["residual", "--model", "so3", "--tensor", str(p), f"--eigenvalue={eigenvalue}"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["eigenvalue"] == "-2"

    def test_residual_refuses_a_radicand_it_cannot_factor(self, capsys, tmp_path):
        # a prime near 10^15: trial division up to its root would take seconds
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        err = assert_input_error(capsys, "residual", "--model", "so3", "--tensor", str(p),
                                 "--eigenvalue", "1000000000000037^(1/2)")
        assert "radicand 1000000000000037" in err

    def test_residual_overflow_names_the_sample_point(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["exp(exp(exp(theta)))"]}))
        assert main(["residual", "--model", "so3", "--tensor", str(p), "--eigenvalue", "-2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: sample point overflowed floating point at {'theta': ")
        assert "Traceback" not in err

    def test_residual_non_finite_value_names_the_sample_point(self, capsys, tmp_path):
        """Complex arithmetic overflows to inf or nan without raising; a
        report never holds such a value."""
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["10^308*exp(10)*v - 10^308*exp(9)*v"]}))
        err = assert_input_error(capsys, "residual", "--model", "bianchi2", "--tensor", str(p),
                                 "--eigenvalue", "0")
        assert err.startswith("input error: sample point has no finite value at {'v': ")

    @pytest.mark.parametrize("tensor_type", [[1, -1], [-1, 1], [1.5, 0], [True, False]])
    def test_residual_tensor_type_must_be_counts(self, capsys, tmp_path, tensor_type):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": tensor_type, "components": ["1"] * 3}))
        assert main(["residual", "--model", "so3", "--tensor", str(p), "--eigenvalue", "-2"]) == 2
        assert "non-negative integers" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json", '{"type": 5, "components": []}', "[1]",
        '{"type": [1, -1], "components": ["1"]}', '{"type": [-1, 1], "components": ["1"]}',
        '{"type": [1.5, 0], "components": ["1", "1", "1", "1", "1"]}',
        '{"type": [true, false], "components": ["1", "1", "1"]}',
        '{"type": [0, 0], "components": ["1/(theta-theta)"]}',
        '{"type": [0, 0], "components": ["cot(phi-phi)"]}',
        '{"type": [0, 0], "components": ["exp(exp(exp(theta)))"]}',
        '{"type": [0, 0], "components": ["exp(exp(exp(3)))"]}',
        '{"type": [1180591620717411303423, 0], "components": ["1"]}',  # 3^(2^70) components: was a hang
    ])
    def test_residual_bad_tensor_file(self, capsys, tmp_path, text):
        p = tmp_path / "t.json"
        p.write_text(text)
        assert_input_error(capsys, "residual", "--model", "so3", "--tensor", str(p), "--eigenvalue", "-2")

    def test_residual_product_of_written_sums_is_bounded(self, capsys, tmp_path):
        """Each factor's product stays under the kernel's bound while the
        work grows with the square of the text: the whole term is bounded."""
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["*".join(["(1+r)"] * 800)]}))
        start = time.perf_counter()
        err = assert_input_error(capsys, "residual", "--model", "so3", "--tensor", str(p), "--eigenvalue", "-2")
        assert time.perf_counter() - start < 1
        assert "term products" in err

    @pytest.mark.parametrize("eigenvalue", [
        "(" * 400 + "1" + ")" * 400, "-" * 1000 + "1", "\u00b2", "1e99999999", "1" * 5000, "sin(1)^2000",
        "9^9999999",
    ], ids=["nesting", "signs", "superscript", "exponent", "digits", "sin-power", "exact-power"])
    def test_residual_eigenvalue_text_bounds(self, capsys, tmp_path, eigenvalue):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"type": [0, 0], "components": ["cos(theta)"]}))
        start = time.perf_counter()
        assert_input_error(capsys, "residual", "--model", "so3", "--tensor", str(p), f"--eigenvalue={eigenvalue}")
        assert time.perf_counter() - start < 5

    def test_residual_names_its_tensor_file_by_digest(self, capsys, tmp_path):
        """The same tensor bytes in two directories give one report digest."""
        text = json.dumps({"type": [0, 0], "components": ["cos(theta)"]})
        docs = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "t.json").write_text(text)
            argv = ("residual", "--model", "so3", "--tensor", str(tmp_path / d / "t.json"), "--eigenvalue", "-2")
            docs.append(json.loads(run(capsys, *argv)[1]))
        assert docs[0]["digest"] == docs[1]["digest"]
        assert docs[0]["inputs"]["tensor"] == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# Jacobi fails: [e1, e2] = e3, [e2, e3] = e1 and [e3, e1] = e1
JACOBI_VIOLATING = {**BUILTIN_MODELS["abelian"], "structure_constants": {"r": 3, "C": [
    {"k": 3, "i": 1, "j": 2, "value": "1"}, {"k": 1, "i": 2, "j": 3, "value": "1"},
    {"k": 1, "i": 3, "j": 1, "value": "1"}]}}


def _family_missing_a_certificate(tmp_path) -> str:
    """An so3 scalar family document whose `axis-eigenvalue m=0` was deleted."""
    p = tmp_path / "fam.json"
    assert main(["harmonics", "so3", "--l", "1", "--out", str(p)]) == 0
    doc = json.loads(p.read_text())
    doc["certificates"] = [c for c in doc["certificates"] if c["name"] != "axis-eigenvalue m=0"]
    p.write_text(json.dumps(doc))
    return str(p)


# argv builders of CLI error paths, by the exit code each must give
ERROR_PATHS = {
    "so3 without --l": (2, lambda tmp: ["harmonics", "so3"]),
    "unsupported tensor type": (2, lambda tmp: ["harmonics", "so3", "--type", "1,1", "--l", "1"]),
    "hyper without --lam": (2, lambda tmp: ["harmonics", "bianchi2", "--hyper", "--mu", "0", "--nu", "0"]),
    "point series without --nu": (2, lambda tmp: ["harmonics", "bianchi2", "--point-series", "--n", "2",
                                                  "--m", "0"]),
    "bianchi2 without a mode": (2, lambda tmp: ["harmonics", "bianchi2"]),
    "residual on a model file": (2, lambda tmp: ["residual", "--model", "abelian", "--tensor", "t.json",
                                                 "--eigenvalue", "0"]),
    "missing tensor file": (2, lambda tmp: ["residual", "--model", "so3", "--tensor", str(tmp / "none.json"),
                                            "--eigenvalue", "0"]),
    "Jacobi-violating constants": (1, lambda tmp: ["build-metric", "--model",
                                                   model_file(tmp, JACOBI_VIOLATING)]),
    "no stored certificate": (1, lambda tmp: ["verify", "--family", _family_missing_a_certificate(tmp)]),
}


@pytest.mark.parametrize("case", list(ERROR_PATHS))
def test_error_paths(capsys, tmp_path, case):
    want, argv = ERROR_PATHS[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    if want == 2:
        assert_input_error(capsys, *argv)
        return
    code, out = run(capsys, *argv)
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == {
        "Jacobi-violating constants": ["structure-constants"],
        "no stored certificate": ["recertify: axis-eigenvalue m=0"],
    }[case]
    assert case != "no stored certificate" or failed[0]["error"] == "no stored certificate"
