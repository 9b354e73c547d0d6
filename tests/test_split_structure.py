"""Invariant frames, invariant projectors, scale factors, and invariant metrics."""

import math
import sys

import pytest

from casimir import expr as ex
from casimir import lie_algebra as la
from casimir import numcheck as nc
from casimir import operator as op
from casimir import split_structure as ss
from casimir import tensor_fields as tf
from casimir.modelio import load_model
from casimir.models import bianchi2_model, so3_model
from casimir.models.bianchi2 import Bianchi2Model
from casimir.parser import parse
from helpers import HEISENBERG, abelian_constants, bianchi2_constants, so3_constants


@pytest.fixture(scope="module")
def solv():
    chart = tf.Chart("solv", ("v", "y", "z"), {"v": (-0.9, 0.9), "y": (-1, 1), "z": (-1, 1)})
    rows = (("exp(-y)", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    gens = [tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row)) for row in rows]
    return chart, gens, bianchi2_constants()


@pytest.fixture(scope="module")
def solv_solution(solv):
    chart, gens, sc = solv
    return ss.solve_invariant_frame(sc, gens)


@pytest.fixture(scope="module")
def rot3():
    chart = tf.Chart(
        "rot3",
        ("r", "theta", "phi"),
        {"r": (1.0, 2.0), "theta": (0.01, math.pi - 0.01), "phi": (0.05, 6.2)},
        (ex.sin(ex.sym("theta")),),
    )
    ladder_rows = (
        ("0", "exp(i*phi)", "i*cot(theta)*exp(i*phi)"),
        ("0", "-exp(-i*phi)", "i*cot(theta)*exp(-i*phi)"),
        ("0", "0", "-i"),
    )
    ladder = [tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row)) for row in ladder_rows]
    sc = la.StructureConstants.from_sparse(
        3,
        [
            {"k": 3, "i": 1, "j": 2, "value": "2"},
            {"k": 1, "i": 1, "j": 3, "value": "-1"},
            {"k": 2, "i": 2, "j": 3, "value": "1"},
        ],
    )
    frame_rows = (("1", "0", "0"), ("0", "1/2", "-i/2*sin(theta)^(-1)"), ("0", "1/2", "i/2*sin(theta)^(-1)"))
    vecs = [tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row)) for row in frame_rows]
    frame = ss.frame_from_vectors(chart, vecs, ("r", "+1", "-1"))
    return chart, ladder, sc, frame


class TestInvariantFrame:
    def test_solution_matches_known_frame(self, solv, solv_solution):
        chart, gens, sc = solv
        fs = solv_solution
        want_L = (("exp(y)", "-v*exp(y)", "0"), ("0", "1", "0"), ("0", "0", "1"))
        for a in range(3):
            for d in range(3):
                w = parse(want_L[a][d], chart.coords)
                assert ex.simplify(ex.sub(fs.L[a][d], w)) == ex.ZERO
        want_vectors = (("1", "0", "0"), ("-v", "1", "0"), ("0", "0", "1"))
        for d in range(3):
            for c in range(3):
                w = parse(want_vectors[d][c], chart.coords)
                assert ex.simplify(ex.sub(fs.mu.frame.vectors[d].comps[c], w)) == ex.ZERO
        assert fs.mu.invariant()

    def test_dual_covectors(self, solv, solv_solution):
        chart, _, _ = solv
        want = (("1", "v", "0"), ("0", "1", "0"), ("0", "0", "1"))
        for a in range(3):
            for c in range(3):
                w = parse(want[a][c], chart.coords)
                assert ex.simplify(ex.sub(solv_solution.mu.frame.covectors[a].comps[c], w)) == ex.ZERO

    def test_frame_annihilated_by_generators(self, solv, solv_solution):
        chart, gens, _ = solv
        box = chart.full_box()
        for g in gens:
            for v in solv_solution.mu.frame.vectors:
                ld = tf.lie_derivative(g, tf.TensorField(chart, 1, 0, v.comps))
                assert all(nc.is_zero(c, box).is_zero for c in ld.comps)

    def test_abelian_gives_identity(self):
        chart = tf.Chart("ab", ("x", "y", "z"), {c: (-1, 1) for c in ("x", "y", "z")})
        gens = [
            tf.VectorField(chart, tuple(ex.ONE if i == j else ex.ZERO for j in range(3)))
            for i in range(3)
        ]
        fs = ss.solve_invariant_frame(abelian_constants(3), gens)
        assert all(
            fs.L[a][d] == (ex.ONE if a == d else ex.ZERO) for a in range(3) for d in range(3)
        )

    def test_not_simply_transitive(self, rot3):
        chart, ladder, sc, _ = rot3
        with pytest.raises(ss.NotSimplyTransitiveError):
            ss.solve_invariant_frame(so3_constants(), ladder[:3])
        # rank deficiency: three fields on a 3d chart spanning only 2 directions
        # is caught by the numeric independence sweep
        chart2 = tf.Chart("flat", ("x", "y", "z"), {c: (-1, 1) for c in ("x", "y", "z")})
        gens = [
            tf.VectorField(chart2, tuple(parse(s, chart2.coords) for s in row))
            for row in (("1", "0", "0"), ("0", "1", "0"), ("1", "1", "0"))
        ]
        with pytest.raises(ss.NotSimplyTransitiveError):
            ss.solve_invariant_frame(abelian_constants(3), gens)

    def test_unstraightened_realization_has_no_closed_form(self):
        chart = tf.Chart("xyz", ("x", "y", "z"), {c: (-1, 1) for c in ("x", "y", "z")})
        gens = [
            tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row))
            for row in (("1", "0", "0"), ("x", "1", "0"), ("0", "0", "1"))
        ]
        with pytest.raises(ss.NoClosedFormError):
            ss.solve_invariant_frame(bianchi2_constants(), gens)

    def test_basis_size_is_bounded(self):
        """Fifty exponentials give a basis of 3 * 4 * 101 unknowns, past the bound."""
        chart = tf.Chart("xyz", ("x", "y", "z"), {c: (-1, 1) for c in ("x", "y", "z")})
        first = " + ".join(f"exp({k}*y)" for k in range(1, 51))
        gens = [
            tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row))
            for row in ((first, "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
        ]
        with pytest.raises(ss.NoClosedFormError, match="1212 unknowns"):
            ss.solve_invariant_frame(bianchi2_constants(), gens)

    def test_heisenberg_frame(self):
        """Bianchi type II, the paper's G3II: the generators move several
        coordinates, and the frame is polynomial."""
        spec = load_model(str(HEISENBERG))
        fs = ss.solve_invariant_frame(spec.constants, spec.generators)
        want = (("1", "y", "-x"), ("0", "1", "0"), ("0", "0", "1"))
        assert [[ex.unparse(e) for e in row] for row in fs.L] == [list(row) for row in want]
        assert fs.mu.invariant()


def _projector(frame, a) -> tf.TensorField:
    """The rank-one projector e_a (x) e^a of the frame's a-th dual pair."""
    d = frame.chart.dim
    v, w = frame.vectors[a].comps, frame.covectors[a].comps
    return tf.TensorField(frame.chart, 1, 1, tuple(ex.mul(v[c], w[e]) for c in range(d) for e in range(d)))


def assert_projectors_invariant(frame, generators):
    """The paper's invariant projection operators: on an eigenframe every
    e_a (x) e^a is annihilated by every generator."""
    box = frame.chart.full_box()
    for a in range(frame.chart.dim):
        proj = _projector(frame, a)
        for g in generators:
            assert all(nc.is_zero(c, box).is_zero for c in tf.lie_derivative(g, proj).comps)


class TestProjectors:
    def test_solvable_projectors(self, solv, solv_solution):
        chart, gens, sc = solv
        ss.compute_mu(solv_solution.mu.frame, gens, sc)
        assert_projectors_invariant(solv_solution.mu.frame, gens)

    def test_one_dimensional_trivial_frame(self):
        chart = tf.Chart("line", ("x",), {"x": (-1, 1)})
        frame = ss.frame_from_vectors(chart, [tf.VectorField(chart, (ex.ONE,))])
        assert _projector(frame, 0).comps == (ex.ONE,)
        dilation = [tf.VectorField(chart, (ex.sym("x"),))]
        mf = ss.compute_mu(frame, dilation, abelian_constants(1))
        assert mf.mu == ((ex.ONE,),)  # L e^1 = e^1, L e_1 = -e_1
        assert_projectors_invariant(frame, dilation)

    def test_rotation_eigenframe_projectors(self):
        so3 = so3_model()
        assert_projectors_invariant(so3.frame, so3.space_ladder)
        assert_projectors_invariant(so3.frame, so3.space_generators)

    def test_heisenberg_projectors(self):
        spec = load_model(str(HEISENBERG))
        frame = ss.solve_invariant_frame(spec.constants, spec.generators).mu.frame
        ss.compute_mu(frame, spec.generators, spec.constants)
        assert_projectors_invariant(frame, spec.generators)

    def test_decomposition_fidelity(self, solv, solv_solution):
        """x = sum_a x^a e_a with x^a = e^a(x), the frame component."""
        chart, gens, _ = solv
        frame = solv_solution.mu.frame
        x = tf.VectorField(
            chart, tuple(parse(s, chart.coords) for s in ("v*y", "1+z^2", "y"))
        )
        xt = tf.TensorField(chart, 1, 0, x.comps)
        parts = [op.project_component(xt, frame, (a,), ()) for a in range(3)]
        for c in range(3):
            total = ex.add(*[ex.mul(parts[a], frame.vectors[a].comps[c]) for a in range(3)])
            assert ex.simplify(ex.sub(total, x.comps[c])) == ex.ZERO


class TestMuFactors:
    def test_rotation_pattern(self, rot3):
        chart, ladder, sc, frame = rot3
        mf = ss.compute_mu(frame, ladder, sc)
        box = chart.full_box()
        # invariant radial leg
        assert all(m == ex.ZERO for m in mf.mu[0])
        # mu^s_{s'} = s e^{i s' phi} / sin(theta), mu^s_3 = 0
        for a, s in ((1, 1), (2, -1)):
            for i, sp in ((0, 1), (1, -1)):
                want = ex.mul(
                    ex.num(s),
                    ex.exp(ex.mul(ex.num(0, sp), ex.sym("phi"))),
                    ex.power(ex.sin(ex.sym("theta")), -1),
                )
                assert ex.simplify(ex.sub(mf.mu[a][i], want)) == ex.ZERO
            assert mf.mu[a][2] == ex.ZERO
        assert all(r.verdict is nc.Verdict.SYMBOLIC_ZERO for r in mf.integrability)

    def test_invariant_frame_mu_vanishes(self, solv, solv_solution):
        chart, gens, sc = solv
        mf = ss.compute_mu(solv_solution.mu.frame, gens, sc)
        assert all(m == ex.ZERO for row in mf.mu for m in row)

    def test_coordinate_frame_is_not_an_eigenframe(self, rot3):
        chart, ladder, sc, _ = rot3
        ident = [
            tf.VectorField(chart, tuple(ex.ONE if i == j else ex.ZERO for j in range(3)))
            for i in range(3)
        ]
        frame = ss.frame_from_vectors(chart, ident, ("r", "theta", "phi"))
        with pytest.raises(ss.NotEigenFrameError):
            ss.compute_mu(frame, ladder, sc)

    def test_tilted_covector_is_off_its_axis(self, solv, solv_solution):
        """e^1 + y e^3 with e_3 - y e_1 is still a dual frame, but the y
        translation maps the tilted covector onto e^3."""
        chart, gens, sc = solv
        fr = solv_solution.mu.frame
        tilted = tf.TensorField(chart, 0, 1, tuple(ex.add(a, ex.mul(ex.sym("y"), b))
                                                   for a, b in zip(fr.covectors[0].comps, fr.covectors[2].comps)))
        third = tf.VectorField(chart, tuple(ex.sub(a, ex.mul(ex.sym("y"), b))
                                            for a, b in zip(fr.vectors[2].comps, fr.vectors[0].comps)))
        frame = ss.frame_from_components(chart, (*fr.vectors[:2], third), (tilted, *fr.covectors[1:]), fr.names)
        with pytest.raises(ss.NotEigenFrameError, match="generator 2 moves covector 1 off its axis"):
            ss.compute_mu(frame, gens, sc)

    @pytest.mark.parametrize("build,constants", [(so3_model, "ladder_constants"), (bianchi2_model, "constants")])
    def test_work_per_model_frame(self, monkeypatch, build, constants):
        """Each fact of a three-leg eigenframe is certified once: one Lie
        derivative per (covector, generator), one zero test per covector
        component and one per integrability triple."""
        model = build()
        calls = {"lie": 0, "zero": 0}
        monkeypatch.setattr(ss, "lie_derivative", _counted(calls, "lie", ss.lie_derivative))
        monkeypatch.setattr(nc, "is_zero", _counted(calls, "zero", nc.is_zero))
        mu = model.mu
        assert ss.compute_mu(mu.frame, mu.generators, getattr(model, constants)) == mu
        assert calls == {"lie": 9, "zero": 3 * 3 * 3 + 3 * 3}

    def test_work_per_bianchi2_build(self, monkeypatch):
        """The bianchi2 model certifies its solved frame once, by `compute_mu`:
        3 * 3 zero tests of the duality, 3 * 3 * 3 + 3 * 3 of `compute_mu` and
        3 * 3 * 3 Killing residuals of the metric, with no invariance
        residuals or determinant test of the solver's own.  The frame's
        inverse expands its 3 x 3 determinant once."""
        calls = {"mu": 0, "zero": 0}
        counted_mu = _counted(calls, "mu", ss.compute_mu)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("casimir") and getattr(m, "compute_mu", None) is ss.compute_mu]:
            monkeypatch.setattr(module, "compute_mu", counted_mu)
        monkeypatch.setattr(nc, "is_zero", _counted(calls, "zero", nc.is_zero))
        dets = []
        mat_det = ss.mat_det
        monkeypatch.setattr(ss, "mat_det", lambda a: dets.append(len(a)) or mat_det(a))
        model = Bianchi2Model()
        assert model.mu.invariant()
        assert calls == {"mu": 1, "zero": 3 * 3 + (3 * 3 * 3 + 3 * 3) + 3 * 3 * 3}
        assert dets.count(3) == 1


def _counted(calls: dict, name: str, fn):
    """`fn`, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kw):
        calls[name] += 1
        return fn(*args, **kw)
    return wrapper


class TestInvariantMetric:
    def test_solvable_metric_components(self, solv, solv_solution):
        chart, gens, sc = solv
        metric = ss.metric_from_frame(solv_solution.L, sc, gens)
        want = (
            ("(1+v^2)*exp(2*y)", "-v*exp(y)", "0"),
            ("-v*exp(y)", "1", "0"),
            ("0", "0", "1"),
        )
        for i in range(3):
            for k in range(3):
                w = parse(want[i][k], chart.coords)
                assert ex.simplify(ex.sub(metric.g[i][k], w)) == ex.ZERO
        assert metric.killing_ok()
        assert all(r.verdict is nc.Verdict.SYMBOLIC_ZERO for r in metric.killing)
        assert metric.rank == 3

    def test_abelian_metric_is_identity(self):
        chart = tf.Chart("ab", ("x", "y", "z"), {c: (-1, 1) for c in ("x", "y", "z")})
        gens = [
            tf.VectorField(chart, tuple(ex.ONE if i == j else ex.ZERO for j in range(3)))
            for i in range(3)
        ]
        sc = abelian_constants(3)
        fs = ss.solve_invariant_frame(sc, gens)
        metric = ss.metric_from_frame(fs.L, sc, gens)
        assert all(
            metric.g[i][k] == (ex.ONE if i == k else ex.ZERO) for i in range(3) for k in range(3)
        )

    def test_constant_metric_killing(self, rot3):
        chart, ladder, sc, _ = rot3
        # rotation generators in coordinates, constant identity metric
        rows = (
            ("0", "sin(phi)", "cot(theta)*cos(phi)"),
            ("0", "-cos(phi)", "cot(theta)*sin(phi)"),
            ("0", "0", "-1"),
        )
        gens = [tf.VectorField(chart, tuple(parse(s, chart.coords) for s in row)) for row in rows]
        identity = [[ex.ONE if i == k else ex.ZERO for k in range(3)] for i in range(3)]
        metric = ss.metric_from_exprs(identity, so3_constants(), gens)
        assert metric.killing_ok()
