"""Invariant frames, projectors, scale factors, and invariant metrics."""

import math
from fractions import Fraction

import pytest

from casimir import expr as ex
from casimir import lie_algebra as la
from casimir import numcheck as nc
from casimir import split_structure as ss
from casimir import tensor_fields as tf
from casimir.parser import parse
from helpers import abelian_constants, bianchi2_constants, so3_constants


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
                assert ex.simplify(ex.sub(fs.frame.vectors[d].comps[c], w)) == ex.ZERO
        assert all(r.verdict is nc.Verdict.SYMBOLIC_ZERO for r in fs.invariance)

    def test_dual_covectors(self, solv, solv_solution):
        chart, _, _ = solv
        want = (("1", "v", "0"), ("0", "1", "0"), ("0", "0", "1"))
        for a in range(3):
            for c in range(3):
                w = parse(want[a][c], chart.coords)
                assert ex.simplify(ex.sub(solv_solution.frame.covectors[a].comps[c], w)) == ex.ZERO

    def test_frame_annihilated_by_generators(self, solv, solv_solution):
        chart, gens, _ = solv
        box = chart.full_box()
        for g in gens:
            for v in solv_solution.frame.vectors:
                ld = tf.lie_derivative(g, tf.vector_as_tensor(v))
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


class TestMatrixExponential:
    def test_nilpotent(self):
        a = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        t = ex.sym("t")
        m = ss.expm_rational(a, t)
        assert m[0][0] == ex.ONE and m[1][1] == ex.ONE
        assert m[0][1] == t and m[1][0] == ex.ZERO

    def test_diagonalizable(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-2)]]
        t = ex.sym("t")
        m = ss.expm_rational(a, t)
        assert ex.simplify(ex.sub(m[0][0], ex.exp(t))) == ex.ZERO
        assert ex.simplify(ex.sub(m[1][1], ex.exp(ex.mul(ex.num(-2), t)))) == ex.ZERO

    def test_jordan_block(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        t = ex.sym("t")
        m = ss.expm_rational(a, t)
        assert ex.simplify(ex.sub(m[0][1], ex.mul(t, ex.exp(t)))) == ex.ZERO

    def test_irrational_spectrum_rejected(self):
        a = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]  # eigenvalues +-sqrt(2)
        with pytest.raises(ss.NoClosedFormError):
            ss.expm_rational(a, ex.sym("t"))

    def test_derivative_property(self):
        # d/dt exp(At) = A exp(At) for a mixed-spectrum matrix
        a = [[Fraction(1), Fraction(1), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(-1)]]
        t = ex.sym("t")
        m = ss.expm_rational(a, t)
        for i in range(3):
            for j in range(3):
                lhs = ex.diff(m[i][j], "t")
                rhs = ex.add(*[ex.mul(ex.num(a[i][k]), m[k][j]) for k in range(3)])
                assert ex.simplify(ex.sub(lhs, rhs)) == ex.ZERO


class TestProjectors:
    def test_solvable_projectors(self, solv, solv_solution):
        chart, gens, _ = solv
        projs = ss.build_projectors(solv_solution.frame, gens)
        assert len(projs) == 3

    def test_one_dimensional_trivial_frame(self):
        chart = tf.Chart("line", ("x",), {"x": (-1, 1)})
        v = tf.VectorField(chart, (ex.ONE,))
        frame = ss.frame_from_vectors(chart, [v])
        projs = ss.build_projectors(frame)
        assert projs[0].tensor.comps == (ex.ONE,)

    def test_rotation_eigenframe_projectors(self, rot3):
        chart, ladder, sc, frame = rot3
        projs = ss.build_projectors(frame, ladder)
        assert len(projs) == 3

    def test_decomposition_fidelity(self, solv, solv_solution):
        chart, gens, _ = solv
        projs = ss.build_projectors(solv_solution.frame)
        x = tf.VectorField(
            chart, tuple(parse(s, chart.coords) for s in ("v*y", "1+z^2", "y"))
        )
        pieces = [ss.project_vector(p, x) for p in projs]
        box = chart.full_box()
        for c in range(3):
            total = ex.add(*[pc.comps[c] for pc in pieces])
            assert ex.simplify(ex.sub(total, x.comps[c])) == ex.ZERO
        # covector components annihilate foreign pieces
        for a, w in enumerate(solv_solution.frame.covectors):
            for b, pc in enumerate(pieces):
                rep = nc.is_zero(ss.pairing(w, pc), box)
                if a != b:
                    assert rep.is_zero


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
        assert all(r.is_zero for r in mf.dual_action)

    def test_invariant_frame_mu_vanishes(self, solv, solv_solution):
        chart, gens, sc = solv
        mf = ss.compute_mu(solv_solution.frame, gens, sc)
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
