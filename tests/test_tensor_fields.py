"""Brackets, realizations, and Lie derivatives of type-(p,q) tensors."""

import math

import pytest

from casimir import expr as ex
from casimir import numcheck as nc
from casimir import tensor_fields as tf
from casimir.parser import parse
from helpers import (
    bianchi2_constants,
    check_lie_commutator,
    random_polynomial_tensor,
    so3_constants,
    tensor_add,
    tensor_scale,
)


@pytest.fixture(scope="module")
def sphere():
    return tf.Chart(
        "sphere",
        ("theta", "phi"),
        {"theta": (0.01, math.pi - 0.01), "phi": (0.05, 6.2)},
        (ex.sin(ex.sym("theta")),),
    )


@pytest.fixture(scope="module")
def rot_fields(sphere):
    rows = (
        ("sin(phi)", "cot(theta)*cos(phi)"),
        ("-cos(phi)", "cot(theta)*sin(phi)"),
        ("0", "-1"),
    )
    return [tf.VectorField(sphere, tuple(parse(s, sphere.coords) for s in row)) for row in rows]


@pytest.fixture(scope="module")
def solv_chart():
    return tf.Chart("solv", ("v", "y", "z"), {"v": (-0.9, 0.9), "y": (-1, 1), "z": (-1, 1)})


@pytest.fixture(scope="module")
def solv_fields(solv_chart):
    rows = (("exp(-y)", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    return [
        tf.VectorField(solv_chart, tuple(parse(s, solv_chart.coords) for s in row)) for row in rows
    ]


class TestChartPoints:
    def test_points_on_the_box_side_of_the_locus_are_usable(self, sphere):
        sphere.check_points(("theta", "phi"), [(0.5, 1.0), (3.0, 6.0), (3.1, -7.0)])
        sphere.check_points(("phi",), [(100.0,)])  # theta stays at the box centre
        sphere.check_points(("theta",), [])

    @pytest.mark.parametrize("theta", [0.0, 1e-10, -0.5, math.pi, 4.0])
    def test_points_on_or_beyond_the_locus_are_refused(self, sphere, theta):
        with pytest.raises(tf.OffChartError, match=r"lies on or beyond the singular locus sin\(theta\) = 0"):
            sphere.check_points(("theta",), [(1.0,), (theta,)])

    def test_a_centre_on_the_locus_refuses_the_box(self):
        chart = tf.Chart("c", ("x",), {"x": (-1.0, 1.0)}, (ex.sym("x"),))
        with pytest.raises(tf.OffChartError, match="box centre"):
            chart.check_points(("x",), [(0.5,)])

    def test_parameters_take_part_in_the_rule(self):
        x, a = ex.sym("x"), ex.sym("a")
        chart = tf.Chart("c", ("x",), {"x": (0.0, 1.0)}, (ex.add(x, a),), {"a": (1.0, 2.0)})
        chart.check_points(("x",), [(0.0,)])  # a at its centre 1.5
        with pytest.raises(tf.OffChartError):
            chart.check_points(("x", "a"), [(0.5, 1.0), (-1.5, 1.2)])

    def test_a_pole_of_a_locus_is_refused(self):
        chart = tf.Chart("c", ("x",), {"x": (0.5, 1.0)}, (ex.power(ex.sym("x"), -1),))
        with pytest.raises(tf.OffChartError, match="cannot be evaluated"):
            chart.check_points(("x",), [(0.0,)])


class TestBracket:
    def test_rotation_brackets_cycle(self, sphere, rot_fields):
        box = sphere.full_box()
        eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (i, j), k in eps.items():
            br = tf.lie_bracket(rot_fields[i], rot_fields[j])
            for a in range(2):
                rep = nc.is_zero(ex.sub(br.comps[a], rot_fields[k].comps[a]), box)
                assert rep.verdict is nc.Verdict.SYMBOLIC_ZERO

    def test_solvable_bracket(self, solv_chart, solv_fields):
        br = tf.lie_bracket(solv_fields[0], solv_fields[1])
        for a in range(3):
            assert ex.simplify(ex.sub(br.comps[a], solv_fields[0].comps[a])) == ex.ZERO

    def test_self_bracket_vanishes(self, rot_fields):
        br = tf.lie_bracket(rot_fields[0], rot_fields[0])
        assert all(ex.simplify(c) == ex.ZERO for c in br.comps)

    def test_chart_mismatch(self, rot_fields, solv_fields):
        with pytest.raises(tf.ChartMismatchError):
            tf.lie_bracket(rot_fields[0], solv_fields[0])

    def test_jacobi_identity_for_builtin_triples(self, rot_fields, solv_fields):
        for fields in (rot_fields, solv_fields):
            x, y, z = fields
            total = None
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                term = tf.lie_bracket(a, tf.lie_bracket(b, c))
                total = term if total is None else tf.VectorField(
                    term.chart, tuple(ex.add(p, q) for p, q in zip(total.comps, term.comps))
                )
            assert all(ex.simplify(c) == ex.ZERO for c in total.comps)


class TestRealization:
    def test_rotation_fields_match_their_constants(self, rot_fields):
        rep = tf.verify_realization(rot_fields, so3_constants())
        assert rep.ok
        assert all(
            r.verdict is nc.Verdict.SYMBOLIC_ZERO for p in rep.pairs for r in p.reports
        )

    def test_solvable_fields_match_their_constants(self, solv_fields):
        assert tf.verify_realization(solv_fields, bianchi2_constants()).ok

    def test_wrong_constants_produce_witness(self, solv_fields):
        rep = tf.verify_realization(solv_fields, so3_constants())
        assert not rep.ok
        bad = [r for p in rep.pairs for r in p.reports if r.verdict is nc.Verdict.NONZERO]
        assert bad and bad[0].witness is not None

    def test_count_mismatch(self, rot_fields):
        with pytest.raises(ValueError):
            tf.verify_realization(rot_fields[:2], so3_constants())


class TestLieDerivative:
    def test_scalar_is_directional_derivative(self, sphere, rot_fields):
        f = parse("theta^2*cos(phi)", sphere.coords)
        t = tf.TensorField(sphere, 0, 0, (f,))
        ld = tf.lie_derivative(rot_fields[0], t)
        assert ex.simplify(ex.sub(ld.comps[0], rot_fields[0].apply(f))) == ex.ZERO

    def test_axis_weight_eigenfunction(self, sphere):
        # the axis generator scaled by the imaginary unit measures the phi weight
        h3 = tf.VectorField(sphere, (ex.ZERO, ex.neg(ex.I)))
        m = ex.sym("m")
        t = ex.exp(ex.mul(ex.I, m, ex.sym("phi")))
        assert ex.simplify(ex.sub(h3.apply(t), ex.mul(m, t))) == ex.ZERO

    def test_constant_scalar_annihilated(self, sphere, rot_fields):
        t = tf.TensorField(sphere, 0, 0, (ex.ONE,))
        for g in rot_fields:
            assert tf.lie_derivative(g, t).comps[0] == ex.ZERO

    def test_axis_generator_fixes_colatitude_form(self, sphere, rot_fields):
        dtheta = tf.one_form(sphere, (ex.ONE, ex.ZERO))
        ld = tf.lie_derivative(rot_fields[2], dtheta)
        assert all(c == ex.ZERO for c in ld.comps)

    def test_vector_derivative_is_bracket(self, sphere, rot_fields):
        x, y = rot_fields[0], rot_fields[1]
        ld = tf.lie_derivative(x, tf.vector_as_tensor(y))
        br = tf.lie_bracket(x, y)
        assert all(
            ex.simplify(ex.sub(a, b)) == ex.ZERO for a, b in zip(ld.comps, br.comps)
        )


class TestCommutatorIdentity:
    @pytest.mark.parametrize("ptype", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    def test_rotation_pair_on_random_tensors(self, sphere, rot_fields, ptype):
        p, q = ptype
        t = random_polynomial_tensor(sphere, p, q, seed=37 * p + q)
        reports = check_lie_commutator(rot_fields[0], rot_fields[1], t)
        assert all(r.is_zero for r in reports)

    @pytest.mark.parametrize("ptype", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    def test_solvable_pair_on_random_tensors(self, solv_chart, solv_fields, ptype):
        p, q = ptype
        t = random_polynomial_tensor(solv_chart, p, q, seed=11 * p + q)
        reports = check_lie_commutator(solv_fields[0], solv_fields[1], t)
        assert all(r.is_zero for r in reports)

    def test_commuting_flows(self, solv_chart, solv_fields):
        t = random_polynomial_tensor(solv_chart, 1, 1, seed=5)
        a = tf.lie_derivative(solv_fields[1], tf.lie_derivative(solv_fields[2], t))
        b = tf.lie_derivative(solv_fields[2], tf.lie_derivative(solv_fields[1], t))
        assert all(ex.simplify(ex.sub(x, y)) == ex.ZERO for x, y in zip(a.comps, b.comps))

    def test_solvable_pair_on_invariant_coframe_leg(self, solv_chart, solv_fields):
        e1 = tf.one_form(solv_chart, tuple(parse(s, solv_chart.coords) for s in ("1", "v", "0")))
        reports = check_lie_commutator(solv_fields[0], solv_fields[1], e1)
        assert all(r.verdict is nc.Verdict.SYMBOLIC_ZERO for r in reports)


class TestLeibniz:
    def test_product_rule_on_scalar_times_tensor(self, sphere, rot_fields):
        f = parse("theta*phi + 1/2", sphere.coords)
        t = random_polynomial_tensor(sphere, 0, 1, seed=9)
        x = rot_fields[1]
        ft = tensor_scale(t, f)
        lhs = tf.lie_derivative(x, ft)
        rhs = tensor_add(
            tensor_scale(t, x.apply(f)), tensor_scale(tf.lie_derivative(x, t), f)
        )
        assert all(
            ex.simplify(ex.sub(a, b)) == ex.ZERO for a, b in zip(lhs.comps, rhs.comps)
        )
