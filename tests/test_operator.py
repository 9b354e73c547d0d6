"""Generalized Casimir operator: application, reduction, certification."""

import pytest
from hypothesis import given, settings, strategies as st

from casimir import expr as ex
from casimir import numcheck as nc
from casimir import operator as op
from casimir import tensor_fields as tf
from casimir.models import bianchi2_model, so3_model
from casimir.models.so3 import So3Model
from casimir.operator import ScalarOperator, TensorMonomial
from casimir.parser import parse
from helpers import ladder_scalar_operator, leibniz_compose, nested_casimir, random_polynomial_tensor


SING = "(1 + cos(theta))^(-1)*(1 - cos(theta))^(-1)"  # sin(theta)^(-2)


def unparsed(k: ScalarOperator) -> list:
    return [(idx, ex.unparse(c)) for idx, c in k.table]


@pytest.fixture(scope="module")
def so3():
    return so3_model()


@pytest.fixture(scope="module")
def b2():
    return bianchi2_model()


class TestScalarOperatorTables:
    def test_rotation_table_matches_orbit_laplacian(self, so3):
        k = so3.scalar_operator()
        want = ScalarOperator.from_table(
            so3.sphere,
            {
                (2, 0): ex.ONE,
                (1, 0): parse("cot(theta)", so3.sphere.coords),
                (0, 2): parse("sin(theta)^(-2)", so3.sphere.coords),
            },
        )
        assert k.equal_to(want)

    def test_ladder_form_agrees_with_metric_form(self, so3):
        assert ladder_scalar_operator(so3).equal_to(so3.scalar_operator())

    def test_solvable_table(self, b2):
        k = b2.scalar_operator()
        want = ScalarOperator.from_table(
            b2.chart,
            {
                (2, 0, 0): parse("1+v^2", b2.chart.coords),
                (1, 1, 0): parse("-2*v", b2.chart.coords),
                (1, 0, 0): parse("v", b2.chart.coords),
                (0, 2, 0): ex.ONE,
                (0, 0, 2): ex.ONE,
            },
        )
        assert k.equal_to(want)

    def test_pretty_and_json(self, b2):
        k = b2.scalar_operator()
        assert "dv^2" in k.pretty()
        doc = k.to_json()
        assert doc["coordinates"] == ["v", "y", "z"]
        assert any(t["derivative"] == [2, 0, 0] for t in doc["terms"])


class TestApply:
    def test_rotation_on_colatitude_cosine(self, so3):
        t = parse("cos(theta)", so3.sphere.coords)
        out = so3.scalar_operator().apply(t)
        assert ex.simplify(ex.sub(out, ex.mul(ex.num(-2), t))) == ex.ZERO

    def test_constants_annihilated(self, so3, b2):
        assert ex.simplify(so3.scalar_operator().apply(ex.ONE)) == ex.ZERO
        assert ex.simplify(b2.scalar_operator().apply(ex.num(7))) == ex.ZERO

    def test_vertical_wave(self, b2):
        nu = ex.sym("nu")
        t = ex.exp(ex.mul(nu, ex.sym("z")))
        out = b2.scalar_operator().apply(t)
        assert ex.simplify(ex.sub(out, ex.mul(nu, nu, t))) == ex.ZERO

    def test_tensor_application_matches_scalar_on_functions(self, so3):
        f = parse("cos(theta)", so3.space.coords)
        t = tf.TensorField(so3.space, 0, 0, (f,))
        gt = op.apply_casimir(so3.op_space, t)
        want = so3.scalar_operator().apply(parse("cos(theta)", so3.sphere.coords))
        assert ex.simplify(ex.sub(gt.comps[0], want)) == ex.ZERO


TYPES = [(p, q) for p in range(3) for q in range(3) if p + q <= 2]


class TestCasimirMatrix:
    """apply_casimir applies G's component matrix, built once per operator
    and tensor type; it must agree with the nested definition."""

    @pytest.mark.parametrize("pq", TYPES, ids=[f"type{p}{q}" for p, q in TYPES])
    @pytest.mark.parametrize("model", ["so3", "bianchi2"])
    def test_matches_nested_lie_derivatives(self, so3, b2, model, pq):
        cop = so3.op_space if model == "so3" else b2.op
        t = random_polynomial_tensor(cop.chart, *pq, seed=sum(pq) + 7 * pq[0])
        got = op.apply_casimir(cop, t)
        want = nested_casimir(cop, t)
        box = cop.chart.full_box()
        for a, b in zip(got.comps, want.comps):
            assert nc.is_zero(ex.sub(a, b), box).verdict is nc.Verdict.SYMBOLIC_ZERO

    def test_matrix_built_once_per_type_and_operator(self, so3, monkeypatch):
        cop = so3.op_space.replace()
        builds = []
        compose = op._compose
        monkeypatch.setattr(op, "_compose", lambda *a: builds.append(a) or compose(*a))
        for seed in (1, 2):
            op.apply_casimir(cop, random_polynomial_tensor(cop.chart, 0, 1, seed=seed))
        assert len(builds) == 1
        assert list(cop._matrices) == [("reduced", (), ()), (0, 1)]  # K, then G's matrix
        other = cop.replace()
        assert other == cop and other._matrices == {}
        op.apply_casimir(other, random_polynomial_tensor(cop.chart, 0, 1, seed=3))
        assert len(builds) == 2
        assert other._matrices is not cop._matrices


def _tables(matrix) -> list:
    return [[(j, unparsed(entry)) for j, entry in row] for row in matrix]


def _reduced_rows(cop, upper, lower) -> list:
    phis = [op._weight(cop, upper, lower, i) for i in range(cop.r)]
    return [({0: ex.neg(phi)} if phi != ex.ZERO else {},) for phi in phis]


# expressions on the so3 space chart for drawn correction rows
_ROW_FACTORS = ("1", "-2", "1/3", "i", "r", "cos(theta)", "sin(theta)", "cot(theta)",
                "sin(theta)^(-1)", "exp(i*phi)", "r*exp(-i*phi)*cos(theta)", "(1 + cos(theta))^(1/2)")


class TestComposition:
    """G's matrix, composed as K plus correction terms, equals the generic
    Leibniz composition of sum g^{ik} A_i A_k, written form for written form."""

    @pytest.mark.parametrize("pq", [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)], ids=str)
    @pytest.mark.parametrize("name", ["op_space", "op_generators", "op_ladder", "bianchi2"])
    def test_matches_leibniz_composition(self, so3, b2, name, pq):
        cop = (b2.op if name == "bianchi2" else getattr(so3, name)).replace()
        rows = [tf.lie_correction_rows(x, *pq) for x in cop.generators]
        assert _tables(op._compose(cop, rows)) == _tables(leibniz_compose(cop, rows))

    @pytest.mark.parametrize("lower", [(1,) * n if n >= 0 else (2,) * -n for n in range(-2, 3)]
                             + [(0,), (0, 1), (0, 2), (0, 0), (1, 0, 2)], ids=str)
    def test_reduced_operators_match_leibniz_composition(self, so3, lower):
        cop = so3.op_ladder.replace()
        for upper, low in (((), lower), (lower, ())):
            want = leibniz_compose(cop, _reduced_rows(cop, upper, low))[0]
            assert unparsed(op.reduce_to_scalar(cop, upper, low)) == (unparsed(want[0][1]) if want else [])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_rows_under_a_nonsymmetric_metric(self, so3, data):
        """No symmetry of g is assumed: g^{ik} and g^{ki} may differ."""
        metric = tuple(tuple(ex.num(data.draw(st.integers(-2, 2))) for _ in range(3)) for _ in range(3))
        gens = so3.space_ladder if data.draw(st.booleans()) else so3.space_generators
        cop = op.CasimirOperator("drawn", so3.space, gens, metric)
        n = data.draw(st.integers(1, 3))
        factor = st.sampled_from(_ROW_FACTORS).map(lambda t: parse(t, so3.space.coords))
        row = st.dictionaries(st.integers(0, n - 1), factor, max_size=2)
        rows = [tuple(data.draw(row) for _ in range(n)) for _ in range(3)]
        assert _tables(op._compose(cop, rows)) == _tables(leibniz_compose(cop, rows))

    def test_scalar_casimir_is_composed_once_per_operator(self, so3):
        cop = so3.op_ladder.replace()
        op.apply_casimir(cop, random_polynomial_tensor(cop.chart, 0, 1, seed=1))
        k = cop._matrices[("reduced", (), ())]
        assert op.reduce_to_scalar(cop) is k and op.reduce_to_scalar(cop, (), (0,)) == k
        op.apply_casimir(cop, random_polynomial_tensor(cop.chart, 1, 1, seed=1))
        assert cop._matrices[("reduced", (), ())] is k

    def test_work_count(self, monkeypatch):
        """Products the kernel forms while G's type-(0,2) matrix is composed
        on the so3 space chart from cold caches: 249, where composing every
        entry by the Leibniz rule forms 570."""
        for table in (ex._ATOMS, ex._MONO_CACHE, ex._DIFF_CACHE):
            table.clear()
        cop = So3Model().op_space
        rows = [tf.lie_correction_rows(x, 0, 2) for x in cop.generators]
        calls = []
        product = ex._product
        monkeypatch.setattr(ex, "_product", lambda items: calls.append(1) or product(items))
        op._compose(cop, rows)
        assert len(calls) <= 270


class TestReduce:
    def test_invariant_frame_reduces_to_plain_casimir(self, b2):
        k = b2.scalar_operator()
        for legs in ((), (0,), (1, 2), (0, 0)):
            red = op.reduce_to_scalar(b2.op, (), legs)
            assert red.equal_to(k)

    @pytest.mark.parametrize("n", [1, -1, 2, -2])
    def test_rotation_reduction_matches_weighted_operator(self, so3, n):
        red = so3.reduced_operator(n)
        coords = so3.space.coords
        want = ScalarOperator.from_table(
            so3.space,
            {
                (0, 2, 0): ex.ONE,
                (0, 1, 0): parse("cot(theta)", coords),
                (0, 0, 2): parse("sin(theta)^(-2)", coords),
                (0, 0, 1): ex.mul(ex.num(0, -2 * n), parse("cos(theta)*sin(theta)^(-2)", coords)),
                (0, 0, 0): ex.mul(ex.num(-n * n), parse("sin(theta)^(-2)", coords)),
            },
        )
        assert red.equal_to(want)

    def test_mixed_legs_cancel_the_weight(self, so3):
        red = op.reduce_to_scalar(so3.op_ladder, (), (1, 2))
        k = op.reduce_to_scalar(so3.op_ladder)
        assert red.equal_to(k)
        assert unparsed(k) == [
            ((0, 0, 2), SING),
            ((0, 1, 0), f"cos(theta)*sin(theta)*{SING}"),
            ((0, 2, 0), "1"),
        ]

    def test_no_legs_is_the_orbit_laplacian(self, so3):
        k = op.reduce_to_scalar(so3.op_generators)
        assert unparsed(k) == [((0, 2), SING), ((1, 0), f"cos(theta)*sin(theta)*{SING}"), ((2, 0), "1")]

    def test_missing_scale_factors_rejected(self, so3):
        with pytest.raises(ValueError, match="no frame scale factors"):
            op.reduce_to_scalar(so3.op_generators, (), (0,))

    def test_scale_factors_belong_to_the_operators_generators(self, so3):
        """The ladder basis's scale factors mean nothing on the rotation
        generators: G on the space chart carries none, and an operator built
        with another basis's factors is refused."""
        assert so3.op_space.mu is None and so3.op_space.frame is so3.frame
        with pytest.raises(ValueError, match="no frame scale factors"):
            op.reduce_to_scalar(so3.op_space, (), (1,))
        with pytest.raises(ValueError, match="other generators"):
            op.CasimirOperator("mixed", so3.space, so3.space_generators, so3.metric, so3.frame, so3.mu)

    def test_derived_operators_are_built_once(self, so3, monkeypatch):
        cop = so3.op_ladder.replace()
        builds = []
        compose = op._compose
        monkeypatch.setattr(op, "_compose", lambda *a: builds.append(a) or compose(*a))
        first = [op.reduce_to_scalar(cop, (), (1,)), op.shifted_generator(cop, 1, (), (2,))]
        again = [op.reduce_to_scalar(cop, (), [1]), op.shifted_generator(cop, 1, (), (2,))]
        assert len(builds) == 1
        assert all(a is b for a, b in zip(first, again))


class TestReductionConsistency:
    """Applying G to a single monomial and projecting its component agrees
    with the reduced scalar operator applied to the component."""

    @pytest.mark.parametrize("legs", [(1,), (2,), (1, 1), (1, 2), (0, 1)])
    def test_rotation_monomials(self, so3, legs):
        n = sum({0: 0, 1: 1, 2: -1}[leg] for leg in legs)
        t = so3.ladder_family(2, n)[1]
        mono = TensorMonomial((), legs, t)
        tens = op.assemble(so3.frame, [mono], 0, len(legs))
        gt = op.apply_casimir(so3.op_space, tens)
        comp = op.project_component(gt, so3.frame, (), legs)
        red = op.reduce_to_scalar(so3.op_ladder, (), legs)
        resid = ex.sub(comp, red.apply(t))
        box = so3.space.full_box()
        assert nc.is_zero(resid, box).verdict is nc.Verdict.SYMBOLIC_ZERO

    @pytest.mark.parametrize("legs", [(0,), (1,), (2,), (0, 1)])
    def test_solvable_monomials(self, b2, legs):
        t = next(iter(b2.point_series(2, 1, 1).components.values()))
        mono = TensorMonomial((), legs, t)
        tens = op.assemble(b2.frame, [mono], 0, len(legs))
        gt = op.apply_casimir(b2.op, tens)
        comp = op.project_component(gt, b2.frame, (), legs)
        red = op.reduce_to_scalar(b2.op, (), legs)
        resid = ex.sub(comp, red.apply(t))
        assert nc.is_zero(resid, b2.chart.full_box()).verdict is nc.Verdict.SYMBOLIC_ZERO


class TestCertify:
    def test_weight_two_tensor_component(self, so3):
        t = so3.ladder_family(2, 1)[0]
        red = so3.reduced_operator(1)
        resid = ex.sub(red.apply(t), ex.mul(ex.num(-6), t))
        assert nc.is_zero(resid, so3.space.full_box()).verdict is nc.Verdict.SYMBOLIC_ZERO

    def test_constant_scalar(self, so3):
        t = tf.TensorField(so3.space, 0, 0, (ex.ONE,))
        res = op.certify_eigen(so3.op_space, t, 0)
        assert res.ok

    def test_point_series_eigenvalue(self, b2):
        fam = b2.point_series(1, 0, 2)
        assert fam.eigenvalues["G"] == ex.num(5)
        assert fam.ok

    def test_wrong_eigenvalue_fails(self, so3):
        t = tf.TensorField(so3.space, 0, 0, (parse("cos(theta)", so3.space.coords),))
        res = op.certify_eigen(so3.op_space, t, -4)
        assert not res.ok

    def test_convention_note_present(self, so3):
        t = tf.TensorField(so3.space, 0, 0, (parse("cos(theta)", so3.space.coords),))
        res = op.certify_eigen(so3.op_space, t, -2)
        assert res.ok
        assert "-G" in res.to_json()["convention"]


class TestCommutation:
    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_operator_commutes(self, so3, seed):
        t = random_polynomial_tensor(so3.sphere, *((0, 0) if seed % 2 else (0, 1)), seed=seed)
        reports = op.check_commutes(so3.op_generators, seed % 3, t)
        assert all(r.is_zero for r in reports)

    @pytest.mark.parametrize("seed", range(10))
    def test_solvable_operator_commutes(self, b2, seed):
        t = random_polynomial_tensor(b2.chart, *((0, 0) if seed % 2 else (1, 0)), seed=seed)
        reports = op.check_commutes(b2.op, seed % 3, t)
        assert all(r.is_zero for r in reports)

    def test_abelian_everything_commutes(self):
        chart = tf.Chart("ab", ("x", "y"), {"x": (-1, 1), "y": (-1, 1)})
        gens = (
            tf.VectorField(chart, (ex.ONE, ex.ZERO)),
            tf.VectorField(chart, (ex.ZERO, ex.ONE)),
        )
        delta = ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE))
        cop = op.CasimirOperator("flat", chart, gens, delta)
        t = random_polynomial_tensor(chart, 1, 1, seed=3)
        for j in range(2):
            assert all(r.is_zero for r in op.check_commutes(cop, j, t))
