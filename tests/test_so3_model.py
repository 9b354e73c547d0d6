"""Rotation model: closed-form weight families, ladder algebra, tensor families."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from casimir import expr as ex
from casimir import numcheck as nc
from casimir.modelio import load_model
from casimir.models import family, so3_model
from casimir.models.so3 import So3Model, _lower
from casimir.operator import ScalarOperator
from casimir.parser import parse
from casimir.tensor_fields import VectorField
from helpers import tree_evaluate

BOX = {"theta": (0.01, math.pi - 0.01)}


@pytest.fixture(scope="module")
def model():
    return so3_model()


def test_model_is_built_from_its_model_file(model):
    """`verify --model so3` certifies the generators and chart the families use."""
    spec = load_model("so3")
    assert model.sphere.box == spec.chart.box
    assert model.sphere.singular_loci == spec.chart.singular_loci
    assert [x.comps for x in model.generators] == [x.comps for x in spec.generators]
    assert model.constants.c == spec.constants.c
    assert model.metric == spec.metric
    # the space chart lifts the sphere with a radius and a zero r component
    assert {c: model.space.box[c] for c in spec.chart.coords} == spec.chart.box
    assert model.space.singular_loci == spec.chart.singular_loci
    assert [x.comps for x in model.space_generators] == [(ex.ZERO,) + x.comps for x in spec.generators]


class TestWeightFamilies:
    """Every weight |n| <= l has its reduced operator and ladder family, and
    each member satisfies its reduced equation exactly."""

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_every_weight_satisfies_its_reduced_equation(self, model, l):
        box = model.space.full_box()
        lam = ex.num(-l * (l + 1))
        for n in range(-l, l + 1):
            red = model.reduced_operator(n)
            for m, t in model.ladder_family(l, n).items():
                rep = nc.is_zero(ex.sub(red.apply(t), ex.mul(lam, t)), box)
                assert rep.verdict is nc.Verdict.SYMBOLIC_ZERO, (l, n, m)

    def test_top_members_to_weight_24(self, model):
        """The closed-form top member solves (reduced(n) + l(l+1)) t = 0."""
        box = model.space.full_box()
        reduced = {n: model.reduced_operator(n) for n in range(-2, 3)}
        for l in range(25):
            for n in range(-min(l, 2), min(l, 2) + 1):
                t = model._member(l, n, l)
                residual = ex.add(reduced[n].apply(t), ex.mul(ex.num(l * (l + 1)), t))
                assert nc.is_zero(residual, box).verdict is nc.Verdict.SYMBOLIC_ZERO, (l, n)

    def test_equal_labels_stay_finite_at_the_pole(self, model):
        # n = m: t^2_{1,1} has no pole at theta = 0
        t = model.ladder_family(2, 1)[1]
        val = tree_evaluate(t, {"theta": 1e-6, "phi": 0.3})
        assert abs(val) < 10.0


def expr_ladder(model, l, n) -> dict:
    """The (l, n) family lowered through the symbolic kernel: the closed-form
    top member, then each step the shifted lowering ladder applied to the
    member, times c2^(-1/2), simplified."""
    x = ex.cos(ex.sym("theta"))
    p = ex.simplify(ex.mul(ex.power(ex.sub(ex.ONE, x), Fraction(l - n, 2)),
                           ex.power(ex.add(ex.ONE, x), Fraction(l + n, 2))))
    fam = {l: ex.simplify(ex.mul(ex.exp(ex.mul(ex.num(0, l), ex.sym("phi"))), p))}
    lower = model.shifted_ladder(1, n)
    for m in range(l, -l, -1):
        c2 = l * (l + 1) - m * (m - 1)
        fam[m - 1] = ex.simplify(ex.mul(lower.apply(fam[m]), ex.power(ex.num(c2), Fraction(-1, 2))))
    return fam


class TestListLowering:
    """Members lowered on coefficient lists are the very nodes the kernel's
    own ladder builds."""

    @pytest.mark.parametrize("l", range(9))
    def test_members_equal_the_expression_ladder(self, l):
        model = So3Model()
        for n in range(-l, l + 1):
            for m, want in expr_ladder(model, l, n).items():
                got = model._member(l, n, m)
                assert got == want and ex.unparse(got) == ex.unparse(want), (l, n, m)

    def test_a_remainder_is_refused(self):
        # ([1], 0, 1) is not a member at l = 2, n = 0, m = 2: 1 - x^2 does not divide
        with pytest.raises(ArithmeticError, match="l=2, n=0, m=2"):
            _lower(2, 0, 2, [1], 0, 1)


class TestGeneralizedLegendre:
    def test_plain_legendre_weight_one(self, model):
        # at n = 0 the reduced equation is the Legendre equation; weight 1 gives cos
        t = model.ladder_family(1, 0)[0]
        ratio = ex.simplify(ex.div(t, ex.cos(ex.sym("theta"))))
        assert not ex.free_symbols(ratio) and ratio != ex.ZERO
        residual = ex.add(model.reduced_operator(0).apply(t), ex.mul(ex.num(2), t))
        assert nc.is_zero(residual, model.space.full_box()).verdict is nc.Verdict.SYMBOLIC_ZERO


class TestScalarHarmonics:
    def test_weight_one_axis_zero(self, model):
        fam = model.scalar_harmonic(1, 0)
        t = fam.components["n=0,m=0"]
        ratio = ex.simplify(ex.div(t, ex.cos(ex.sym("theta"))))
        assert not ex.free_symbols(ratio) and ratio != ex.ZERO
        assert fam.ok
        assert fam.eigenvalues["G"] == ex.num(-2)

    def test_weight_zero_is_constant(self, model):
        fam = model.scalar_harmonic(0, 0)
        assert isinstance(fam.components["n=0,m=0"], ex.Num)
        assert fam.eigenvalues["G"] == ex.ZERO
        assert fam.ok

    def test_weight_one_top(self, model):
        fam = model.scalar_harmonic(1, 1)
        t = fam.components["n=0,m=1"]
        want = ex.mul(ex.exp(ex.mul(ex.I, ex.sym("phi"))), ex.sin(ex.sym("theta")))
        ratio = ex.simplify(ex.div(t, want))
        assert not ex.free_symbols(ratio) and ratio != ex.ZERO
        assert fam.ok

    def test_labels_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.scalar_harmonic(1, 2)

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_casimir_certificates_all_m(self, model, l):
        for m in range(-l, l + 1):
            fam = model.scalar_harmonic(l, m)
            assert fam.ok, (l, m)


class TestLadder:
    def test_annihilation_at_the_top(self, model):
        coef, target, rep = model.apply_ladder(1, 0, 1, +1)
        assert coef == ex.ZERO and target is None
        assert rep.verdict is nc.Verdict.SYMBOLIC_ZERO

    def test_known_coefficients(self, model):
        coef, target, rep = model.apply_ladder(1, 0, 0, +1)
        assert coef == ex.power(ex.num(2), Fraction(1, 2))
        assert target == 1 and rep.verdict is nc.Verdict.SYMBOLIC_ZERO

        coef, target, rep = model.apply_ladder(2, 0, -1, -1)
        assert coef == ex.num(2)
        assert target == -2 and rep.verdict is nc.Verdict.SYMBOLIC_ZERO

    @pytest.mark.parametrize("l,n", [(l, n) for l in range(4) for n in range(-l, l + 1)])
    def test_both_directions_everywhere(self, model, l, n):
        for m in range(-l, l + 1):
            for s in (+1, -1):
                coef, target, rep = model.apply_ladder(l, n, m, s)
                assert rep.verdict is nc.Verdict.SYMBOLIC_ZERO, (l, n, m, s)
                if abs(m + s) > l:
                    assert coef == ex.ZERO and target is None
                else:
                    assert target == m + s

    def test_commutators_on_monomial_components(self, model):
        """[L_s, L_3] = -s L_s and [L_+, L_-] = 2 L_3 on generated scalars."""
        box = model.space.full_box()
        for l, n in ((1, 0), (2, 1), (2, -2)):
            plus = model.shifted_ladder(0, n)
            minus = model.shifted_ladder(1, n)
            axis = model.shifted_ladder(2, n)
            for m in range(-l, l + 1):
                t = model.ladder_family(l, n)[m]
                for s, ladder in ((1, plus), (-1, minus)):
                    lhs = ex.sub(ladder.apply(axis.apply(t)), axis.apply(ladder.apply(t)))
                    rhs = ex.mul(ex.num(-s), ladder.apply(t))
                    assert nc.is_zero(ex.sub(lhs, rhs), box).is_zero, (l, n, m, s)
                lhs = ex.sub(plus.apply(minus.apply(t)), minus.apply(plus.apply(t)))
                rhs = ex.mul(ex.num(2), axis.apply(t))
                assert nc.is_zero(ex.sub(lhs, rhs), box).is_zero, (l, n, m)


class TestTensorFamilies:
    def test_weight_zero_family_is_constant(self, model):
        fam = model.tensor20_harmonic(0)
        assert list(fam.components) == ["n=0,m=0"]
        assert isinstance(fam.components["n=0,m=0"], ex.Num)
        assert fam.ok

    def test_weight_two_family_shape(self, model):
        fam = model.tensor20_harmonic(2)
        assert len(fam.components) == 25
        ns = {key.split(",")[0] for key in fam.components}
        assert ns == {"n=-2", "n=-1", "n=0", "n=1", "n=2"}
        assert fam.ok

    def test_weight_one_family_drops_wide_slots(self, model):
        fam = model.tensor20_harmonic(1)
        assert len(fam.components) == 9
        slots = {tuple(mo["lower"]) for mo in fam.assemblies["m=0"]}
        assert ("+1", "+1") not in slots
        assert ("r", "+1") in slots

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (2, -1)])
    def test_full_tensor_certificates(self, model, l, m):
        fam = model.tensor20_harmonic(l, m_values=[m])
        cert = fam.certificate(f"casimir-eigenvalue m={m}")
        assert cert.ok

    def test_amplitudes_stay_symbolic(self, model):
        fam = model.tensor20_harmonic(1, m_values=[0])
        scalars = [mo["scalar"] for mo in fam.assemblies["m=0"]]
        assert any("h_rr" in s for s in scalars)
        assert any("h_r" in s for s in scalars)
        assert fam.amplitudes == ("h_rr", "h_r", "h")


def _clear_kernel_caches() -> None:
    for table in (ex._MONO_CACHE, ex._DIFF_CACHE):
        table.clear()


def _count_certificates(monkeypatch, numeric=False) -> dict:
    """Counts of `certify_eigen` and `numcheck.is_zero` calls from now on;
    with `numeric`, every symbolically-zero verdict reads numerically-zero."""
    calls = {"eigen": 0, "zero": 0}
    certify_eigen, is_zero = family.certify_eigen, nc.is_zero

    def counted_eigen(*args):
        calls["eigen"] += 1
        return certify_eigen(*args)

    def counted_zero(*args):
        calls["zero"] += 1
        rep = is_zero(*args)
        return nc.ZeroReport(nc.Verdict.NUMERIC_ZERO) if numeric and rep.verdict is nc.Verdict.SYMBOLIC_ZERO else rep

    monkeypatch.setattr(family, "certify_eigen", counted_eigen)
    monkeypatch.setattr(nc, "is_zero", counted_zero)
    return calls


class TestConjugateHalf:
    """The m < 0 certificates of a tensor family are derived from their m > 0
    partners by conjugation, under exact checks, and certified in full
    whenever a check fails."""

    def test_work_count(self, monkeypatch):
        """From cold kernel caches, the weight-2 family makes 3 Lie-derivative
        certificates and 47 zero checks (5 and 79 when every weight is
        certified in full), and its re-certifier 3 certificates and 17 zero checks."""
        _clear_kernel_caches()
        model, reader = So3Model(), So3Model()
        calls = _count_certificates(monkeypatch)
        doc = model.tensor20_harmonic(2).to_json()
        assert doc["certified"]
        assert calls == {"eigen": 3, "zero": 47}
        calls.update(eigen=0, zero=0)
        assert all(c.ok for c in reader.recertifier(doc)(0))
        assert calls == {"eigen": 3, "zero": 17}

    def test_derived_certificates_equal_the_full_ones(self):
        derived = So3Model().tensor20_harmonic(2, seed=3).to_json()
        for m in range(-2, 0):  # each weight alone has no partner
            alone = So3Model().tensor20_harmonic(2, m_values=[m], seed=3).to_json()
            assert alone["certificates"] == [c for c in derived["certificates"] if c["name"].endswith(f" m={m}")]

    def test_an_imaginary_metric_takes_the_full_path(self, monkeypatch):
        """The same G written with the generators L+, i L-, L3, whose metric
        has the imaginary entries i/2: every certificate still holds
        symbolically, but G is not shown to commute with sigma."""
        model = So3Model()
        raising, lowering, axis = model.space_ladder
        lowering = VectorField(model.space, tuple(ex.mul(ex.I, c) for c in lowering.comps))
        half_i = ex.num(0, Fraction(1, 2))
        metric = ((ex.ZERO, half_i, ex.ZERO), (half_i, ex.ZERO, ex.ZERO), (ex.ZERO, ex.ZERO, ex.MINUS_ONE))
        model.op_space = model.op_space.replace(generators=(raising, lowering, axis), metric=metric)
        calls = _count_certificates(monkeypatch)
        fam = model.tensor20_harmonic(1)
        assert fam.ok and calls["eigen"] == 3

    def test_unconjugate_reduced_operators_take_the_full_path(self, monkeypatch):
        """i d/dr annihilates every member, so each reduced certificate still
        holds symbolically, but conjugation no longer maps the reduced
        operator of n to that of -n: 29 zero checks at l = 1, not 23."""
        model = So3Model()
        reduced = model.reduced_operator
        model.reduced_operator = lambda n: ScalarOperator(
            model.space, tuple(sorted(reduced(n).table + (((1, 0, 0), ex.I),))))
        calls = _count_certificates(monkeypatch)
        fam = model.tensor20_harmonic(1)
        assert fam.ok and calls["zero"] == 29

    def test_numeric_partner_verdicts_take_the_full_path(self, monkeypatch):
        """A sampled verdict proves nothing exact, so no certificate is derived from it."""
        model = So3Model()
        calls = _count_certificates(monkeypatch, numeric=True)
        fam = model.tensor20_harmonic(2)
        assert calls == {"eigen": 5, "zero": 79}
        assert fam.ok


class TestScalarConjugateHalf:
    """The m < 0 certificates of a scalar family are derived from their m > 0
    partners by conjugation, in the builder and the re-certifier alike, and
    certified in full whenever a check fails."""

    def test_work_count(self, monkeypatch):
        """From cold kernel caches, the weight-6 family makes 14 zero checks
        (26 when every weight is certified in full), and so does its re-certifier."""
        _clear_kernel_caches()
        model, reader = So3Model(), So3Model()
        calls = _count_certificates(monkeypatch)
        doc = model.scalar_family(6).to_json()
        assert doc["certified"] and calls["zero"] == 14
        calls["zero"] = 0
        assert all(c.ok for c in reader.recertifier(doc)(0))
        assert calls["zero"] == 14

    def test_derived_certificates_equal_the_full_ones(self):
        derived = So3Model().scalar_family(6, seed=3).to_json()
        for m in range(-6, 0):  # each weight alone has no partner
            alone = So3Model().scalar_family(6, m_values=[m], seed=3).to_json()
            assert alone["certificates"] == [c for c in derived["certificates"] if c["name"].endswith(f" m={m}")]

    def test_numeric_partner_verdicts_take_the_full_path(self, monkeypatch):
        model = So3Model()
        calls = _count_certificates(monkeypatch, numeric=True)
        assert model.scalar_family(6).ok and calls["zero"] == 26

    def test_a_non_real_eigenvalue_takes_the_full_path(self, monkeypatch):
        """The re-certifier reads lam from the document.  With every residual
        read as symbolically zero, only lam's realness blocks the derivation."""
        model = So3Model()
        doc = model.scalar_family(6).to_json()
        calls = []
        monkeypatch.setattr(nc, "is_zero", lambda *args: calls.append(args) or nc.ZeroReport(nc.Verdict.SYMBOLIC_ZERO))
        model.recertifier(doc)(0)
        assert len(calls) == 14
        calls.clear()
        model.recertifier({**doc, "eigenvalues": {"G": "-42 + i"}})(0)
        assert len(calls) == 26

    def test_an_imaginary_orbit_laplacian_takes_the_full_path(self, monkeypatch):
        """K plus i d/dr annihilates every member the same, so each certificate
        still holds symbolically, but conjugation no longer fixes K."""
        model = So3Model()
        k = model.scalar_operator()
        table = tuple(sorted([((0,) + idx, c) for idx, c in k.table] + [((1, 0, 0), ex.I)]))
        model.scalar_operator = lambda: ScalarOperator(model.space, table)
        assert not model._conjugate_scalars
        calls = _count_certificates(monkeypatch)
        assert model.scalar_family(6).ok and calls["zero"] == 26


class TestCancelledForms:
    """Family members are polynomials in cos(theta) times sin(theta)^(0|1)
    and exp(i m phi): no pole factor 1 -/+ cos(theta) is left in them."""

    def test_tensor_component_in_lowest_terms(self, model):
        fam = model.tensor20_harmonic(3, m_values=[-3])
        want = parse("(cos(theta) - 1)^2*(cos(theta) + 1)*exp(-3*i*phi)", ["theta", "phi"])
        assert ex.unparse(fam.components["n=1,m=-3"]) == ex.unparse(want)

    @pytest.mark.parametrize("build", [lambda m: m.scalar_family(8), lambda m: m.tensor20_harmonic(3)],
                             ids=["scalar-l8", "tensor20-l3"])
    def test_no_negative_power_of_a_linear_cos_base(self, model, build):
        fam = build(model)
        for key, comp in fam.components.items():
            text = ex.unparse(comp)
            assert "(1 - cos(theta))^(-" not in text and "(1 + cos(theta))^(-" not in text, key


class TestLabelValidation:
    @pytest.mark.parametrize("l,m", [(2, 0.5), (2, True), (2.0, 0), (True, 0), (2, "1"), (-1, 0)])
    def test_scalar_harmonic_refuses_bad_labels(self, model, l, m):
        with pytest.raises(ValueError):
            model.scalar_harmonic(l, m)

    @pytest.mark.parametrize("l,n", [(2, 0.0), (2, True), (2.5, 0), (None, 0), (2, 3), (-1, 0)])
    def test_ladder_family_refuses_bad_labels(self, model, l, n):
        with pytest.raises(ValueError):
            model.ladder_family(l, n)

    @pytest.mark.parametrize("l,n,m,s", [
        (2, 0, 1, 2), (2, 0, 1, 0), (2, 0, 1, 1.0), (2, 0, 1, True), (2, 0, 1, -2),
        (2, 0, 0.5, 1), (2, 0, False, 1), (2, 0.0, 1, 1), (2, 0, 3, -1), (2, 3, 0, 1),
    ])
    def test_apply_ladder_refuses_bad_labels_and_steps(self, model, l, n, m, s):
        with pytest.raises(ValueError):
            model.apply_ladder(l, n, m, s)

    @pytest.mark.parametrize("build,l,m_values", [
        ("scalar_family", -1, None), ("tensor20_harmonic", -2, None), ("tensor20_harmonic", 1, [3]),
        ("scalar_family", 2, [0, -3]), ("scalar_family", 2.0, None), ("tensor20_harmonic", 1, [0.0]),
    ])
    def test_families_refuse_bad_labels(self, model, build, l, m_values):
        # not an empty family marked certified, and not a bare KeyError
        with pytest.raises(ValueError, match="labels"):
            getattr(model, build)(l, m_values=m_values)

    @pytest.mark.parametrize("build", ["scalar_family", "tensor20_harmonic"])
    @pytest.mark.parametrize("m_values", [[], [1, 1], [0, 1, 0]], ids=["empty", "repeated", "repeated-apart"])
    def test_families_refuse_empty_or_repeated_weights(self, model, build, m_values):
        # not a family certified with no certificate, nor one that writes
        # each certificate twice and then fails its own `verify --family`
        with pytest.raises(ValueError, match="distinct weights"):
            getattr(model, build)(1, m_values=m_values)


class TestOnDemandFamilies:
    """Families are built from the top member down to the lowest weight asked
    for; every member equals the one a full `ladder_family` builds."""

    @pytest.fixture(scope="class")
    def full(self):
        fresh = So3Model()
        return {(l, n): {m: ex.unparse(t) for m, t in fresh.ladder_family(l, n).items()}
                for l, n in ((3, 0), (3, -1), (4, 2))}

    @pytest.mark.parametrize("l,n", [(3, 0), (3, -1), (4, 2)])
    @pytest.mark.parametrize("order", ["top-first", "bottom-first", "both-directions"])
    def test_request_order_does_not_change_members(self, full, l, n, order):
        moves = {
            "top-first": [(l, -1), (1, -1), (0, +1), (-l, +1)],
            "bottom-first": [(-l, +1), (0, -1), (l, -1)],
            "both-directions": [(0, +1), (-1, +1), (1, -1), (-2, -1), (l, +1), (-l, -1)],
        }[order]
        want = full[(l, n)]
        model = So3Model()
        for m, s in moves:
            if n == 0:
                fam = model.scalar_harmonic(l, m)
                assert ex.unparse(fam.components[f"n=0,m={m}"]) == want[m], (m, s)
            _coef, target, rep = model.apply_ladder(l, n, m, s)
            assert rep.verdict is nc.Verdict.SYMBOLIC_ZERO, (m, s)
            assert target == (m + s if abs(m + s) <= l else None)
            built = model._families[(l, n)]
            assert {m2: ex.unparse(model._member(l, n, m2)) for m2 in built} == {
                m2: want[m2] for m2 in built}
        got = {m: ex.unparse(t) for m, t in model.ladder_family(l, n).items()}
        assert got == want

    def test_threads_extending_one_family_agree(self):
        l, ms = 4, (4, 0, -2, -4)
        sequential = So3Model()
        want = [sequential.scalar_harmonic(l, m).to_json() for m in ms]
        shared = So3Model()
        results = {}

        def work(i):
            results[i] = shared.scalar_harmonic(l, ms[i]).to_json()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ms))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert [results[i] for i in range(len(ms))] == want
        full = {m: ex.unparse(t) for m, t in sequential.ladder_family(l, 0).items()}
        assert {m: ex.unparse(t) for m, t in shared.ladder_family(l, 0).items()} == full
