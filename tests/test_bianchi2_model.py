"""Solvable model: point series, lowering chain, covector and radial families."""

from fractions import Fraction

import pytest

from casimir import expr as ex
from casimir import numcheck as nc
from casimir.modelio import load_model
from casimir.models import bianchi2_model
from casimir.models.hypergeom import RadialProfile
from casimir.parser import parse


@pytest.fixture(scope="module")
def model():
    return bianchi2_model()


def test_model_is_built_from_its_model_file(model):
    """The model chart is the model file's chart plus the amplitude parameters."""
    spec = load_model("bianchi2")
    assert model.chart.replace(params={}) == spec.chart
    assert set(model.chart.params) == {"a_1", "a_2", "a_3"}
    assert [x.comps for x in model.generators] == [x.comps for x in spec.generators]
    assert model.constants.c == spec.constants.c


class TestPointSeries:
    def test_ground_profile(self, model):
        fam = model.point_series(1, 0, 0)
        t = fam.components["n=1,m=0,nu=0"]
        assert ex.simplify(ex.sub(t, parse("(1+v^2)^(1/2)", model.chart.coords))) == ex.ZERO
        assert fam.eigenvalues["G"] == ex.ONE
        assert fam.ok

    def test_reported_eigenvalue_triple(self, model):
        fam = model.point_series(1, 0, 2)
        assert fam.eigenvalues["G"] == ex.num(5)
        assert fam.eigenvalues["y-translation"] == ex.ZERO
        assert fam.eigenvalues["z-translation"] == ex.num(2)
        assert fam.ok

    def test_first_derivative_profile(self, model):
        fam = model.point_series(2, 0, 0)
        t = fam.components["n=2,m=0,nu=0"]
        want = parse("3*v*(1+v^2)^(1/2)", model.chart.coords)
        assert ex.simplify(ex.sub(t, want)) == ex.ZERO
        assert fam.eigenvalues["G"] == ex.num(4)
        assert fam.ok

    def test_closed_form_profile_formula(self, model):
        # profile(n, m) is the (n-m-1)-th derivative of (1+v^2)^(n-1/2)
        base = parse("(1+v^2)^(5/2)", model.chart.coords)
        want = ex.diff(ex.diff(base, "v"), "v")
        got = model.point_series_profile(3, 0)
        assert ex.simplify(ex.sub(got, want)) == ex.ZERO

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_sweep_certificates(self, model, n, nu):
        for m in range(-2, n):
            fam = model.point_series(n, m, nu)
            assert fam.ok, (n, m, nu)
            assert fam.eigenvalues["G"] == ex.num(nu * nu + n * n)
            for cert in fam.certificates:
                payload = cert.payload
                if hasattr(payload, "verdict"):
                    assert payload.verdict is nc.Verdict.SYMBOLIC_ZERO, (n, m, nu, cert.name)

    def test_lowering_chain(self, model):
        for n in (2, 3):
            for m in range(n - 1, -2, -1):
                fam = model.point_series(n, m, 1)
                cert = fam.certificate("lowering-relation")
                assert cert.ok, (n, m)

    def test_invalid_labels(self, model):
        with pytest.raises(ValueError):
            model.point_series(1, 1, 0)
        with pytest.raises(ValueError):
            model.point_series(0, -1, 0)

    def test_rational_vertical_frequency(self, model):
        fam = model.point_series(1, 0, Fraction(1, 2))
        assert fam.eigenvalues["G"] == ex.num(Fraction(5, 4))
        assert fam.ok


class TestCovectorHarmonics:
    def test_symbolic_amplitudes(self, model):
        fam = model.covector_harmonic(1, 0, 0)
        assert fam.ok
        assert fam.eigenvalues["G"] == ex.ONE
        assert fam.amplitudes == ("a_1", "a_2", "a_3")

    def test_translation_eigenvalue_nonzero_m(self, model):
        fam = model.covector_harmonic(2, 1, 0)
        assert fam.ok
        assert fam.eigenvalues["y-translation"] == ex.ONE


class TestRadialProfiles:
    def test_even_branch_matches_closed_form(self):
        prof = RadialProfile(0, 0, 1)
        for v in (0.1, 0.3, 0.5):
            got = prof.values([v])[0]
            assert abs(got - (1 + v * v) ** 0.5) < 1e-8

    def test_odd_branch_is_linear_at_unit_sigma(self):
        prof = RadialProfile(0, 0, 1, amp_even=0, amp_odd=1)
        for v in (0.2, 0.7):
            assert abs(prof.values([v])[0] - v) < 1e-12

    def test_series_value_at_zero(self):
        # the odd branch vanishes at v = 0, so f(0) is the even amplitude
        prof = RadialProfile(1.0, 0.5, 2.0, amp_even=3.5, amp_odd=2.0)
        assert abs(prof.values([0.0])[0] - 3.5) < 1e-14

    @pytest.mark.parametrize(
        "mu,nu,lam,A,B",
        [
            (0.0, 0.0, 1.0, 1.0, 0.0),
            (0.0, 0.0, 1.0, 0.0, 1.0),
            (1.0, 1.0, 2.0, 1.0, 0.0),
            (1.0, 0.0, -1.0, 1.0, 0.5),
            (0.5, 0.5, 2.0, 1.0, 1.0),
        ],
    )
    def test_residual_certificates(self, model, mu, nu, lam, A, B):
        fam = model.hypergeometric_harmonic(mu, nu, lam, A, B)
        cert = fam.certificates[0]
        assert cert.ok, cert.payload
        assert cert.payload["max_abs"] < 1e-8 * cert.payload["scale"]

    @pytest.mark.parametrize("A,B", [(0, 0), (0.0, 0.0), (0j, -0.0)])
    def test_zero_amplitudes_are_refused(self, model, A, B):
        """A = B = 0 is the zero function, which no eigenvalue certifies."""
        with pytest.raises(ValueError, match="A = B = 0"):
            model.hypergeometric_harmonic(0.0, 0.0, 1.0, A, B)

    def test_residuals_against_independent_oracle(self):
        """High-precision finite differences of an independent implementation.

        mpmath's own hypergeometric evaluation differentiated at step 1e-4
        (50-digit arithmetic, so the step dominates the error) must satisfy
        the radial equation, and our series must match mpmath pointwise."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        cases = [(0.0, 0.0, 1.0), (1.0, 1.0, 2.0), (0.5, 0.5, 2.0)]
        for mu, nu, lam in cases:
            sigma = lam - nu * nu
            root = mp.sqrt(mp.mpc(sigma))
            a = (-mu - root) / 2
            b = (-mu + root) / 2

            def f(v):
                return mp.hyp2f1(a, b, mp.mpf("0.5"), -(v * v))

            prof = RadialProfile(mu, nu, lam)
            h = mp.mpf("1e-4")
            for v0 in (0.15, 0.45, 0.8):
                v = mp.mpf(str(v0))
                # our series against the independent evaluation
                mine = prof.values([v0])[0]
                theirs = complex(f(v))
                assert abs(mine - theirs) < 1e-12 * (1 + abs(theirs))
                # central differences + one Richardson refinement
                d1h = (f(v + h) - f(v - h)) / (2 * h)
                d1h2 = (f(v + h / 2) - f(v - h / 2)) / h
                d1 = (4 * d1h2 - d1h) / 3
                d2h = (f(v + h) - 2 * f(v) + f(v - h)) / (h * h)
                d2h2 = (f(v + h / 2) - 2 * f(v) + f(v - h / 2)) / (h * h / 4)
                d2 = (4 * d2h2 - d2h) / 3
                resid = (1 + v * v) * d2 + (1 - 2 * mu) * v * d1 + (mu * mu + nu * nu - lam) * f(v)
                assert abs(complex(resid)) < 1e-8

    def test_odd_branch_derivatives_need_positive_points(self):
        prof = RadialProfile(0, 0, 1, amp_even=0, amp_odd=1)
        with pytest.raises(ValueError, match="v > 0"):
            prof.derivatives([-0.5])

    def test_series_domain_is_enforced(self):
        prof = RadialProfile(0, 0, 1)
        with pytest.raises(ValueError, match="unit disk"):
            prof.values([1.5])


class TestMetricAndFrame:
    def test_metric_matches_expected(self, model):
        want = (
            ("(1+v^2)*exp(2*y)", "-v*exp(y)", "0"),
            ("-v*exp(y)", "1", "0"),
            ("0", "0", "1"),
        )
        for i in range(3):
            for k in range(3):
                w = parse(want[i][k], model.chart.coords)
                assert ex.simplify(ex.sub(model.metric.g[i][k], w)) == ex.ZERO

    def test_frame_scale_factors_vanish(self, model):
        assert all(m == ex.ZERO for row in model.mu.mu for m in row)
