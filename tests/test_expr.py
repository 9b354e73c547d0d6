"""Expression kernel: parsing, calculus, canonical form, printing."""

import cmath
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from casimir import expr as ex
from casimir import operator as op
from casimir.cnum import CNum
from casimir.models import so3_model
from casimir.parser import ParseError, parse


def central_difference(f, x0: float, h: float = 1e-6) -> float:
    """Independent derivative oracle for diff()."""
    return (f(x0 + h) - f(x0 - h)) / (2 * h)


class TestParse:
    def test_single_function_node(self):
        e = parse("sin(phi)", ["theta", "phi"])
        assert isinstance(e, ex.Fun)
        assert e.fname == "sin"
        assert e.arg == ex.sym("phi")

    def test_generator_coefficient_product(self):
        e = parse("cot(theta)*cos(phi)", ["theta", "phi"])
        # cot is rewritten internally; the value is what matters
        want = ex.mul(
            ex.cos(ex.sym("theta")),
            ex.power(ex.sin(ex.sym("theta")), -1),
            ex.cos(ex.sym("phi")),
        )
        assert ex.simplify(ex.sub(e, want)) == ex.ZERO
        v = ex.evaluate(e, {"theta": 0.7, "phi": 1.1})
        assert abs(v - (cmath.cos(0.7) / cmath.sin(0.7)) * cmath.cos(1.1)) < 1e-14

    def test_half_integer_power_node(self):
        e = parse("(1+v^2)^(1/2)", ["v"])
        assert isinstance(e, ex.Pow)
        assert e.exp == Fraction(1, 2)

    def test_rational_and_decimal_literals_exact(self):
        assert parse("0.5", []) == parse("1/2", [])
        assert parse("1e-3", []) == ex.num(Fraction(1, 1000))
        assert parse("2.25", []) == ex.num(Fraction(9, 4))

    def test_imaginary_unit(self):
        e = parse("i*i", [])
        assert e == ex.num(-1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("sin(theta", ["theta"])
        assert err.value.pos == 9

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse("sin(psi)", ["theta"])

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(theta)", ["theta"])

    def test_exponent_must_be_constant(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("x^y", ["x", "y"])
        with pytest.raises(ParseError, match="exponent"):
            parse("x^(1/3)", ["x"])

    def test_parameters_allowed(self):
        e = parse("exp(m*y)", ["y"], ["m"])
        assert ex.free_symbols(e) == {"m", "y"}


class TestDiff:
    def test_table_rule(self):
        t = ex.sym("theta")
        assert ex.diff(ex.cos(t), "theta") == ex.neg(ex.sin(t))

    def test_chain_rule_sqrt(self):
        e = parse("(1+v^2)^(1/2)", ["v"])
        d = ex.diff(e, "v")
        want = parse("v*(1+v^2)^(-1/2)", ["v"])
        assert d == want
        # numeric cross-check against the central-difference oracle
        num = central_difference(lambda x: ex.evaluate(e, {"v": x}).real, 0.7)
        sym = ex.evaluate(d, {"v": 0.7}).real
        assert abs(num - sym) < 1e-8

    def test_parameter_exponential(self):
        e = parse("exp(m*y)", ["y"], ["m"])
        d = ex.diff(e, "y")
        assert d == parse("m*exp(m*y)", ["y"], ["m"])

    def test_constant_derivative(self):
        assert ex.diff(ex.num(Fraction(3, 7)), "x") == ex.ZERO

    def test_product_rule(self):
        x = ex.sym("x")
        e = ex.mul(ex.sin(x), ex.cos(x))
        d = ex.diff(e, "x")
        want = ex.add(ex.mul(ex.cos(x), ex.cos(x)), ex.neg(ex.mul(ex.sin(x), ex.sin(x))))
        assert ex.simplify(ex.sub(d, want)) == ex.ZERO


class TestCanonicalForm:
    def test_pythagorean_collapses_at_construction(self):
        t = ex.sym("theta")
        assert ex.add(ex.power(ex.sin(t), 2), ex.power(ex.cos(t), 2), ex.num(-1)) == ex.ZERO

    def test_cotangent_identity(self):
        t = ex.sym("theta")
        e = ex.add(ex.power(ex.cot(t), 2), ex.ONE, ex.neg(ex.power(ex.sin(t), -2)))
        assert ex.simplify(e) == ex.ZERO

    def test_half_power_pairing(self):
        t = ex.sym("theta")
        b1 = ex.power(ex.sub(ex.ONE, ex.cos(t)), Fraction(1, 2))
        b2 = ex.power(ex.add(ex.ONE, ex.cos(t)), Fraction(1, 2))
        assert ex.mul(b1, b2) == ex.sin(t)

    def test_inverse_power_cancellation(self):
        v = ex.sym("v")
        a = ex.add(ex.ONE, ex.power(v, 2))
        assert ex.mul(a, ex.power(a, -1)) == ex.ONE

    def test_radicals(self):
        assert ex.power(ex.num(4), Fraction(1, 2)) == ex.num(2)
        assert ex.power(ex.num(8), Fraction(1, 2)) == ex.mul(ex.num(2), ex.power(ex.num(2), Fraction(1, 2)))
        assert ex.power(ex.num(-4), Fraction(1, 2)) == ex.num(0, 2)
        s2 = ex.power(ex.num(2), Fraction(1, 2))
        assert ex.mul(s2, s2) == ex.num(2)
        s3 = ex.power(ex.num(3), Fraction(1, 2))
        assert ex.mul(s2, s3) == ex.power(ex.num(6), Fraction(1, 2))

    def test_exp_merging(self):
        p = ex.sym("phi")
        assert ex.mul(ex.exp(ex.mul(ex.I, p)), ex.exp(ex.neg(ex.mul(ex.I, p)))) == ex.ONE

    def test_sqrt_ode_identity(self):
        # the closed-form radial profile satisfies its equation exactly
        v = ex.sym("v")
        f = parse("(1+v^2)^(1/2)", ["v"])
        resid = ex.add(
            ex.mul(parse("1+v^2", ["v"]), ex.diff(ex.diff(f, "v"), "v")),
            ex.mul(v, ex.diff(f, "v")),
            ex.neg(f),
        )
        assert ex.simplify(resid) == ex.ZERO

    def test_simplify_idempotent_on_examples(self):
        samples = [
            "exp(m*y)*sin(y)^3*(1+y^2)^(-3/2) + (1+y^2)^(1/2)",
            "cot(y)^2 - 1/sin(y)^2",
            "(1-cos(y))^(1/2)*(1+cos(y))^(3/2)",
        ]
        for s in samples:
            e = parse(s, ["y"], ["m"])
            s1 = ex.simplify(e)
            assert ex.simplify(s1) == s1

    def test_power_exponent_restriction(self):
        with pytest.raises(ex.ExprError):
            ex.power(ex.sym("x"), Fraction(1, 3))


    def test_exponent_forms_agree(self):
        x = ex.sym("x")
        bases = [x, parse("1 + x^2", ["x"]), ex.sin(x), ex.exp(x), ex.num(3), ex.mul(ex.num(2), x)]
        for b in bases:
            assert ex.power(b, ex.num(2)) == ex.power(b, 2) == ex.power(b, Fraction(2))
            assert ex.power(b, ex.num(Fraction(-1, 2))) == ex.power(b, Fraction(-1, 2))
        assert type(ex.power(x, -1).exp) is int
        assert ex.power(x, Fraction(-3, 2)).exp == Fraction(-3, 2)
        with pytest.raises(ex.ExprError):
            ex.power(ex.power(x, Fraction(1, 2)), Fraction(1, 2))


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            "(1+v^2)^(1/2)",
            "-3/2*v + sin(v)^2",
            "exp(2*v)*v^(-2)",
            "cot(v)*cos(v)",
            "i*v - 2",
            "(1+2*i)*exp(i*v)",
            "v^(-3/2)",
            "2^(1/2)*sin(v)",
        ],
    )
    def test_round_trip(self, text):
        e = parse(text, ["v"])
        assert parse(ex.unparse(e), ["v"]) == e


def _clear_kernel_caches():
    for table in (ex._MONO_CACHE, ex._ATOMS, ex._DIFF_CACHE, ex._ADD_POWER_CACHE):
        table.clear()


def _casimir_of_tensor02() -> list:
    """Canonical forms of G applied to a small type-(0,2) so3 tensor."""
    so3 = so3_model()
    t = so3.ladder_family(2, 1)[1]
    tens = op.assemble(so3.frame, [op.TensorMonomial((), (1, 1), t)], 0, 2)
    return [ex.unparse(c) for c in op.apply_casimir(so3.op_space, tens).comps]


class TestKernelCaches:
    """The memo tables and atom interning never change a result."""

    def test_equal_atoms_are_one_object(self):
        x = ex.sym("x")
        b1, b2 = parse("1 + x^2", ["x"]), parse("x^2 + 1", ["x"])
        assert b1 is not b2
        assert ex.Pow(b1, Fraction(-1, 2)) is ex.Pow(b2, Fraction(-1, 2))
        assert ex.Fun("cos", x) is ex.Fun("cos", ex.sym("x"))
        assert ex.Pow(b1, Fraction(1, 2)) is not ex.Pow(b1, Fraction(-1, 2))

    def test_clearing_the_caches_keeps_canonical_forms(self):
        warm = _casimir_of_tensor02()
        again = _casimir_of_tensor02()
        _clear_kernel_caches()
        cold = _casimir_of_tensor02()
        assert warm == again == cold
        assert any(c != "0" for c in cold)

    def test_tables_stay_under_their_caps(self, monkeypatch):
        want = _casimir_of_tensor02()
        assert len(ex._MONO_CACHE) <= ex._MONO_CACHE_CAP
        assert len(ex._ATOMS) <= ex._ATOMS_CAP
        # tiny caps clear the tables many times mid-computation
        monkeypatch.setattr(ex, "_MONO_CACHE_CAP", 7)
        monkeypatch.setattr(ex, "_ATOMS_CAP", 5)
        _clear_kernel_caches()
        got = _casimir_of_tensor02()
        assert len(ex._MONO_CACHE) <= 7
        assert len(ex._ATOMS) <= 5
        assert got == want

    def test_threads_sharing_the_tables_agree(self, monkeypatch):
        want = _casimir_of_tensor02()
        monkeypatch.setattr(ex, "_MONO_CACHE_CAP", 50)
        monkeypatch.setattr(ex, "_ATOMS_CAP", 20)
        _clear_kernel_caches()
        results = []

        def work():
            results.append(_casimir_of_tensor02())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert results == [want] * 4


class TestRationalRoots:
    def test_divisors_match_brute_force(self):
        for n in range(400):
            assert ex._divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_constant_near_1e12_factors(self):
        # (u - 999983)(u^2 + 1000003): the constant is about 1e12 and has two
        # prime factors, so scanning every integer up to it would never end
        e = parse("((u - 999983)*(u^2 + 1000003))^(-1/2)", ["u"])
        assert ex.unparse(e) == "-i*(999983 - u)^(-1/2)*(1000003 + u^2)^(-1/2)"
        poly = [Fraction(c) for c in (-999983 * 1000003, 1000003, -999983, 1)]
        assert ex._rational_roots(poly) == [(999983, 1)]


# -- CNum against a Fraction-pair reference -----------------------------------

_RATIONALS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-40, 40).map(Fraction),  # integral Fractions must normalize to ints
)


def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_pow(a, n):
    if n < 0:
        d = a[0] * a[0] + a[1] * a[1]
        a, n = (a[0] / d, -a[1] / d), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _matches(c: CNum, ref) -> bool:
    """Equal parts, each an int exactly when integral."""
    return all(
        part == want and (type(part) is int) == (Fraction(want).denominator == 1)
        for part, want in ((c.re, ref[0]), (c.im, ref[1]))
    )


@given(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS, st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_cnum_matches_fraction_pairs(a_re, a_im, b_re, b_im, n):
    a, b = CNum(a_re, a_im), CNum(b_re, b_im)
    ra, rb = (Fraction(a_re), Fraction(a_im)), (Fraction(b_re), Fraction(b_im))
    assert _matches(a, ra) and _matches(b, rb)
    assert _matches(a + b, (ra[0] + rb[0], ra[1] + rb[1]))
    assert _matches(a - b, (ra[0] - rb[0], ra[1] - rb[1]))
    assert _matches(a * b, _ref_mul(ra, rb))
    assert _matches(-a, (-ra[0], -ra[1]))
    if any(ra):
        assert _matches(a.inverse(), _ref_pow(ra, -1))
        assert _matches(b / a, _ref_mul(rb, _ref_pow(ra, -1)))
        assert _matches(a ** n, _ref_pow(ra, n))
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    assert a.is_zero() == (ra == (0, 0))
    assert a.is_one() == (ra == (1, 0))
    assert a.is_real() == (ra[1] == 0)
    assert a.negative_lead() == (ra[0] < 0 or (ra[0] == 0 and ra[1] < 0))
    assert (a == b) == (ra == rb)


@given(_RATIONALS, _RATIONALS)
@settings(max_examples=100, deadline=None)
def test_integral_parts_key_and_hash_like_fractions(re, im):
    """An int part keys and hashes as the equal Fraction did, so canonical
    order, hashes and digests do not depend on how a value was built."""
    fr, fi = Fraction(re), Fraction(im)
    built = [CNum(re, im), CNum(fr, fi), CNum(fr.numerator, fi) if fr.denominator == 1 else CNum(fr, fi)]
    assert len({hash(c) for c in built}) == 1 and hash(built[0]) == hash((fr, fi))
    x = ex.sym("x")
    for c in built:
        n, m = ex.Num(c), ex.Mul(c, (x,))
        assert n._key == (0, fr, fi) and m._key == (4, (x._key,), fr, fi)
        assert n._hash == hash((0, fr.numerator, fr.denominator, fi.numerator, fi.denominator))
        assert m._hash == hash((4, (x._hash,), fr.numerator, fr.denominator, fi.numerator, fi.denominator))


# -- randomized properties ----------------------------------------------------

_COORDS = ("x", "y")


def _exprs(depth=3):
    leaves = st.one_of(
        st.sampled_from([ex.sym(c) for c in _COORDS]),
        st.integers(-3, 3).map(ex.num),
        st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: ex.num(Fraction(t[0], t[1]))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: ex.add(*t)),
            st.tuples(children, children).map(lambda t: ex.mul(*t)),
            children.map(lambda e: ex.sin(e)),
            children.map(lambda e: ex.cos(e)),
            children.map(lambda e: ex.power(e, 2)),
            children.map(ex.neg),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_mixed_partials_commute(e):
    d1 = ex.simplify(ex.diff(ex.diff(e, "x"), "y"))
    d2 = ex.simplify(ex.diff(ex.diff(e, "y"), "x"))
    assert d1 == d2


@given(_exprs())
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_value(e):
    s = ex.simplify(e)
    for k in range(32):
        env = {"x": 0.1 + 0.09 * k, "y": -1.3 + 0.08 * k}
        a = ex.evaluate(e, env)
        b = ex.evaluate(s, env)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


@given(_exprs())
@settings(max_examples=60, deadline=None)
def test_unparse_reparse_structural(e):
    assert parse(ex.unparse(e), _COORDS) == e


@given(_exprs())
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_reparsed(e):
    u = parse(ex.unparse(e), _COORDS)
    env = {"x": 0.37, "y": 1.21}
    assert ex.evaluate(u, env) == ex.evaluate(e, env)
