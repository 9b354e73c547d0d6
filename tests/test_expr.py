"""Expression kernel: parsing, calculus, canonical form, printing."""

import cmath
import gc
import itertools
import math
import operator
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from casimir import evalcore
from casimir import expr as ex
from casimir import operator as op
from casimir.cnum import CNum, divisors
from casimir.models import so3_model
from casimir.models.so3 import So3Model
from casimir.parser import ParseError, parse
from helpers import reference_simplify, tree_evaluate


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
        v = tree_evaluate(e, {"theta": 0.7, "phi": 1.1})
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

    def test_product_of_written_sums_is_bounded(self):
        x = ["x"]
        assert parse("*".join(["(1+x)"] * 50), x) == parse("(1+x)^50", x)
        with pytest.raises(ParseError, match="more than 100000 term products"):
            parse("*".join(["(1+x)"] * 400), x)

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

    @pytest.mark.parametrize("text,pos", [
        ("1/0", 1), ("x + 2/(x-x)", 5), ("0^(-1)", 1), ("cot(x-x)", 0), ("exp(1/(2-2))", 5),
    ])
    def test_exact_division_by_zero_is_a_parse_error(self, text, pos):
        with pytest.raises(ParseError, match="division by zero") as err:
            parse(text, ["x"])
        assert err.value.pos == pos

    def test_parameters_allowed(self):
        e = parse("exp(m*y)", ["y"], ["m"])
        assert ex.free_symbols(e) == {"m", "y"}

    @pytest.mark.parametrize("text", [
        "(" * 400 + "1" + ")" * 400, "-" * 1000 + "1", "sin(" * 200 + "x" + ")" * 200, "2^" * 300 + "2",
    ], ids=["parentheses", "signs", "arguments", "exponents"])
    def test_nesting_is_bounded(self, text):
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse(text, ["x"])

    def test_nesting_at_the_bound_parses(self):
        assert parse("(" * 99 + "x" + ")" * 99, ["x"]) == ex.sym("x")

    def test_digits_are_decimal_digits(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("\u00b2", [])  # a superscript two is a digit to str.isdigit, not to int()
        assert parse("\u0663", []) == ex.num(3)  # an Arabic-Indic three is a decimal digit

    @pytest.mark.parametrize("text", ["1e99999999", "1e-99999999", "1" * 5000, "0." + "0" * 5000 + "1"])
    def test_literal_size_is_bounded(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"at most {sys.get_int_max_str_digits()} digits"):
            parse(text, [])
        assert time.perf_counter() - start < 1

    def test_literal_at_the_digit_limit_reads_exactly(self):
        assert parse(f"1e{sys.get_int_max_str_digits() - 1}", []) == ex.num(10 ** (sys.get_int_max_str_digits() - 1))

    @pytest.mark.parametrize("text", [
        "(1+x)^3000", "sin(x)^2000", "(1+x)^1000000000", "(1+x)^(2000000001/2)", "(1+x+x^2)^200*(1+x)^300",
    ])
    def test_expansion_is_bounded(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {ex.EXPANSION_BOUND} term products"):
            parse(text, ["x"])
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("text", ["9^9999999", "2^2^2^2^2", "2^5^500", "2^(99999999/2)", "(1/2 + i/3)^9999"])
    def test_exact_power_size_is_bounded(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {sys.get_int_max_str_digits()} digits"):
            parse(text, [])
        assert time.perf_counter() - start < 1

    def test_exact_power_within_the_digit_limit(self):
        assert parse("2^14000", []) == ex.num(2 ** 14000)
        assert parse("(-1)^99999999 + i^99999998 + 0^5^500", []) == ex.num(-2)

    def test_expansion_below_the_bound(self):
        assert len(parse("(1+x)^300", ["x"]).terms) == 301

    def test_simplify_refuses_a_lift_past_the_bound(self):
        with pytest.raises(ex.ExpansionError):
            ex.simplify(parse("(1+x)^(-3000) + (1+x)^(-1)", ["x"]))


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
        num = central_difference(lambda x: tree_evaluate(e, {"v": x}).real, 0.7)
        sym = tree_evaluate(d, {"v": 0.7}).real
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
        e = ex.add(ex.power(ex.fun("cot", t), 2), ex.ONE, ex.neg(ex.power(ex.sin(t), -2)))
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
        # products and atoms come back as the same object
        for s in ("exp(m*y)*sin(y)*(1+y^2)^(-3/2)", "(1+y^2)^(-1/2)*cos(y)", "sin(exp(y))",
                  "(1-cos(y))^(1/2)", "(1+i)^(1/2)*y"):
            s1 = ex.simplify(parse(s, ["y"], ["m"]))
            assert type(s1) in (ex.Mul, ex.Pow, ex.Fun)
            assert ex.simplify(s1) is s1

    def test_complex_square_roots_fold_like_real_ones(self):
        # integral parts of a complex base's exponent fold into the
        # coefficient, as for real bases; only the square root stays an atom
        x, sq = ex.sym("x"), parse("(1+i)^(1/2)", [])
        assert ex.unparse(ex.mul(sq, x, sq)) == "(1+i)*x"
        assert ex.mul(ex.power(sq, 6), x) == parse("(-2+2*i)*x", ["x"])
        assert ex.unparse(parse("(1+i)^(-3/2)", [])) == "-1/2*i*((1+i))^(1/2)"
        for e in (ex.mul(sq, x), ex.power(sq, 3)):
            assert ex.mul(ex.Num(e.coef), *e.factors) == e
            assert ex.simplify(e) is e

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


# every memo table of the kernel, by the name of its cap; the table of
# canonical atoms is not one, and clearing it would let a second equal atom exist
_TABLES = {
    "_MONO_CACHE_CAP": "_MONO_CACHE",
    "_DIFF_CACHE_CAP": "_DIFF_CACHE",
}


def _clear_kernel_caches():
    for table in _TABLES.values():
        getattr(ex, table).clear()


def _set_caps(monkeypatch, cap: int):
    for name in _TABLES:
        monkeypatch.setattr(ex, name, cap)


def _casimir_components(so3=None) -> list:
    """G applied to a small type-(0,2) so3 tensor: its components."""
    so3 = so3 or so3_model()
    t = so3.ladder_family(2, 1)[1]
    tens = op.assemble(so3.frame, [op.TensorMonomial((), (1, 1), t)], 0, 2)
    return list(op.apply_casimir(so3.op_space, tens).comps)


def _casimir_of_tensor02(so3=None) -> list:
    """Canonical forms of G applied to a small type-(0,2) so3 tensor."""
    return [ex.unparse(c) for c in _casimir_components(so3)]


def _atoms(exprs) -> list:
    """The Sym, Fun and Pow nodes reachable from `exprs`."""
    return [n for e in exprs for n in _nodes(e) if type(n) in (ex.Sym, ex.Fun, ex.Pow)]


class TestKernelCaches:
    """The memo tables and atom interning never change a result."""

    def test_equal_atoms_are_one_object(self):
        x = ex.sym("x")
        b1, b2 = parse("1 + x^2", ["x"]), parse("x^2 + 1", ["x"])
        assert b1 is not b2
        assert ex.Pow(b1, Fraction(-1, 2)) is ex.Pow(b2, Fraction(-1, 2))
        assert ex.Fun("cos", x) is ex.Fun("cos", ex.sym("x"))
        assert ex.Pow(b1, Fraction(1, 2)) is not ex.Pow(b1, Fraction(-1, 2))
        assert ex.sym("x") is ex.sym("x") is x

    @pytest.mark.parametrize("cls", [ex.Sym, ex.Fun, ex.Pow])
    def test_atoms_compare_by_identity(self, cls):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__

    def test_dead_atoms_leave_the_table(self):
        _clear_kernel_caches()
        gc.collect()
        before = len(ex._ATOMS)
        fresh = [ex.fun("cos", ex.sym(f"gone{k}")) for k in range(50)]
        fresh += [ex.power(parse(f"1 + gone{k}^2", [f"gone{k}"]), Fraction(1, 2)) for k in range(50)]
        assert len(ex._ATOMS) >= before + 200
        del fresh
        _clear_kernel_caches()
        gc.collect()
        assert len(ex._ATOMS) == before

    def test_clearing_the_caches_keeps_canonical_forms(self):
        warm = _casimir_of_tensor02()
        again = _casimir_of_tensor02()
        _clear_kernel_caches()
        cold = _casimir_of_tensor02()
        assert warm == again == cold
        assert any(c != "0" for c in cold)

    def test_tables_stay_under_their_caps(self, monkeypatch):
        want = _casimir_of_tensor02()
        for cap, table in _TABLES.items():
            assert len(getattr(ex, table)) <= getattr(ex, cap), table
        # tiny caps clear the tables many times mid-computation
        _set_caps(monkeypatch, 5)
        _clear_kernel_caches()
        got = _casimir_of_tensor02()
        for table in _TABLES.values():
            assert len(getattr(ex, table)) <= 5, table
        assert got == want

    def test_threads_sharing_the_tables_agree(self, monkeypatch):
        want = _casimir_of_tensor02()
        _set_caps(monkeypatch, 20)
        _clear_kernel_caches()
        # the threads also simplify the same node objects, racing on their memos
        shared = _unsimplified_sums()
        want_shared = [ex.unparse(reference_simplify(e)) for e in shared]
        assert all(e._simple is None for e in shared)
        results, atoms, raced = [], [], []

        def work():
            comps = _casimir_components()
            results.append(([ex.unparse(c) for c in comps], [ex.unparse(ex.simplify(e)) for e in shared]))
            atoms.extend(_atoms(comps))
            # atoms no other thread holds yet: every thread races to intern them
            raced.append([ex.fun("cos", ex.power(ex.sym(f"race{k}"), 3)) for k in range(200)])

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
        assert results == [(want, want_shared)] * 4
        # one object per atom key
        assert len({a._key for a in atoms}) == len({id(a) for a in atoms})
        assert len(raced) == 4 and all(map(operator.is_, raced[0] * 3, raced[1] + raced[2] + raced[3]))


def _unsimplified_sums() -> list:
    """First and second derivatives of products of radicals: sums in which
    the common-exponent pass fires, built fresh and not yet simplified."""
    texts = ("x*(1+x^2)^(1/2)*(1-cos(y))^(1/2)", "exp(m*y)*sin(y)^3*(1+y^2)^(-3/2)",
             "(1-cos(x))^(1/2)*(1+cos(x))^(-3/2) + x*(1+x^2)^(-1/2)")
    out = []
    for text in texts:
        e = parse(text, ["x", "y"], ["m"])
        for a in ("x", "y"):
            d = ex.diff(e, a)
            out.extend([d, ex.diff(d, "x"), ex.diff(d, "y")])
    return [e for e in dict.fromkeys(out) if type(e) is ex.Add]


def test_each_sum_gets_few_common_exponent_passes(monkeypatch):
    """On G of a type-(0,2) tensor, composed cold, the common-exponent pass
    runs at most twice per distinct sum: a simplified node is not
    simplified again."""
    real_pass = ex._common_exponent_pass
    seen = []

    def counted_pass(s):
        seen.append(s._key)
        return real_pass(s)

    monkeypatch.setattr(ex, "_common_exponent_pass", counted_pass)
    _clear_kernel_caches()
    _casimir_of_tensor02(So3Model())
    assert seen and len(seen) <= 2 * len(set(seen))


def test_products_of_repeated_sums_merge_as_they_distribute(monkeypatch):
    """Like monomials merge after each pending sum, so 16 copies of a
    two-term sum make O(16^2) monomial products, not 2^17 - 2."""
    calls = []
    real = ex._mono_product

    def counted(m1, m2):
        calls.append(1)
        return real(m1, m2)

    monkeypatch.setattr(ex, "_mono_product", counted)
    v = ex.sym("v")
    got = ex.mul(*[parse("1 + v^2", ["v"])] * 16)
    assert len(calls) <= 300
    assert got == ex.add(*[ex.mul(ex.num(math.comb(16, j)), ex.power(v, 2 * j)) for j in range(17)])
    # terms that cancel part-way through are dropped, not carried
    assert ex.mul(*[parse("1 + v", ["v"]), parse("1 - v", ["v"])] * 3) == ex.power(parse("1 - v^2", ["v"]), 3)


def test_each_sum_is_lowered_in_one_pass(monkeypatch):
    """While the so3 type-(0,2) family of weight 2 is built and certified
    from cold caches (40 sums lowered), no sum that the common-exponent pass
    returned is handed to a pass again, whether or not that pass would
    change it, and no cofactor base^(cur - target) is expanded as an
    expression: every base there is a polynomial in cos(theta), lowered on
    coefficient lists."""
    real_pass, real_power = ex._common_exponent_pass, ex._power
    outputs = {}  # id -> every sum a pass returned, kept alive so ids stay unique
    changed = []
    second = []
    expanded = []
    depth = []

    def counted_pass(s):
        if id(s) in outputs:
            second.append(s)
        depth.append(1)
        try:
            out = real_pass(s)
        finally:
            depth.pop()
        outputs[id(out)] = out
        if out is not s:
            changed.append(out)
        return out

    def counted_power(b, e2):
        if depth:
            expanded.append((b, e2))
        return real_power(b, e2)

    monkeypatch.setattr(ex, "_common_exponent_pass", counted_pass)
    monkeypatch.setattr(ex, "_power", counted_power)
    _clear_kernel_caches()
    So3Model().tensor20_harmonic(2)  # a new model composes G cold
    assert len(changed) > 20
    assert not second
    assert not expanded


class TestRationalRoots:
    def test_divisors_match_brute_force(self):
        for n in range(400):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_constant_near_1e12_factors(self):
        # (u - 999983)(u^2 + 1000003): the constant is about 1e12 and has two
        # prime factors, so scanning every integer up to it would never end
        e = parse("((u - 999983)*(u^2 + 1000003))^(-1/2)", ["u"])
        assert ex.unparse(e) == "-i*(999983 - u)^(-1/2)*(1000003 + u^2)^(-1/2)"
        poly = [Fraction(c) for c in (-999983 * 1000003, 1000003, -999983, 1)]
        assert ex.rational_roots(poly) == [(999983, 1)]


def test_coefficient_list_toolkit():
    x = ex.sym("x")
    assert ex.poly_mul([1, -1], [1, 1]) == [1, 0, -1]
    assert ex.poly_pow([1, 1], 3) == [1, 3, 3, 1]
    assert ex.poly_pow([CNum(1), CNum(0, 1)], 2) == [CNum(1), CNum(0, 2), CNum(-1)]
    assert ex.poly_pow([Fraction(1, 2)], 0) == [1]
    assert ex.polynomial([1, 0, Fraction(-1, 2)], x) == ex.add(ex.ONE, ex.mul(ex.num(Fraction(-1, 2)), ex.power(x, 2)))
    poly = [Fraction(c) for c in ex.poly_mul(ex.poly_pow([-2, 1], 2), [1, 0, 1])]  # (x - 2)^2 (1 + x^2)
    assert ex.rational_roots(poly) == [(2, 2)] and poly == [1, 0, 1]


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
        assert m._hash == hash((4, (x,), fr, fi))


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
        a = tree_evaluate(e, env)
        b = tree_evaluate(s, env)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


_RADICALS = tuple(parse(t, _COORDS) for t in (
    "(1+x^2)^(1/2)", "(1+x^2)^(-1/2)", "(1+y^2)^(-3/2)", "(1-cos(x))^(1/2)", "(1+cos(x))^(1/2)",
    "(1-cos(y))^(-1/2)", "(1+cos(y))^(3/2)", "(1+i)^(1/2)", "exp(i*y)",
))


def _rich_exprs():
    """_exprs plus division, half powers of 1+x^2 and 1 -/+ cos, exp and diff."""
    leaves = st.one_of(
        st.sampled_from([ex.sym(c) for c in _COORDS]),
        st.integers(-3, 3).map(ex.num),
        st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: ex.num(Fraction(t[0], t[1]))),
        st.sampled_from(_RADICALS),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda t: ex.add(*t)),
            pairs.map(lambda t: ex.sub(*t)),
            pairs.map(lambda t: ex.mul(*t)),
            pairs.map(lambda t: t[0] if t[1] == ex.ZERO else ex.div(*t)),
            children.map(ex.sin),
            children.map(ex.cos),
            children.map(ex.exp),
            children.map(lambda e: ex.diff(e, "x")),
            children.map(lambda e: ex.diff(e, "y")),
        )

    tree = st.recursive(leaves, extend, max_leaves=6)
    # sums of products, where powers of one base meet and the common-exponent pass fires
    products = st.lists(tree, min_size=1, max_size=3).map(lambda fs: ex.mul(*fs))
    sums = st.lists(products, min_size=2, max_size=4).map(lambda ts: ex.add(*ts))
    return st.one_of(tree, sums, sums.map(lambda e: ex.diff(e, "x")))


_BASES = tuple(parse(t, _COORDS) for t in (
    "1 - cos(x)", "1 + cos(x)", "1 + x^2", "1 + y^2", "1 - cos(y)",
    # cofactor terms holding sin, exp or a numeric radicand take mul's rules
    "1 + sin(y)", "1 + exp(i*x)", "1 + sqrt(2)*y",
))


def _multi_base_sums():
    """Sums in which several polynomial bases fire in one pass: powers of
    two or more bases, integer and half-integer exponents of each, next to
    terms that hold no power of a base."""
    exps = st.sampled_from([Fraction(k, 2) for k in (-5, -4, -3, -2, -1, 1)])
    powers = st.tuples(st.sampled_from(_BASES), exps).map(lambda t: ex.power(*t))
    others = st.sampled_from([ex.ONE, *(ex.sym(c) for c in _COORDS), parse("cos(x)^2", _COORDS),
                              parse("sin(y)", _COORDS), parse("exp(i*y)", _COORDS),
                              parse("sqrt(3)", _COORDS)])
    coefs = st.integers(-3, 3).filter(bool).map(ex.num)
    terms = st.tuples(coefs, others, st.lists(powers, max_size=3)).map(
        lambda t: ex.mul(t[0], t[1], *t[2]))
    return st.lists(terms, min_size=2, max_size=6).map(lambda ts: ex.add(*ts))


_COS_X = parse("cos(x)", _COORDS)
_LINEAR_COS = (parse("1 - cos(x)", _COORDS), parse("1 + cos(x)", _COORDS))


def _cos_rational_sums():
    """Sums of c * cos(x)^j * sin(x)^(0|1) * (1 - cos(x))^-a * (1 + cos(x))^-b
    with a, b <= 4, times (1 - cos(x))^p * (1 + cos(x))^q with p, q <= 3, so
    that the linear bases often divide every numerator.  Returns (sum, p, q,
    the pole orders of the sum before the multiplier)."""
    coefs = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda t: ex.num(Fraction(*t)))
    terms = st.tuples(coefs, st.integers(0, 4), st.integers(0, 1), st.integers(0, 4),
                      st.integers(0, 4)).map(
        lambda t: ex.mul(t[0], ex.power(_COS_X, t[1]), ex.power(ex.sin(ex.sym("x")), t[2]),
                         ex.power(_LINEAR_COS[0], -t[3]), ex.power(_LINEAR_COS[1], -t[4])))

    def multiply(t):
        inner, p, q = ex.add(*t[0]), t[1], t[2]
        whole = ex.mul(inner, ex.power(_LINEAR_COS[0], p), ex.power(_LINEAR_COS[1], q))
        return whole, p, q, tuple(_pole_order(inner, b) for b in _LINEAR_COS)

    return st.tuples(st.lists(terms, min_size=1, max_size=5), st.integers(0, 3),
                     st.integers(0, 3)).map(multiply)


def _pole_order(e, base) -> int:
    """The largest k such that a term of e holds base^-k."""
    out = 0
    for t in (e.terms if type(e) is ex.Add else (e,)):
        for f in ex._coef_mono(t)[1]:
            if type(f) is ex.Pow and f.base == base:
                out = max(out, -f.e2 // 2)
    return out


def _mp_value(e, x, mp):
    """e at the real point x, in mpmath at its working precision."""
    tt = type(e)
    if tt is ex.Num:
        re, im = (Fraction(part) for part in (e.val.re, e.val.im))
        return mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)
    if tt is ex.Sym:
        return mp.mpf(x)
    if tt is ex.Fun:
        return getattr(mp, e.fname)(_mp_value(e.arg, x, mp))
    if tt is ex.Pow:
        return mp.power(_mp_value(e.base, x, mp), mp.mpf(e.e2) / 2)
    if tt is ex.Mul:
        out = _mp_value(ex.Num(e.coef), x, mp)
        for f in e.factors:
            out *= _mp_value(f, x, mp)
        return out
    return mp.fsum(_mp_value(t, x, mp) for t in e.terms)


@given(_cos_rational_sums())
@settings(max_examples=150, deadline=None)
def test_linear_cos_bases_divide_out_of_every_numerator(case):
    """The value holds to 30 digits, simplify is idempotent, and a factor
    (1 -/+ cos)^p that every numerator carries cancels against the pole."""
    mp = pytest.importorskip("mpmath").mp
    e, p, q, poles = case
    s = ex.simplify(e)
    assert ex.simplify(s) is s
    with mp.workdps(30):
        for x in ("0.37", "1.21", "2.6"):
            got, want = _mp_value(s, x, mp), _mp_value(e, x, mp)
            assert abs(got - want) <= mp.mpf("1e-24") * (1 + abs(want))
    for base, k, pole in zip(_LINEAR_COS, (p, q), poles):
        assert _pole_order(s, base) <= max(0, pole - k)


def test_a_sparse_numerator_can_gain_terms():
    """Dividing out a base is exact, not a size heuristic: 3 cos(x) (1 +
    cos(x)^3) / (1 + cos(x)) has three terms in lowest terms."""
    e = parse("3*cos(x)*(1 + cos(x))^(-1) + 3*cos(x)^4*(1 + cos(x))^(-1)", _COORDS)
    assert ex.unparse(ex.simplify(e)) == "3*cos(x) - 3*cos(x)^2 + 3*cos(x)^3"


def _cos_rational_exprs():
    return _cos_rational_sums().map(lambda case: case[0])


def _nodes(e):
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        tt = type(n)
        if tt is ex.Fun:
            stack.append(n.arg)
        elif tt is ex.Pow:
            stack.append(n.base)
        elif tt is ex.Mul:
            stack.extend(n.factors)
        elif tt is ex.Add:
            stack.extend(n.terms)


@given(st.one_of(_rich_exprs(), _multi_base_sums(), _cos_rational_exprs()))
@settings(max_examples=200, deadline=None)
def test_every_node_is_a_fixed_point_of_its_constructor(e):
    # simplify returns a node whose children come back unchanged as it is
    for n in itertools.chain(_nodes(e), _nodes(ex.simplify(e))):
        tt = type(n)
        if tt is ex.Mul:
            assert ex.mul(ex.Num(n.coef), *n.factors) == n
        elif tt is ex.Add:
            assert ex.add(*n.terms) == n
        elif tt is ex.Pow:
            assert ex._power(n.base, n.e2) == n
        elif tt is ex.Fun:
            assert ex.fun(n.fname, n.arg) == n


@given(st.one_of(_rich_exprs(), _multi_base_sums(), _cos_rational_exprs()))
@settings(max_examples=200, deadline=None)
def test_simplify_matches_the_rebuilding_reference(e):
    assert ex.unparse(ex.simplify(e)) == ex.unparse(reference_simplify(e))


@given(_exprs())
@settings(max_examples=60, deadline=None)
def test_unparse_reparse_structural(e):
    assert parse(ex.unparse(e), _COORDS) == e


@given(_exprs())
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_reparsed(e):
    u = parse(ex.unparse(e), _COORDS)
    env = {"x": 0.37, "y": 1.21}
    assert tree_evaluate(u, env) == tree_evaluate(e, env)


class TestNodeMemo:
    """``simplify`` keeps its result on the node and never changes it by that."""

    def test_simplify_changes_the_shared_sums(self):
        assert any(ex.simplify(e) != e for e in _unsimplified_sums())

    @given(st.one_of(_rich_exprs(), _multi_base_sums(), _cos_rational_exprs()))
    @settings(max_examples=100, deadline=None)
    def test_memo_matches_a_fresh_node(self, e):
        first = ex.simplify(e)
        assert ex.simplify(e) is first  # read back from the memo
        # the same expression with no memo on any of its nodes: new sums and
        # products, and the canonical atoms they share with e and first reset
        _clear_kernel_caches()
        fresh = parse(ex.unparse(e), _COORDS)
        for n in itertools.chain(_nodes(e), _nodes(first), _nodes(fresh)):
            if type(n) not in (ex.Num, ex.Sym):
                n._simple = None
        assert fresh == e
        assert all(n._simple is None for n in _nodes(fresh) if type(n) not in (ex.Num, ex.Sym))
        assert ex.unparse(ex.simplify(fresh)) == ex.unparse(first)

    @given(st.one_of(_rich_exprs(), _multi_base_sums(), _cos_rational_exprs()))
    @settings(max_examples=100, deadline=None)
    def test_simplify_is_idempotent_and_memos_hold_no_cycles(self, e):
        s = ex.simplify(e)
        assert ex.simplify(s) is s
        for n in itertools.chain(_nodes(e), _nodes(s)):
            # a node that is its own simplified form holds the sentinel
            assert n._simple is not n


def _orders_and_groupings(fs):
    """mul of every order of fs, each split once into an inner and an outer product."""
    for perm in itertools.permutations(fs):
        for j in range(1, len(perm) + 1):
            yield ex.mul(ex.mul(*perm[:j]), *perm[j:])


_SIN_X = parse("sin(x)", _COORDS)

# factor lists for the product kernel's shortcuts, each with its one written form
_PRODUCT_CASES = [
    # one exp factor at exponent 1 is left as it is; two merge
    (["exp(x)", "y", "2"], "2*y*exp(x)"),
    (["exp(x + y)", "1 + y"], "y*exp(x + y) + exp(x + y)"),
    (["exp(x)", "y", "exp(-x)"], "y"),
    (["exp(i*y)", "exp(-i*y)"], "1"),
    (["exp(x)^2", "exp(y)"], "exp(2*x + y)"),
    # sin powers that peel into 1 - cos^2, and ones that do not
    (["sin(x)", "sin(x)", "sin(x)"], "sin(x) - sin(x)*cos(x)^2"),
    ([ex.Pow(_SIN_X, -1), "y"], "y*sin(x)*(1 + cos(x))^(-1)*(1 - cos(x))^(-1)"),
    (["sin(x)", "y"], "y*sin(x)"),
    ([ex.Pow(_SIN_X, Fraction(1, 2)), "sin(x)"], "sin(x)^(3/2)"),
    ([ex.Pow(_SIN_X, Fraction(3, 2)), "y"], "y*sin(x)^(3/2)"),
    # odd half powers of 1 -/+ cos(u) pair into sin(u) or shed a copy
    (["(1 - cos(x))^(1/2)", "(1 + cos(x))^(3/2)"], "cos(x)*sin(x) + sin(x)"),
    (["(1 - cos(x))^(3/2)", "y"], "-y*cos(x)*(1 - cos(x))^(1/2) + y*(1 - cos(x))^(1/2)"),
    (["(1 + cos(x))^(-1/2)", "(1 - cos(x))^(-3/2)", "y"],
     "y*sin(x)*(1 + cos(x))^(-1)*(1 - cos(x))^(-2)"),
    (["(1 - cos(x))^(1/2)", "(1 + cos(x))^(1/2)", "(1 - cos(y))^(-1/2)"],
     "sin(x)*(1 - cos(y))^(-1/2)"),
]


class TestProductKernel:
    """Products of the same factors in any order or grouping agree: in
    written form for the kernel's shortcut cases, and after `simplify` in
    general."""

    @pytest.mark.parametrize("factors,want", _PRODUCT_CASES)
    def test_shortcut_cases_have_one_form(self, factors, want):
        fs = [parse(f, _COORDS) if isinstance(f, str) else f for f in factors]
        assert {ex.unparse(p) for p in _orders_and_groupings(fs)} == {want}

    def test_a_lone_exp_of_zero_is_one(self):
        e0 = ex.Fun("exp", ex.ZERO)  # an atom `fun` would not build
        x = ex.sym("x")
        assert ex.mul(e0) == ex.ONE
        assert ex.mul(e0, x) == ex.mul(x, e0) == x
        assert ex.mul(e0, ex.exp(x)) == ex.exp(x)

    def test_a_peeled_sin_square_meets_its_pole(self):
        """sin(x)^2 / (1 - cos(x)) is 1 + cos(x) when the two meet in one
        product; formed in two steps, the pole stays on each term of
        1 - cos(x)^2 until `simplify` divides it out."""
        fs = [ex.Pow(_SIN_X, 2), parse("(1 - cos(x))^(-1)", _COORDS)]
        forms = {ex.unparse(ex.simplify(p)) for p in _orders_and_groupings(fs)}
        assert forms == {"1 + cos(x)"}

    @given(st.lists(st.one_of(_rich_exprs(), _cos_rational_exprs()), min_size=2, max_size=4),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_order_and_grouping(self, fs, j):
        """Raw products are equal in value but may differ in written form when
        several sums distribute (see `test_a_peeled_sin_square_meets_its_pole`);
        their simplified forms agree."""
        j = min(j, len(fs) - 1)
        want = ex.simplify(ex.mul(*fs))
        assert ex.simplify(ex.mul(*reversed(fs))) == want
        assert ex.simplify(ex.mul(ex.mul(*fs[:j]), *fs[j:])) == want


def _sums_of_products():
    """Lists of 1-4 factor products, with zero factors and pairs of products
    that cancel exactly."""
    factors = st.one_of(_rich_exprs(), _multi_base_sums(), st.just(ex.ZERO))
    products = st.lists(factors, min_size=1, max_size=4).map(tuple)
    return st.tuples(st.lists(products, max_size=4), st.lists(products, max_size=2)).map(
        lambda t: t[0] + [q for p in t[1] for q in (p, (ex.MINUS_ONE, *p))])


@given(_sums_of_products())
@settings(max_examples=80, deadline=None)
def test_sum_of_products_matches_adding_the_products(ps):
    want = ex.add(*[ex.mul(*p) for p in ps])
    got = ex.sum_of_products(ps)
    assert ex.unparse(got) == ex.unparse(want)
    assert got == want


# -- complex conjugation --------------------------------------------------------

_FLIPS = st.sampled_from([(), ("y",)])


@given(st.one_of(_rich_exprs(), _multi_base_sums()), _FLIPS)
@settings(max_examples=150, deadline=None)
def test_conjugation_is_an_involution(e, flip):
    c = ex.conj(e, flip)
    assume(c is not None)
    assert ex.conj(c, flip) == e


@given(_rich_exprs(), _FLIPS)
@settings(max_examples=150, deadline=None)
def test_conjugate_evaluates_to_the_conjugate_value(e, flip):
    """At real points, conj(e) takes the conjugate values of e, and with y
    negated those of e at -y."""
    c = ex.conj(e, flip)
    assume(c is not None)
    points = [(0.3 + 0.17 * k, 0.2 + 0.13 * k) for k in range(8)]
    try:
        want = evalcore.compile_expr(e, _COORDS).run([(x, -y if flip else y) for x, y in points])
        got = evalcore.compile_expr(c, _COORDS).run(points)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    for a, b in zip(got, want):
        assume(cmath.isfinite(b))
        assert abs(a - b.conjugate()) <= 1e-9 * (1 + abs(b))


def test_conjugation_rules():
    def conj(text, flip=()):
        c = ex.conj(parse(text, _COORDS), flip)
        return c if c is None else ex.unparse(c)

    assert conj("(2 - 3*i)*x*exp(i*y) + sin(x + i)") == "(2+3*i)*x*exp(-i*y) - sin(i - x)"
    assert conj("(1 + x^2)^(1/2) + 3^(1/2)*y", ("y",)) == "-y*3^(1/2) + (1 + x^2)^(1/2)"
    # a half power is its own conjugate only while its base is
    for text in ("(1 + i)^(1/2)", "(x + i*y)^(-1/2)", "(1 + exp(i*x))^(3/2)"):
        assert conj(text) is None
    assert conj("(2 + y)^(1/2)", ("y",)) is None
    assert conj("(2 + y)^2", ("y",)) == "4 - 4*y + y^2"
