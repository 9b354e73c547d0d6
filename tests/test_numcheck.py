"""Tri-state zero verification and sampling determinism."""

import math
from fractions import Fraction

import pytest

from casimir import evalcore
from casimir import expr as ex
from casimir import numcheck as nc
from casimir.parser import parse
from helpers import tree_evaluate

BOX = {"theta": (0.01, 3.13)}


def test_symbolic_zero():
    t = ex.sym("theta")
    r = nc.is_zero(ex.add(ex.power(ex.sin(t), 2), ex.power(ex.cos(t), 2), ex.num(-1)), BOX)
    assert r.verdict is nc.Verdict.SYMBOLIC_ZERO


def test_numeric_zero_without_symbolic_proof():
    # no angle-addition rewriting, so this can only pass numerically
    t = ex.sym("theta")
    e = ex.sub(ex.sin(ex.mul(ex.num(2), t)), ex.mul(ex.num(2), ex.sin(t), ex.cos(t)))
    r = nc.is_zero(e, BOX)
    assert r.verdict is nc.Verdict.NUMERIC_ZERO
    assert r.max_abs < 1e-9 * (1 + r.scale)


def test_nonzero_with_witness():
    r = nc.is_zero(ex.cos(ex.sym("theta")), BOX)
    assert r.verdict is nc.Verdict.NONZERO
    assert r.witness is not None and "theta" in r.witness
    assert abs(tree_evaluate(ex.cos(ex.sym("theta")), r.witness)) > 1e-6


def test_missing_box_is_an_error():
    with pytest.raises(ex.EvalError, match="no sampling interval"):
        nc.is_zero(ex.cos(ex.sym("theta")), {})


def test_pole_reports_undefined_point():
    e = parse("1/x", ["x"])
    with pytest.raises(nc.UndefinedPointError):
        # box straddling the pole with an exactly-hit sample is unlikely;
        # force it with a degenerate interval centered on the pole
        nc.is_zero(e, {"x": (0.0, 0.0)})


def test_overflow_reports_undefined_point():
    with pytest.raises(nc.UndefinedPointError, match="overflowed floating point") as err:
        nc.is_zero(parse("exp(exp(exp(x)))", ["x"]), {"x": (2.0, 3.0)})
    assert set(err.value.point) == {"x"}
    with pytest.raises(nc.UndefinedPointError, match="overflowed floating point"):
        nc.is_zero(parse("exp(exp(exp(3)))", []), {})


def test_sum_with_many_terms_is_sampled():
    e = parse("(" + " + ".join(f"x^{k}" for k in range(1, 70)) + ")^(1/2) - y", ["x", "y"])
    r = nc.is_zero(e, {"x": (0.1, 0.9), "y": (-1.0, 0.0)})
    assert r.verdict is nc.Verdict.NONZERO
    assert abs(tree_evaluate(e, r.witness)) == pytest.approx(r.max_abs)


def _per_term_report(e, box, seed=0):
    """is_zero's numeric stage with one compiled function per term."""
    s = ex.simplify(e)
    names = sorted(ex.free_symbols(s))
    envs = nc.sample_box({n: box[n] for n in names}, nc.NUM_POINTS, seed)
    pts = [tuple(env[n] for n in names) for env in envs]
    per_term = [evalcore.compile_expr(t, names).run(pts) for t in s.terms]
    max_total, scale, witness = 0.0, 0.0, None
    for j, env in enumerate(envs):
        tot = 0j
        for vals in per_term:
            tot += vals[j]
            scale = max(scale, abs(vals[j]))
        if abs(tot) > max_total:
            max_total, witness = abs(tot), env
    return max_total, scale, witness


@pytest.mark.parametrize("text", [
    "sin(2*u) - 2*sin(u)*cos(u) + w*(cos(3*w) - 4*cos(w)^3 + 3*cos(w))",
    "sin(2*u) - 2*sin(u)*cos(u) + 1/1000000",
    "u*w - (u + 3)^(-1/2) + exp(u)*sin(w)",
])
def test_one_function_per_residual(monkeypatch, text):
    """Compiled once; max_abs, scale and witness equal the per-term evaluation bit for bit."""
    box = {"u": (0.1, 2.0), "w": (-1.0, 1.5)}
    e = parse(text, ["u", "w"])
    want = _per_term_report(e, box, seed=3)
    compiled = []
    real_compile = evalcore.compile_expr

    def counting_compile(expr, names):
        compiled.append(expr)
        return real_compile(expr, names)

    monkeypatch.setattr(evalcore, "compile_expr", counting_compile)
    r = nc.is_zero(e, box, seed=3)
    assert len(compiled) == 1
    max_abs, scale, witness = want
    assert (r.max_abs, r.scale) == (max_abs, scale)
    assert r.witness == (witness if r.verdict is nc.Verdict.NONZERO else None)


def test_pole_names_the_sample_point_that_hit_it():
    # put a pole exactly on the fifth sample point, in the second term
    box = {"x": (0.0, 1.0)}
    p = nc.sample_box(box, nc.NUM_POINTS)[4]["x"]
    e = ex.add(ex.sym("x"), ex.power(ex.sub(ex.sym("x"), ex.num(Fraction(p))), -1))
    with pytest.raises(nc.UndefinedPointError) as err:
        nc.is_zero(e, box)
    assert err.value.point == {"x": p}


def test_constant_expressions():
    assert nc.is_zero(ex.num(0), {}).verdict is nc.Verdict.SYMBOLIC_ZERO
    assert nc.is_zero(ex.num(1, 1), {}).verdict is nc.Verdict.NONZERO
    # constants the kernel cannot prove zero: sampled once, at the empty point
    for text, want in [
        ("sin(2) - 2*sin(1)*cos(1)", nc.ZeroReport(
            nc.Verdict.NUMERIC_ZERO, max_abs=1.1102230246251565e-16, scale=1.0)),
        ("sin(2) - 2*sin(1)*cos(1) + 1/1000", nc.ZeroReport(
            nc.Verdict.NONZERO, witness={}, max_abs=0.0009999999999998899, scale=1.0)),
    ]:
        e = parse(text, [])
        r = nc.is_zero(e, {})
        assert r == want
        assert r.max_abs == abs(tree_evaluate(ex.simplify(e), {}))


@pytest.mark.parametrize("text", ["10^308*exp(10)*x - 10^308*exp(9)*x", "10^308*exp(10) - 10^308*exp(9)"])
def test_a_value_lost_to_overflow_is_not_zero(text):
    """Terms that overflow to inf - inf sum to NaN, which no verdict may call zero."""
    r = nc.is_zero(parse(text, ["x"]), {"x": (1.0, 2.0)})
    assert r.verdict is nc.Verdict.NONZERO and math.isnan(r.max_abs)


def test_halton_deterministic_and_seed_dependent():
    a = nc.halton_points(2, 8, seed=3)
    b = nc.halton_points(2, 8, seed=3)
    c = nc.halton_points(2, 8, seed=4)
    assert a == b
    assert a != c
    assert all(0.0 <= x < 1.0 for row in a for x in row)


def test_sample_box_stays_inside():
    box = {"x": (-2.0, -1.0), "y": (3.0, 7.0)}
    for env in nc.sample_box(box, 32, seed=1):
        assert -2.0 < env["x"] < -1.0
        assert 3.0 < env["y"] < 7.0


def test_scale_guard_rejects_tiny_but_honest_residues():
    # value ~1e-6 with O(1) terms is NOT numerically zero
    e = ex.add(ex.num(1), ex.num(-1), parse("1/1000000", []))
    r = nc.is_zero(e, {})
    assert r.verdict is nc.Verdict.NONZERO


# The m=1 assembly of the `--type 2,0 --l 2` so3 family as the kernel wrote it
# before linear cos bases were divided out: each `{P}` is the pole factor the
# numerator beside it cancels.
_POLE = "*(1 + cos(theta))^(-1)*(1 - cos(theta))^(-1)"
_H_R = "h_r*cos(theta)*exp(i*phi)"
_OLD_M1_ASSEMBLY = [
    (("r", "r"), "-2*h_rr*cos(theta)*exp(i*phi)*sin(theta){P} + 2*h_rr*exp(i*phi)*sin(theta)*cos(theta)^3{P}"),
    (("r", "+1"), f"-{_H_R} + h_r*exp(i*phi) - 2*h_r*exp(i*phi)*cos(theta)^2"),
    (("r", "-1"), f"-{_H_R} - h_r*exp(i*phi) + 2*h_r*exp(i*phi)*cos(theta)^2"),
    (("+1", "r"), f"-{_H_R} + h_r*exp(i*phi) - 2*h_r*exp(i*phi)*cos(theta)^2"),
    (("+1", "+1"), "2*h*cos(theta)*exp(i*phi)*sin(theta){P} - 2*h*exp(i*phi)*sin(theta)*cos(theta)^2{P}"
                   " - 2*h*exp(i*phi)*sin(theta)*cos(theta)^3{P} + 2*h*exp(i*phi)*sin(theta){P}"),
    (("+1", "-1"), "-2*h*cos(theta)*exp(i*phi)*sin(theta){P} + 2*h*exp(i*phi)*sin(theta)*cos(theta)^3{P}"),
    (("-1", "r"), f"-{_H_R} - h_r*exp(i*phi) + 2*h_r*exp(i*phi)*cos(theta)^2"),
    (("-1", "+1"), "-2*h*cos(theta)*exp(i*phi)*sin(theta){P} + 2*h*exp(i*phi)*sin(theta)*cos(theta)^3{P}"),
    (("-1", "-1"), "2*h*cos(theta)*exp(i*phi)*sin(theta){P} + 2*h*exp(i*phi)*sin(theta)*cos(theta)^2{P}"
                   " - 2*h*exp(i*phi)*sin(theta)*cos(theta)^3{P} - 2*h*exp(i*phi)*sin(theta){P}"),
]


def test_two_writings_of_one_residual_get_one_report():
    """The numeric threshold REL_TOL * (1 + scale) reads `scale` off the
    simplified residual's terms, so it must not depend on how the tensor was
    written: the old and the cancelled text of one assembly, checked at a
    wrong eigenvalue, give identical verdicts, maxima and scales."""
    from casimir.models import so3_model
    from casimir.operator import assemble_from_json, certify_eigen

    so3 = so3_model()
    op = so3.op_space
    new = so3.tensor20_harmonic(2, m_values=[1]).assemblies["m=1"]
    old = [{"upper": [], "lower": list(lower), "scalar": text.replace("{P}", _POLE)}
           for lower, text in _OLD_M1_ASSEMBLY]
    assert [mo["lower"] for mo in new] == [mo["lower"] for mo in old]
    assert all(_POLE not in mo["scalar"] for mo in new)
    reports = [certify_eigen(op, assemble_from_json(op.frame, doc), -11).reports for doc in (old, new)]
    assert [r.verdict for r in reports[0]].count(nc.Verdict.NONZERO) == 8
    assert [(r.verdict, r.max_abs, r.scale) for r in reports[0]] == [
        (r.verdict, r.max_abs, r.scale) for r in reports[1]]
