"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here: exact (structural) equality for rational
arithmetic, symbolic zero for Lie/frame/harmonic identities, 1e-8 for the
numeric hypergeometric residuals.
"""

import json
import time
from fractions import Fraction

import pytest

from casimir import expr as ex
from casimir import lie_algebra as la
from casimir import numcheck as nc
from casimir import operator as op
from casimir import tensor_fields as tf
from casimir.cli import main
from casimir.models import bianchi2_model, so3_model
from casimir.models.hypergeom import RadialProfile
from casimir.operator import ScalarOperator, TensorMonomial
from casimir.parser import parse
from helpers import ladder_scalar_operator, random_polynomial_tensor, so3_constants

SYM = nc.Verdict.SYMBOLIC_ZERO


@pytest.fixture(scope="module")
def so3():
    return so3_model()


@pytest.fixture(scope="module")
def b2():
    return bianchi2_model()


def _announce(k: int, message: str):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_01_algebra_identities(b2):
    sc = so3_constants()
    assert la.validate(sc).ok
    ct = la.cartan_tensor(sc)
    ident = tuple(tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3))
    assert ct.g == ident  # exact
    assert ct.invariance_ok
    cm = la.invert_cartan(ct, sc)
    assert cm.g_inv == ident and cm.killing_ok

    sc2 = b2.constants
    assert la.validate(sc2).ok
    ct2 = la.cartan_tensor(sc2)
    assert ct2.is_degenerate and ct2.rank == 1
    assert ct2.g[1][1] == Fraction(-1, 2)
    with pytest.raises(la.DegenerateCartanError):
        la.invert_cartan(ct2, sc2)
    _announce(1, "rotation algebra gives the identity Cartan tensor exactly; "
                 "solvable algebra is degenerate (rank 1), zero tolerance")


def test_criterion_02_realizations(so3, b2):
    rep = tf.verify_realization(so3.generators, so3.constants)
    assert all(r.verdict is SYM for p in rep.pairs for r in p.reports)
    rep2 = tf.verify_realization(b2.generators, b2.constants)
    assert all(r.verdict is SYM for p in rep2.pairs for r in p.reports)
    _announce(2, "both built-in generator sets realize their structure constants, "
                 "symbolically zero componentwise")


def test_criterion_03_invariant_frame_and_metric(b2):
    fs = b2.frame_solution
    chart = b2.chart
    want_vectors = (("1", "0", "0"), ("-v", "1", "0"), ("0", "0", "1"))
    want_l = (("exp(y)", "-v*exp(y)", "0"), ("0", "1", "0"), ("0", "0", "1"))
    for d in range(3):
        for c in range(3):
            assert ex.simplify(
                ex.sub(fs.frame.vectors[d].comps[c], parse(want_vectors[d][c], chart.coords))
            ) == ex.ZERO
            assert ex.simplify(
                ex.sub(fs.L[d][c], parse(want_l[d][c], chart.coords))
            ) == ex.ZERO
    want_metric = (
        ("(1+v^2)*exp(2*y)", "-v*exp(y)", "0"),
        ("-v*exp(y)", "1", "0"),
        ("0", "0", "1"),
    )
    for i in range(3):
        for k in range(3):
            assert ex.simplify(
                ex.sub(b2.metric.g[i][k], parse(want_metric[i][k], chart.coords))
            ) == ex.ZERO
    assert all(r.verdict is SYM for r in b2.metric.killing)
    _announce(3, "solved invariant frame, its dual, and the frame-built metric match "
                 "the expected closed forms; all Killing residuals symbolically zero")


def test_criterion_04_operator_reproduction(so3, b2):
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
    assert ladder_scalar_operator(so3).equal_to(k)
    k2 = b2.scalar_operator()
    want2 = ScalarOperator.from_table(
        b2.chart,
        {
            (2, 0, 0): parse("1+v^2", b2.chart.coords),
            (1, 1, 0): parse("-2*v", b2.chart.coords),
            (1, 0, 0): parse("v", b2.chart.coords),
            (0, 2, 0): ex.ONE,
            (0, 0, 2): ex.ONE,
        },
    )
    assert k2.equal_to(want2)
    _announce(4, "printed scalar Casimir operators match the expected coefficient "
                 "tables; ladder form agrees with the metric form coefficientwise")


def test_criterion_05_frame_scale_factors(so3):
    mu = so3.mu
    phi, theta = ex.sym("phi"), ex.sym("theta")
    for a, s in ((1, 1), (2, -1)):
        for i, sp in ((0, 1), (1, -1)):
            want = ex.mul(ex.num(s), ex.exp(ex.mul(ex.num(0, sp), phi)), ex.power(ex.sin(theta), -1))
            assert ex.simplify(ex.sub(mu.mu[a][i], want)) == ex.ZERO
        assert mu.mu[a][2] == ex.ZERO
    assert all(m == ex.ZERO for m in mu.mu[0])
    assert all(r.verdict is SYM for r in mu.integrability)
    _announce(5, "frame scale factors match s*exp(i s' phi)/sin(theta) with zero axis "
                 "factor; integrability identity symbolically zero")


def test_criterion_06_rotation_harmonics(so3):
    lam_box = so3.space.full_box()
    # (a) every (l, n, m) weighted angular function satisfies its reduced equation
    for l in range(0, 4):
        lam = ex.num(-l * (l + 1))
        for n in range(-min(l, 2), min(l, 2) + 1):
            red = so3.reduced_operator(n)
            fam = so3.ladder_family(l, n)
            for m in range(-l, l + 1):
                t = fam[m]
                resid = ex.sub(red.apply(t), ex.mul(lam, t))
                assert nc.is_zero(resid, lam_box).verdict is SYM, (l, n, m)
    # (b) assembled two-covector harmonics, full Lie-derivative route
    for l in range(0, 3):
        fam = so3.tensor20_harmonic(l)
        for m in range(-l, l + 1):
            assert fam.certificate(f"casimir-eigenvalue m={m}").ok, (l, m)
    fam3 = so3.tensor20_harmonic(3)
    assert fam3.certificate("casimir-eigenvalue m=0").ok
    assert fam3.certificate("casimir-eigenvalue m=3").ok
    # (c) ladder coefficients, both directions, including annihilation
    for l in range(0, 4):
        for n in range(-min(l, 2), min(l, 2) + 1):
            for m in range(-l, l + 1):
                for s in (+1, -1):
                    coef, target, rep = so3.apply_ladder(l, n, m, s)
                    assert rep.verdict is SYM, (l, n, m, s)
                    want = l * (l + 1) - m * (m + s)
                    if abs(m + s) > l:
                        assert coef == ex.ZERO and want == 0
                    else:
                        assert coef == ex.power(ex.num(want), Fraction(1, 2))
    _announce(6, "weight 0..3 harmonics: reduced-equation residuals symbolic for all "
                 "(n, m); assembled tensors certified at integer eigenvalue l(l+1) for -G; "
                 "ladder coefficients exact including annihilation at |m| = l")


def test_criterion_07_ladder_algebra(so3):
    box = so3.space.full_box()
    for l in range(0, 4):
        for n in range(-min(l, 2), min(l, 2) + 1):
            plus = so3.shifted_ladder(0, n)
            minus = so3.shifted_ladder(1, n)
            axis = so3.shifted_ladder(2, n)
            for m in range(-l, l + 1):
                t = so3.ladder_family(l, n)[m]
                for s, ladder in ((1, plus), (-1, minus)):
                    lhs = ex.sub(ladder.apply(axis.apply(t)), axis.apply(ladder.apply(t)))
                    rhs = ex.mul(ex.num(-s), ladder.apply(t))
                    assert nc.is_zero(ex.sub(lhs, rhs), box).verdict is SYM, (l, n, m, s)
                lhs = ex.sub(plus.apply(minus.apply(t)), minus.apply(plus.apply(t)))
                rhs = ex.mul(ex.num(2), axis.apply(t))
                assert nc.is_zero(ex.sub(lhs, rhs), box).verdict is SYM, (l, n, m)
    _announce(7, "ladder commutation relations hold symbolically on every generated "
                 "monomial component for weights 0..3")


def test_criterion_08_point_series(b2):
    for n in (1, 2, 3):
        for nu in (0, 1, 2):
            for m in range(-2, n):
                fam = b2.point_series(n, m, nu)
                assert fam.eigenvalues["G"] == ex.num(nu * nu + n * n)
                assert fam.eigenvalues["y-translation"] == ex.num(m)
                assert fam.eigenvalues["z-translation"] == ex.num(nu)
                for cert in fam.certificates:
                    assert cert.payload.verdict is SYM, (n, m, nu, cert.name)
                # closed form reproduced exactly
                base = ex.power(
                    ex.add(ex.ONE, ex.power(ex.sym("v"), 2)), Fraction(2 * n - 1, 2)
                )
                want = base
                for _ in range(n - m - 1):
                    want = ex.diff(want, "v")
                want = ex.mul(
                    ex.exp(ex.add(ex.mul(ex.num(m), ex.sym("y")), ex.mul(ex.num(nu), ex.sym("z")))),
                    want,
                )
                got = next(iter(fam.components.values()))
                assert ex.simplify(ex.sub(got, want)) == ex.ZERO
    _announce(8, "point series n=1..3, m=-2..n-1, nu=0..2: eigenvalue triples "
                 "(m, nu, nu^2+n^2) certified symbolically; lowering relation and the "
                 "closed-form profile reproduced exactly")


def test_criterion_09_hypergeometric_branch(b2):
    t0 = time.time()
    cases = [
        (0.0, 0.0, 1.0, 1.0, 0.0),
        (0.0, 0.0, 1.0, 0.0, 1.0),
        (1.0, 1.0, 2.0, 1.0, 0.0),
        (1.0, 0.0, -1.0, 1.0, 0.5),
        (0.5, 0.5, 2.0, 1.0, 1.0),
    ]
    for mu, nu, lam, amp_a, amp_b in cases:
        fam = b2.hypergeometric_harmonic(mu, nu, lam, amp_a, amp_b)
        payload = fam.certificates[0].payload
        assert payload["ok"], (mu, nu, lam, payload)
        assert payload["points"] == 16
        assert payload["tolerance"] == 1e-8
        assert payload["max_abs"] < 1e-8 * payload["scale"]
    # the even branch at (0,0,1) is the closed-form sqrt profile
    prof = RadialProfile(0.0, 0.0, 1.0)
    for v in (-0.85, -0.4, 0.1, 0.5, 0.9):
        assert abs(prof.values([v])[0] - (1 + v * v) ** 0.5) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(9, f"five hypergeometric parameter sets certified to 1e-8 at 16 points "
                 f"on |v| <= 0.9 in {elapsed:.2f}s; even branch matches sqrt(1+v^2)")


def test_criterion_10_cross_checks(so3, b2):
    # reduction consistency on every slot type of the built-in families
    box3 = so3.space.full_box()
    for legs in [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
        n = sum({0: 0, 1: 1, 2: -1}[leg] for leg in legs)
        t = so3.ladder_family(2, n)[1]
        mono = TensorMonomial((), legs, t)
        tens = op.assemble(so3.frame, [mono], 0, 2)
        comp = op.project_component(op.apply_casimir(so3.op_space, tens), so3.frame, (), legs)
        red = op.reduce_to_scalar(so3.op_ladder, (), legs)
        assert nc.is_zero(ex.sub(comp, red.apply(t)), box3).verdict is SYM, legs
    t = next(iter(b2.point_series(2, 1, 1).components.values()))
    for legs in [(0,), (1,), (2,)]:
        mono = TensorMonomial((), legs, t)
        tens = op.assemble(b2.frame, [mono], 0, 1)
        comp = op.project_component(op.apply_casimir(b2.op, tens), b2.frame, (), legs)
        red = op.reduce_to_scalar(b2.op, (), legs)
        assert nc.is_zero(ex.sub(comp, red.apply(t)), b2.chart.full_box()).verdict is SYM, legs
    # commutation with every generator on seeded random tensors
    for seed in range(20):
        shape = [(0, 0), (1, 0), (0, 1), (1, 1)][seed % 4]
        t_rot = random_polynomial_tensor(so3.sphere, *shape, seed=seed)
        assert all(r.is_zero for r in op.check_commutes(so3.op_generators, seed % 3, t_rot))
        t_solv = random_polynomial_tensor(b2.chart, *shape, seed=seed)
        assert all(r.is_zero for r in op.check_commutes(b2.op, seed % 3, t_solv))
    _announce(10, "two-path reduction agreement symbolic on all built-in monomial slots; "
                  "operator commutes with every generator on 20 seeded tensors per model")


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    assert main(["harmonics", "so3", "--type", "2,0", "--l", "1", "--seed", "5",
                 "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--family", str(fam_path), "--seed", "5"]) == 0
    recert = json.loads(capsys.readouterr().out)
    assert recert["ok"]
    assert all(c["stored"] == c["recomputed"] for c in recert["checks"])

    assert main(["verify", "--model", "bianchi2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--model", "bianchi2", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    da, db = json.loads(first), json.loads(second)
    assert da["digest"] == db["digest"]
    da.pop("timings"), db.pop("timings")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    _announce(11, "family JSON re-certifies with identical verdicts; report digests "
                  "byte-stable under a fixed seed")
