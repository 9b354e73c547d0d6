"""Generated evaluator functions against the tree walk, and the hypergeometric
series of `casimir.models.hypergeom`."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from casimir import evalcore
from casimir import expr as ex
from casimir.models import hypergeom
from casimir.parser import parse
from helpers import tree_evaluate

SAMPLES = [
    ("cot(theta)*cos(phi) + sin(theta)^3", ("theta", "phi")),
    ("(1+v^2)^(-3/2)*exp(2*v) - v^(-2)", ("v",)),
    ("(1+2*i)*exp(i*phi) + 1/2", ("phi",)),
    pytest.param(" + ".join(f"x^{k}" for k in range(1, 73)), ("x",), id="72-term-sum"),
]


def _points(names, n=40):
    return [tuple(0.15 + 0.13 * j + 0.05 * d for d in range(len(names))) for j in range(n)]


@pytest.mark.parametrize("text,names", SAMPLES)
def test_program_matches_tree_walk(text, names):
    e = parse(text, names)
    prog = evalcore.compile_expr(e, names)
    pts = _points(names)
    vals = prog.run(pts)
    for pt, got in zip(pts, vals):
        assert got == tree_evaluate(e, dict(zip(names, pt)))


def _hex(floats) -> list:
    """Floats by their hex form, so that -0.0 and 0.0 differ."""
    return [x.hex() for x in floats]


def _hex_parts(values) -> list:
    return _hex(p for v in values for p in (v.real, v.imag))


def test_tuple_of_terms_compiles_to_one_function():
    names = ("theta", "phi")
    e = parse("cot(theta)*cos(phi) + sin(theta)^3 - exp(i*phi)*sin(theta)^3 + 2", names)
    pts = _points(names)
    singles = [evalcore.compile_expr(t, names).run(pts) for t in e.terms]
    rows = evalcore.compile_expr(e.terms, names).run(pts)
    assert [_hex_parts(row) for row in rows] == [_hex_parts(col) for col in zip(*singles)]
    # a grid program writes each point as one flat row of float parts (re0, im0, re1, im1, ...)
    axes = [[0.3, 1.2, 1.2, 2.9], [-0.0, 0.0, 2.5, 4.0]]  # a repeated value, -0 and 0
    pts = list(itertools.product(*axes))
    singles = [evalcore.compile_expr(t, names).run(pts) for t in e.terms]
    rows = evalcore.compile_expr(e.terms, names, grid=True).run(axes)
    assert [_hex(row) for row in rows] == [_hex_parts(col) for col in zip(*singles)]
    assert "-0x0.0p+0" in {bit for row in rows for bit in _hex(row)}


def test_grid_program_hoists_each_node_to_its_loop():
    prog = evalcore.compile_expr(parse("sin(theta)*cos(phi) + 2^(1/2)", ["theta", "phi"]),
                                 ["theta", "phi"], grid=True)
    lines = prog.source.splitlines()

    def depth(text):
        line = next(line for line in lines if text in line)
        return (len(line) - len(line.lstrip())) // 4 - 1

    assert [depth(t) for t in ("_sqrt(", "_sin(", "_cos(", "out.append(")] == [0, 1, 2, 2]


def test_no_inner_loop_statement_reads_only_constants():
    """A product opens on its coefficient times complex(1.0), folded into one
    constant at compile time, so the innermost loop of the so3 --l 2 grid
    program computes no product of constants alone."""
    from casimir.models import so3_model

    fam = so3_model().scalar_family(2)
    comps = tuple(fam.components[label] for label in sorted(fam.components))
    lines = evalcore.compile_expr(comps, ["theta", "phi"], grid=True).source.splitlines()
    constants, inner = set(), []
    for line in lines[2:-1]:
        text = line.strip()
        if text.startswith(("for ", "out.append")):
            continue
        target, op, value = re.fullmatch(r"(\w+) (\S*=) (.*)", text).groups()
        reads = set(re.findall(r"\b[cvxp]\d+\b", value)) | ({target} if op != "=" else set())
        if len(line) - len(text) == 4:  # before every loop
            constants.add(target)
        elif len(line) - len(text) == 12:
            inner.append((text, reads))
    assert len(inner) == 23  # the parent program had 31: eight opened on (1+0j) * cK
    assert [text for text, reads in inner if all(r in constants or r.startswith("c") for r in reads)] == []


def test_pole_raises_zero_division():
    e = parse("1/x", ["x"])
    prog = evalcore.compile_expr(e, ["x"])
    with pytest.raises(ZeroDivisionError):
        prog.run([(0.0,)])


def test_unbound_symbol_rejected_at_compile_time():
    with pytest.raises(ex.EvalError, match="unbound symbol"):
        evalcore.compile_expr(parse("x*y", ["x", "y"]), ["x"])


def test_programs_with_other_constants_differ():
    """The constants live outside the source, so they take part in equality and hashing."""
    x = ex.sym("x")
    one = evalcore.compile_expr(ex.add(x, ex.num(1)), ("x",))
    two = evalcore.compile_expr(ex.add(x, ex.num(2)), ("x",))
    assert one.source == two.source
    assert one.run([(0.0,)]) == [1] and two.run([(0.0,)]) == [2]
    assert one != two and hash(one) != hash(two)
    again = evalcore.compile_expr(ex.add(x, ex.num(1)), ("x",))
    assert again == one and hash(again) == hash(one)


def test_generated_source_names_no_symbols():
    prog = evalcore.compile_expr(parse("sin(theta)^2*exp(phi) + theta", ["theta", "phi"]),
                                 ["theta", "phi"])
    assert "theta" not in prog.source and "phi" not in prog.source


# -- randomized differential test against the tree walk -------------------------

_COORDS = ("x", "y")


def _positive(e):
    """A base that is positive real wherever e is real."""
    return ex.add(ex.num(1), ex.power(e, 2))


def _trees():
    leaves = st.one_of(
        st.sampled_from([ex.sym(c) for c in _COORDS]),
        st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: ex.num(Fraction(t[0], t[1]))),
    )
    exponents = st.sampled_from([Fraction(k, 2) for k in (-5, -3, -1, 1, 3)] + [Fraction(-1), Fraction(-2)])

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=5).map(lambda ts: ex.add(*ts)),
            st.tuples(children, children).map(lambda t: ex.mul(*t)),
            children.map(ex.sin),
            children.map(ex.cos),
            children.map(lambda e: ex.exp(ex.mul(ex.num(Fraction(1, 4)), e))),
            st.tuples(children, exponents).map(lambda t: ex.power(_positive(t[0]), t[1])),
            st.tuples(children, children).map(lambda t: ex.power(ex.exp(ex.add(*t)), Fraction(1, 2))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _outcome(fn):
    try:
        return fn()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


_VALUES = [0.1 + 0.37 * k for k in range(6)] + [-1.3 + 0.41 * k for k in range(6)]


@given(_trees(), st.permutations(_COORDS + ("w",)),
       st.lists(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_generated_function_matches_tree_walk(e, grid_names, axes):
    # both fold sums and products in the canonical node order, so the values
    # agree exactly, not just to rounding
    prog = evalcore.compile_expr(e, _COORDS)
    for k in range(6):
        pt = (0.1 + 0.37 * k, -1.3 + 0.41 * k)
        got = _outcome(lambda: prog.run([pt])[0])
        want = _outcome(lambda: tree_evaluate(e, dict(zip(_COORDS, pt))))
        assert got == want
    # the grid form, over axes in any order (no tree uses w) that may repeat
    # values, computes each node in the loop of the last axis it depends on
    grid = evalcore.compile_expr(e, grid_names, grid=True)
    got = _outcome(lambda: grid.run(axes))
    want = [_outcome(lambda: tree_evaluate(e, dict(zip(grid_names, pt)))) for pt in itertools.product(*axes)]
    raised = {w for w in want if isinstance(w, type)}
    if raised:  # a hoisted node may fail before a node the tree walk reaches first
        assert got in raised
    else:
        assert got == [(w.real, w.imag) for w in want]


def test_hyp2f1_binomial_identity():
    # 2F1(-1/2, b; b; z) = (1-z)^(1/2); with z = -v^2 this is the radial profile
    for v in (0.1, 0.3, 0.5, 0.85):
        got = hypergeom.hyp2f1(-0.5, 0.5, 0.5, [-(v * v)])[0]
        assert abs(got - (1 + v * v) ** 0.5) < 1e-14


def test_hyp2f1_terminating_series():
    # a = -2 gives a quadratic polynomial: 1 - 2(b/c) z + (b(b+1)/(c(c+1))) z^2
    a, b, c = -2.0, 1.5, 0.5
    for z in (-0.7, 0.2, 0.8):
        got = hypergeom.hyp2f1(a, b, c, [z])[0]
        want = 1 + a * b / c * z + (a * (a + 1) * b * (b + 1)) / (c * (c + 1) * 2) * z**2
        assert abs(got - want) < 1e-13


def test_hyp2f1_at_zero_is_one():
    assert hypergeom.hyp2f1(0.77, -1.3, 0.5, [0.0])[0] == 1.0


def test_hyp2f1_against_mpmath():
    mp = pytest.importorskip("mpmath")
    cases = [(-0.5, 0.5, 0.5), (0.25, 1.75, 1.5), (complex(0, 0.5), complex(0, -0.5), 0.5)]
    for a, b, c in cases:
        for z in (-0.81, -0.3, 0.4):
            got = hypergeom.hyp2f1(a, b, c, [z])[0]
            want = complex(mp.hyp2f1(a, b, c, z))
            assert abs(got - want) < 1e-12 * (1 + abs(want))


def test_hyp2f1_budget_exhausted_is_a_solver_limit(monkeypatch):
    monkeypatch.setattr(hypergeom, "HYP2F1_MAX_TERMS", 3)
    with pytest.raises(hypergeom.SeriesNotConvergedError, match="did not converge in 3 terms"):
        hypergeom.hyp2f1(0.5, 0.5, 1.5, [0.9])
    assert hypergeom.hyp2f1(-1.0, 0.5, 1.5, [0.9])[0] == 1 - 0.5 / 1.5 * 0.9  # terminates in 2


def test_hyp2f1_outside_unit_disk_rejected():
    with pytest.raises(ValueError, match="unit disk"):
        hypergeom.hyp2f1(0.5, 0.5, 1.5, [1.2])


def test_backend_name_reports():
    assert evalcore.backend_name() == "python"
