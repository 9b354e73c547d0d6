"""The public library calls of a warm session, pinned byte for byte.

The CLI documents carry sha256 pins of their own; this pin covers the model
methods and the commutation check that a library user calls directly."""

import functools
import hashlib
import json

from casimir import expr as ex
from casimir import operator as op
from casimir.models import bianchi2_model, so3_model
from casimir.parser import parse
from casimir.tensor_fields import TensorField
from helpers import expr_nodes, is_normal_coefficient

# the canonical JSON of `_outputs()`, as released when `Mul` and `Add` began to
# build their sort keys on first read
LIBRARY_SHA256 = "9cffa064801f9ba689e66ec49c321447983c7bc9d6b82b7bb0f6046bab9354d6"


def _commutes(casimir_op, components: list) -> list:
    chart = casimir_op.chart
    t = TensorField(chart, 0, 1, tuple(parse(s, chart.coords) for s in components))
    return op.check_commutes(casimir_op, 0, t, seed=3)


@functools.cache
def _results() -> tuple:
    """The library calls' results: five families or operators, two lists of
    commutation reports and two ladder moves (coefficient, target, report)."""
    so3, b2 = so3_model(), bianchi2_model()
    out = [
        so3.scalar_family(6, seed=3),
        so3.scalar_harmonic(12, -1, seed=3),
        so3.reduced_operator(-2),
        b2.point_series(3, 1, "3", seed=3),
        b2.covector_harmonic(2, 0, "3", seed=3),
        _commutes(b2.op, ["1/2 + 3*v - 2/3*y*z + v^2", "-1 + y*z", "2*v - 5/4*v^2"]),
        _commutes(so3.op_space, ["1 + r - theta*phi", "3/2*r^2", "-2 + 1/3*theta*phi + r"]),
    ]
    out += [so3.apply_ladder(*move, seed=3) for move in ((3, 1, 0, 1), (4, 2, 0, -1))]
    return tuple(out)


def _outputs() -> list:
    res = _results()
    return ([r.to_json() for r in res[:5]] + [[r.to_json() for r in reps] for reps in res[5:7]]
            + [[ex.unparse(coef), target, rep.to_json()] for coef, target, rep in res[7:]])


def test_library_outputs_are_pinned():
    blob = json.dumps(_outputs(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == LIBRARY_SHA256


def _expressions(obj, seen: set):
    """Every expression reachable from obj through records, containers and dict keys."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, ex.Expr):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _expressions(k, seen)
            yield from _expressions(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _expressions(v, seen)
    elif type(obj).__module__.startswith("casimir."):
        for v in vars(obj).values():
            yield from _expressions(v, seen)


def test_every_output_coefficient_is_in_normal_form():
    """Each Num value and Mul coefficient of the pinned outputs is an int, a
    Fraction with a denominator other than 1, or a CNum with a nonzero
    imaginary part."""
    nodes = [n for e in _expressions(_results(), set()) for n in expr_nodes(e) if type(n) in (ex.Num, ex.Mul)]
    assert len(nodes) > 150
    assert [n for n in nodes if not is_normal_coefficient(n.val if type(n) is ex.Num else n.coef)] == []
