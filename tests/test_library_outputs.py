"""The public library calls of a warm session, pinned byte for byte.

The CLI documents carry sha256 pins of their own; this pin covers the model
methods and the commutation check that a library user calls directly."""

import hashlib
import json

from casimir import expr as ex
from casimir import operator as op
from casimir.models import bianchi2_model, so3_model
from casimir.parser import parse
from casimir.tensor_fields import TensorField

# the canonical JSON of `_outputs()`, as released when `Mul` and `Add` began to
# build their sort keys on first read
LIBRARY_SHA256 = "9cffa064801f9ba689e66ec49c321447983c7bc9d6b82b7bb0f6046bab9354d6"


def _commutes(casimir_op, components: list) -> list:
    chart = casimir_op.chart
    t = TensorField(chart, 0, 1, tuple(parse(s, chart.coords) for s in components))
    return [r.to_json() for r in op.check_commutes(casimir_op, 0, t, seed=3)]


def _outputs() -> list:
    so3, b2 = so3_model(), bianchi2_model()
    out = [
        so3.scalar_family(6, seed=3).to_json(),
        so3.scalar_harmonic(12, -1, seed=3).to_json(),
        so3.reduced_operator(-2).to_json(),
        b2.point_series(3, 1, "3", seed=3).to_json(),
        b2.covector_harmonic(2, 0, "3", seed=3).to_json(),
        _commutes(b2.op, ["1/2 + 3*v - 2/3*y*z + v^2", "-1 + y*z", "2*v - 5/4*v^2"]),
        _commutes(so3.op_space, ["1 + r - theta*phi", "3/2*r^2", "-2 + 1/3*theta*phi + r"]),
    ]
    for move in ((3, 1, 0, 1), (4, 2, 0, -1)):
        coef, target, rep = so3.apply_ladder(*move, seed=3)
        out.append([ex.unparse(coef), target, rep.to_json()])
    return out


def test_library_outputs_are_pinned():
    blob = json.dumps(_outputs(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == LIBRARY_SHA256
