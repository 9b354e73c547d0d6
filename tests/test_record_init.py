"""`Record.__init__`: positional, then keyword, values bound to a record's
fields and uncompared values in order, and every other call refused."""

import pytest

from casimir.evalcore import Program
from casimir.lie_algebra import CartanTensor
from casimir.record import Record


class Pair(Record):
    _fields = ("a", "b")
    _uncompared = ("note",)


def test_positional_then_keyword_values_bind_in_order():
    for p in (Pair(1, 2, "n"), Pair(1, b=2, note="n"), Pair(note="n", b=2, a=1)):
        assert (p.a, p.b, p.note) == (1, 2, "n")
        assert p == Pair(1, 2, "other")  # uncompared
    ct = CartanTensor(((1,),), rank=1, invariance_ok=True)
    assert ct.replace(rank=0) == CartanTensor(((1,),), 0, True)
    prog = Program("src", (), fn=len)
    assert prog.fn is len and prog.replace().fn is len


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, "missing b, note"),
    ((1, 2), {"a": 3, "note": ""}, "repeated field 'a'"),
    ((1, 2, 3), {"colour": "red"}, "unknown field 'colour'"),
    ((1, 2, 3, 4), {}, "takes 3 values, got 4"),
], ids=["missing", "repeated", "unknown", "too-many"])
def test_bad_calls_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)

