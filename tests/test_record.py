"""Value semantics of the package's records, against dataclasses of the same
fields as the reference: equality, hashing, repr, assignment and `replace`."""

import dataclasses
from fractions import Fraction

import pytest

from casimir import evalcore
from casimir import expr as ex
from casimir import lie_algebra as la
from casimir import numcheck as nc
from casimir import operator as op
from casimir import split_structure as ss
from casimir import tensor_fields as tf
from casimir.modelio import ModelSpec
from casimir.models.family import Certificate, HarmonicFamily
from casimir.record import FrozenRecord, Record
from casimir.report import Report

X = ex.sym("x")
ZERO = nc.ZeroReport(nc.Verdict.SYMBOLIC_ZERO)


def _chart():
    return tf.Chart("line", ("x",), {"x": (-1.0, 1.0)})


def _frame():
    chart = _chart()
    return ss.Frame(chart, ("1",), (tf.VectorField(chart, (X,)),),
                    (tf.TensorField(chart, 0, 1, (X,)),), ((ZERO,),))


# one builder per frozen record; each call builds an equal, distinct instance
FROZEN = {
    "StructureConstants": lambda: la.StructureConstants(1, (((Fraction(0),),),)),
    "ValidationReport": lambda: la.ValidationReport((), ((1, 1, 1, 1),)),
    "CartanTensor": lambda: la.CartanTensor(((Fraction(1),),), 1, True),
    "ConstantMetric": lambda: la.ConstantMetric(((Fraction(1),),), "cartan-inverse", True),
    "ZeroReport": lambda: nc.ZeroReport(nc.Verdict.NONZERO, None, 1.5, 2.0),
    "Program": lambda: evalcore.compile_expr(X + 1, ("x",)),  # with a constant c0
    "Chart": _chart,
    "VectorField": lambda: tf.VectorField(_chart(), (X,)),
    "TensorField": lambda: tf.TensorField(_chart(), 1, 0, (X,)),
    "PairReport": lambda: tf.PairReport(0, 1, (ZERO,)),
    "RealizationReport": lambda: tf.RealizationReport((tf.PairReport(0, 1, (ZERO,)),)),
    "Frame": _frame,
    "Projector": lambda: ss.Projector("1", tf.TensorField(_chart(), 1, 1, (X,))),
    "MuFactors": lambda: ss.MuFactors(_frame(), ("xi",), ((X,),), (ZERO,), (ZERO,)),
    "FrameSolution": lambda: ss.FrameSolution(((Fraction(1),),), _frame(), {"x": 0.0}, (ZERO,)),
    "InvariantMetric": lambda: ss.InvariantMetric(((X,),), 1, (ZERO,), "frame"),
    "CasimirOperator": lambda: op.CasimirOperator("line", _chart(), ("xi",), ((ex.ONE,),)),
    "ScalarOperator": lambda: op.ScalarOperator(_chart(), (((2,), ex.ONE),)),
    "TensorMonomial": lambda: op.TensorMonomial((0,), (), X),
    "EigenResult": lambda: op.EigenResult(X, (ZERO,)),
    "Certificate": lambda: Certificate("casimir-eigenvalue", ZERO),
}
MUTABLE = {
    "Report": lambda: Report("verify", {"model": "so3"}, 0),
    "ModelSpec": lambda: ModelSpec("line", _chart(), la.StructureConstants(1, (((Fraction(0),),),)),
                                   (), None, None, None, "built-in", None),
    "HarmonicFamily": lambda: HarmonicFamily("so3", "scalar", {"l": 0}, {"G": ex.ZERO}, {"m=0": ex.ONE}),
}


def _values(record) -> tuple:
    return tuple(getattr(record, f) for f in record._fields)


def _reference(record, frozen: bool):
    """The same fields and values as a dataclass, as the package declared them before."""
    cls = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=frozen)
    return cls(*_values(record))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return type(e)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    assert sorted(c.__name__ for c in _subclasses(FrozenRecord)) == sorted(FROZEN)
    mutable = [c.__name__ for c in _subclasses(Record)
               if c.__module__.startswith("casimir.") and not issubclass(c, FrozenRecord)]
    assert sorted(mutable) == sorted(MUTABLE)


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
def test_equality_is_same_class_and_field_wise(name):
    build = {**FROZEN, **MUTABLE}[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != _values(a) and a != _reference(a, isinstance(a, FrozenRecord))
    sub = type(f"Sub{name}", (type(a),), {})
    c = sub.__new__(sub)
    c.__dict__.update(a.__dict__)
    assert a != c and c != a
    for f in a._fields:
        other = type(a).__new__(type(a))
        other.__dict__.update(a.__dict__, **{f: object()})
        assert other != a and a != other


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_and_print_as_before(name):
    a = FROZEN[name]()
    ref = _reference(a, frozen=True)
    assert _hash_or_error(a) == _hash_or_error(ref) == _hash_or_error(_values(a))
    assert repr(a) == repr(ref)
    copy = a.replace()
    assert copy == a and copy is not a
    assert [f for f in a._fields if getattr(copy, f) is not getattr(a, f)] == []


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_reject_assignment(name):
    a = FROZEN[name]()
    before = dict(a.__dict__)
    for f in (*a._fields, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a.__dict__ == before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable(name):
    a, b = MUTABLE[name](), MUTABLE[name]()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    assert repr(a) == repr(_reference(a, frozen=False))
    first = a._fields[0]
    setattr(a, first, "changed")
    assert getattr(a, first) == "changed" and a != b
    assert a.replace(**{first: getattr(b, first)}) == b


def test_defaults_are_fresh_per_instance():
    assert Report("a", {}, 0).checks is not Report("a", {}, 0).checks
    fams = [MUTABLE["HarmonicFamily"]() for _ in range(2)]
    assert fams[0].certificates is not fams[1].certificates
    assert fams[0].assemblies is not fams[1].assemblies
    assert _chart().params is not _chart().params


def test_replace_rejects_unknown_fields():
    with pytest.raises(TypeError):
        _chart().replace(colour="red")


def test_operator_memo_stays_out_of_the_value():
    """CasimirOperator._matrices is a memo: it takes no part in equality,
    hashing or repr, and a replaced operator starts without it."""
    cop = op.CasimirOperator("point", "chart", (), ())
    empty_hash = hash(cop)
    cop._matrices[(0, 0)] = "built"
    assert cop == op.CasimirOperator("point", "chart", (), ())
    assert hash(cop) == empty_hash == hash(("point", "chart", (), (), None, None))
    assert "_matrices" not in repr(cop) and "built" not in repr(cop)
    other = cop.replace()
    assert other == cop and other._matrices == {} and other._matrices is not cop._matrices
