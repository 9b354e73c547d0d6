"""Value records: field-wise equality, hashing and repr without generated code.

A subclass names its fields in a ``_fields`` tuple; further values, which
take no part in equality, hashing or repr, are named in ``_uncompared``.
`Record.__init__` binds positional, then keyword, values to those names in
that order.  A subclass writes its own ``__init__`` only to check its input,
fill a default or start a memo; it hands its values on to
`Record.__init__`, and puts a memo straight into ``self.__dict__``.  Two
records are equal when they are of the same class and their fields are
equal.  A `Record` can be assigned to and has no hash.  A
`FrozenRecord` rejects assignment and hashes its fields.  Other state, such
as a memo, is not carried over by `replace`.
"""


class Record:
    _fields: tuple = ()
    _uncompared: tuple = ()

    def __init__(self, *args, **kwargs):
        names = self._fields + self._uncompared
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} values, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values or name not in names:
                problem = "a repeated" if name in values else "an unknown"
                raise TypeError(f"{type(self).__name__}() got {problem} field {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = [n for n in names if n not in values]
            raise TypeError(f"{type(self).__name__}() is missing {', '.join(missing)}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    __hash__ = None  # a mutable record may stop being equal to its copy

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record of the same class with `changes` to its fields."""
        fields = {f: getattr(self, f) for f in self._fields + self._uncompared}
        return type(self)(**{**fields, **changes})


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
