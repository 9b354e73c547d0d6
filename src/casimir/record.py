"""Value records: field-wise equality, hashing and repr without generated code.

A subclass names its fields, in ``__init__`` order, in a ``_fields`` tuple and
writes its own ``__init__``; further ``__init__`` arguments, which take no part
in equality, hashing or repr, are named in ``_uncompared``.  Two records are
equal when they are of the same class and their fields are equal.  A `Record`
can be assigned to and has no hash.  A `FrozenRecord` rejects assignment and
hashes its fields; its ``__init__`` sets them through ``self.__dict__``.  Other
state, such as a memo, is not carried over by `replace`.
"""


class Record:
    _fields: tuple = ()
    _uncompared: tuple = ()

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
