"""Frozen base for the records that validate or cache a value.

Records whose fields need no check are typing.NamedTuples. The few
that check their arguments, or derive a value from them, subclass
Record instead: __init__ stores the fields with _set, after
which the instance is immutable; it compares, hashes, prints and
pickles by the names in _fields. Creating a NamedTuple class compiles
one small lambda and a Record class nothing, where a frozen data class
generated and compiled several methods: about 0.1 ms against 1 ms per
record at import.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return self.__class__, self._astuple()
