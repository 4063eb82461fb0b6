"""Base classes of the package's value classes.

A subclass names its compared fields in _fields and sets its attributes
in its own __init__.  Two instances of one class are equal when those
fields are equal, and an instance is shown by them.  A Frozen subclass
is immutable and hashed by its fields: its __init__ stores them with
vars(self).update, and assigning or deleting an attribute afterwards
raises AttributeError.  functools.cached_property still works on it,
because it writes to the instance __dict__ directly.
"""

__all__ = ["Frozen", "Record"]


class Record:
    _fields = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
