"""The one base of hblab's value classes: immutable records over ``__slots__``.

A subclass lists its fields, in order, as ``__slots__`` and writes its own
``__init__``, which stores each field with ``_set``; plain assignment
raises.  The base gives field-wise equality and hash, the
``Name(field=value, ...)`` repr, and ``_replace``, a copy with some fields
replaced that runs ``__init__`` again, checks included.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _key(self) -> tuple:
        """The values equality and hash compare: every field, in order."""
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return type(self)(**({f: getattr(self, f) for f in self.__slots__} | changes))
