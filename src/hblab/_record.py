"""The one base of hblab's value classes: immutable records over ``__slots__``.

A subclass lists its fields, in order, as ``__slots__``, and the defaults
of its trailing fields in a class-level ``_defaults`` dict.  The base's
constructor binds positional values in field order and keywords by field
name, fills the fields left out from ``_defaults``, stores each field with
``_set`` and then calls ``__post_init__``, where a subclass checks or
normalizes its fields (storing a changed value with ``_set`` again); too
many values, a missing field, an unknown keyword or a field given twice
raise TypeError.  Plain assignment raises.  The base also gives field-wise
equality and hash, the ``Name(field=value, ...)`` repr, ``_asdict``, the
fields by name and in order, and ``_replace``, a copy with some fields
replaced that runs the constructor, and so ``__post_init__``, again.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """Every field's value, in field order: the positional values, then
        each remaining field from the keywords or else from ``_defaults``."""
        fields, n = cls.__slots__, len(args)
        if n > len(fields):
            raise TypeError(f"{cls.__qualname__} takes at most {len(fields)} values, got {n}")
        rest = fields[n:]
        for field in kwargs:
            if field not in rest:
                problem = "got field {!r} twice" if field in fields else "has no field {!r}"
                raise TypeError(f"{cls.__qualname__} {problem.format(field)}")
        try:
            return args + tuple([kwargs[f] if f in kwargs else cls._defaults[f] for f in rest])
        except KeyError as e:  # a field neither given nor defaulted
            raise TypeError(f"{cls.__qualname__} is missing field {e.args[0]!r}") from None

    def __post_init__(self):
        """Check or normalize the stored fields; the base has nothing to do."""

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
        fields = ", ".join(f"{f}={v!r}" for f, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """{field: value} for every field, in order."""
        return {f: getattr(self, f) for f in self.__slots__}

    def _replace(self, **changes):
        return type(self)(**(self._asdict() | changes))
