"""Immutable value records: the base of the package's parameter and result types."""


class Record:
    """Read-only fields named in ``__slots__``, set by ``__init__`` through ``_init``; pickled
    and copied through ``__init__``, so checked again.  ``==`` and ``hash`` use the field tuple:
    by value for scalars, while a NumPy array of more than one element cannot be hashed and makes
    ``==`` raise NumPy's ambiguity error unless both records hold the same array object."""

    __slots__ = ()

    def __init_subclass__(cls):
        # each slot's own setter, so that _init skips object.__setattr__'s lookup by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
