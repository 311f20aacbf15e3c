"""Immutable value classes, built by plain class statements.

A subclass lists its fields in ``__slots__`` and writes its own
``__init__``, storing each field with ``_set(self, name, value)``.  Its
instances compare and hash by class and field values, print as
``Name(field=value, ...)`` and refuse assignment and deletion, like a frozen
dataclass.  The fields are exactly the ``__slots__``: a value holds no
hidden state, so a cache belongs to the code that fills it.  Nothing is
generated at import: a class costs one ``attrgetter``, wrapped in a lambda
when it has one field.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__slots__
        # the getter returns the tuple that a dataclass compares and hashes;
        # with one field it returns the bare value, so that is wrapped
        getter = attrgetter(*cls._fields)
        cls._key = (
            getter if len(cls._fields) > 1 else staticmethod(lambda x: (getter(x),))
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
