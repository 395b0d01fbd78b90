"""Immutable value records over ``__slots__``.

``Record`` gives its subclasses the value semantics of a frozen dataclass
without the stdlib dataclass module, whose import loads ``inspect`` and
``ast``, and which compiles six generated methods per decorated class. A
subclass lists its fields, in order, in ``__slots__``; its own ``__init__``
checks and canonicalises the arguments, then passes one value per field, in
that order, to ``Record.__init__``, which stores them. Equality, hashing,
repr, immutability, pickling, positional ``match`` patterns and
``as_dict()`` all read the same field tuple.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)  # a tuple only for two or more names
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))
        # each slot's own store, which bypasses the __setattr__ that refuses assignment
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values):
        for store, value in zip(self._stores, values, strict=True):
            store(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a slotted instance is otherwise restored by setattr, which is refused
        return type(self), self._values(self)

    def _items(self):
        return zip(self.__slots__, self._values(self))

    def as_dict(self) -> dict:
        """The fields and their values, in field order."""
        return dict(self._items())
