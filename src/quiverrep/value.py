"""Base class of the package's immutable value types.

A value class names its fields in `_fields` and stores them in its own
`__init__` with `setfield` (`object.__setattr__`), since assigning or deleting
an attribute afterwards raises `AttributeError`.  Two values are equal when
they are of the same class and their fields are equal, and they hash and
print (`Arrow(name='a', source=0, target=1)`) by the same fields.  Equality
and hashing go through the class's `_key`, an attrgetter built here once per
class from `_fields` unless the class sets its own: `Quiver` does, because
its equality ignores one field (`name`).  Nothing is generated or executed at
import.

`Value` declares empty `__slots__`, so a subclass that declares its fields as
slots has no `__dict__`; a subclass without slots keeps one.  `__reduce__`
rebuilds a value by calling its class with its fields in `_fields` order, so
`copy.copy`, `copy.deepcopy` and `pickle` work for every value type and each
rebuild runs the constructor's checks again.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value", "setfield"]

setfield = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
