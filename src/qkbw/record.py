"""The one base of the package's value records.

A record class writes its ``__init__`` out: it checks its arguments and
stores each one with ``object.__setattr__`` as the field of the same name.
The parameters of ``__init__`` are so the record's fields, in order.  The
base gives equality and hashing by field value, between instances of one
class only; the ``Name(field=value, ...)`` repr; ``replace``, which builds
a new record through ``__init__``, so the checks run again; and freezing.
That is the behaviour of a frozen dataclass, without the start-up cost of
the dataclasses module (it imports inspect) and of generating the methods
of each class.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenRecordError", "Record"]


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        # the tuple of field values, as a dataclass compares and hashes it
        cls._values = property(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other is self:  # the common case: one bundle shared by its identities
            return True
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by ``__init__``."""
        return self.__class__(**dict(zip(self._fields, self._values), **changes))
