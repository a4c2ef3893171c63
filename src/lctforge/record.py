"""The immutable record type of every lctforge module.

``record(name, fields)`` is ``collections.namedtuple`` with
one change: a record equals only a record of its own class, so
``QuasiLine(0, 1) != CoordCut(0, 1)`` and ``Optimal(v, w) != (v, w)``.
Its hash is the tuple's.  A record with behaviour subclasses
``record(...)`` with ``__slots__ = ()``; one that validates or coerces
its fields does so in ``__new__``, and ``_make`` and ``_replace`` go
through that constructor too.
"""

from collections import namedtuple
import sys


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _make(cls, iterable):
    args = tuple(iterable)
    if len(args) != len(cls._fields):
        raise TypeError(
            f"Expected {len(cls._fields)} arguments, got {len(args)}")
    return cls(*args)


def record(name, fields):
    module = sys._getframe(1).f_globals["__name__"]
    cls = namedtuple(name, fields, module=module)
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    cls._make = classmethod(_make)  # namedtuple's skips a subclass __new__
    return cls
