"""Immutable records: the package's result types without `dataclasses`,
whose import (with `inspect`, `ast` and `dis`) and class decoration would
otherwise be paid by every command-line launch."""

from __future__ import annotations


class Record:
    """Base of an immutable record whose fields are its class's `__slots__`.

    It is built from positional or keyword arguments in field order, equals
    a record of the same class with equal fields, hashes by its fields, and
    refuses assignment after construction.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: bad or repeated field {name!r}")
            values[name] = value
        if len(values) != len(fields):
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{type(self).__name__} is missing {', '.join(missing)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({pairs})"
