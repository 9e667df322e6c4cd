"""The immutable record base the package's value types derive from.

Its methods are ordinary source, compiled once with the module, where
``dataclasses`` would generate and compile the same methods for each
record type on every import.
"""

from __future__ import annotations

import numpy as np


class Record:
    """An immutable record of named fields.

    A subclass declares its fields as class annotations, in order, after
    those of the record it derives from; a class attribute of a field's
    name is its default.  Construction binds positional arguments, then
    keyword arguments, then defaults, and refuses a missing, repeated or
    unknown argument with TypeError; it then calls ``__post_init__``, which
    may check the fields (raising ValueError) or replace one through
    ``object.__setattr__``, and then makes every array field read-only.
    Records of one class compare and hash by their field values in order;
    a subclass declared with ``eq=False`` compares and hashes by identity
    instead, as every subclass with an array field is.  Assigning or
    deleting an attribute raises AttributeError.  ``repr`` reads
    ``Name(field=value, ...)``, and ``_asdict`` / ``_astuple`` give the
    fields in order, shallowly.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                state[field] = kwargs.pop(field)
            elif field in self._defaults:
                state[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        if kwargs:
            field = next(iter(kwargs))
            how = "multiple values for" if field in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {how} argument {field!r}")
        self.__post_init__()
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def _asdict(self) -> dict:
        return {field: getattr(self, field) for field in self._fields}

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
