"""Immutable value records, declared like frozen dataclasses.

A subclass lists its fields as annotated class attributes, in order; a class
value is that field's default.  ``__init__`` takes the fields by position or
keyword, then calls ``__post_init__``, which may check and normalize them
through ``object.__setattr__``.  Equality, hashing and repr go by the fields,
and assigning to a field raises AttributeError.

The package uses this instead of ``dataclasses``, whose import also loads
``inspect``, ``ast`` and ``dis``: about 0.8 MB of Python heap on CPython
3.11, more than the four layer modules that use it take together.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values[name] = value
        for name in cls._fields:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in cls.__dict__:
                object.__setattr__(self, name, cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
