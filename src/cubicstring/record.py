"""Record: the one immutable value base of the package's records.

A subclass declares its fields as class annotations, in order, and may
give any of them a default by a class-level value.  An instance builds
by position or keyword, runs the subclass's __post_init__, which may
validate or normalise a field with object.__setattr__, and keeps its
fields in its __dict__ in declared order.  It compares equal to a
record of the same type with equal fields, hashes by the fields,
refuses assignment and deletion, and prints as Name(field=value, ...).
The standard library's generated records would load inspect, ast and
dis and build each class's methods through exec: a third of the CLI's
start-up.
"""

from __future__ import annotations

_MISSING = object()


class Record:
    _fields: tuple[str, ...] = ()
    _template: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # its own, on 3.10+
        # the fields in order, each holding its default or _MISSING
        cls._template = {f: cls.__dict__.get(f, _MISSING)
                         for f in cls._fields}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = self._values(args, kwargs)
        else:
            values = dict(zip(fields, args))
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        """Validates or normalises the fields, in a subclass that needs it."""

    @classmethod
    def _values(cls, args, kwargs) -> dict:
        """The fields in order, from positional and keyword arguments and
        the defaults; a TypeError for a missing, unknown or repeated one."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, "
                            f"got {len(args)} positional")
        values = {**cls._template, **dict(zip(fields, args))}
        for field, value in kwargs.items():
            if field not in values:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in fields[:len(args)]:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        missing = [f for f, v in values.items() if v is _MISSING]
        if missing:
            raise TypeError(f"{name}() missing fields {missing}")
        return values

    def replace(self, **changes):
        """A copy with `changes` applied, built and validated anew."""
        return type(self)(**{**self.__dict__, **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        # the values alone: the hash of a type changes from run to run,
        # and with it the order of a set
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={v!r}" for f, v in self.__dict__.items()))
