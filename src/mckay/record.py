"""Bases of the result records: plain `__slots__` classes with an explicit
`__init__`, which, unlike dataclasses, cost no imports and no `exec`."""


class Record:
    """Shown with its fields, like a dataclass; equal only to itself."""
    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """A Record equal to one of its class with equal fields."""
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
