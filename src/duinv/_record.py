"""The frozen-record contract shared by duinv's exact value classes."""


class Record:
    """
    An immutable value named by its fields, `_fields`.  Assignment and
    deletion raise AttributeError("<Class> is immutable"); `==` compares the
    field tuples of two instances of one class (NotImplemented for any other
    class), the hash is the hash of the field tuple, and the repr is
    Class(field=value!r, ...).  A subclass sets its fields in __init__
    through object.__setattr__, or through vars(self) when it keeps an
    instance dict for cached_property values, and overrides a method only
    where its meaning differs.  Copies and pickles call the class on the
    field values, so its constructor takes them first, and caches restart;
    RatFunc and MatGroup, built from other values, have their own __reduce__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"
