"""``_Value``, the one base of the package's record types.

A record names its fields once, as the parameters of its ``__init__``, which
checks them and writes each once into the instance dict (``_set``).  ``==``,
``hash`` and ``repr`` are a frozen dataclass's: ``NotImplemented`` for another
class, the hash of the field tuple, ``Name(field=value, ...)``.  Assignment and
``del`` raise ``dataclasses.FrozenInstanceError``, importing ``dataclasses``
(and with it ``inspect``) only then.
"""


class _Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _astuple(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
