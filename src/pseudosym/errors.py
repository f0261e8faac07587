"""Exception types and the immutable record base shared across the package."""


class ParameterError(ValueError):
    """Input parameters violate a stated precondition."""


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a construction bug, not bad input.

    Among these checks: every binomial the package builds is homogeneous for
    the grading Xi -> ni, and each closed-form tail element leads as the
    README's lemma (iii) proves it must.
    """


class Record:
    """Base of the package's immutable record types.

    A subclass names its fields, in constructor order, in `_fields`, lists
    them in `__slots__` and sets them in its own `__init__` with
    `object.__setattr__`.  Equality (between instances of one class only),
    the hash, the repr ``Name(field=value, ...)`` and pickling and copying
    read those fields, as a frozen dataclass's would; a copy is rebuilt
    through the constructor.  Assigning or deleting any attribute raises
    `dataclasses.FrozenInstanceError`, the error a frozen dataclass raises;
    that module is imported only on this path.  Defining a record generates
    and compiles no code, which a dataclass does on every import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
