"""Exception types, and the base of checked records, shared across the package."""


class OpsimError(Exception):
    """Base class for all package errors."""


class DomainError(OpsimError, ValueError):
    """An input violates a documented precondition or invariant."""


class ConstraintViolationError(DomainError):
    """A decision variable breaks an explicit feasibility bound."""


class ConfigError(OpsimError, ValueError):
    """A run configuration failed to parse or validate.

    ``field`` names the offending entry when known; parse failures carry
    ``line``/``column`` instead.
    """

    def __init__(self, message: str, field: str | None = None,
                 line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.field = field
        self.line = line
        self.column = column


class CheckedRecord:
    """Base of a named-tuple record whose ``__new__`` checks its fields.

    Listed before the fields class, it makes ``_make``, and so ``_replace``,
    build through ``__new__``, which re-runs the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
