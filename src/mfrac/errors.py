"""Exception types, the immutable record base and the checks shared across
the package: every real, count and order it takes, and every computed
result it hands out, is checked here."""

import math


class MfracError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MfracError):
    """A parameter, configuration value, or precondition is invalid."""


class DomainError(MfracError):
    """A function was evaluated outside its real domain."""


class ConvergenceError(MfracError):
    """An iterative computation failed to reach its tolerance."""


class ToleranceNotMetError(ConvergenceError):
    """Adaptive quadrature stopped short of its tolerance.

    ``quad.refine`` raises it at its panel budget or its width floor; the
    message gives the error estimate, the bound and the panel count.  No
    partial result is kept.
    """


def require_real(name: str, value):
    """Return ``value`` unchanged when it is a finite int or float.

    Anything else, bool included, raises ValidationError naming ``name``.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the range of a double
            pass
    raise ValidationError(f"{name} must be a finite real, got {value!r}")


def require_positive(name: str, value):
    """Return ``value`` unchanged when ``require_real`` accepts it and it is > 0;
    otherwise raise ValidationError naming ``name``."""
    if require_real(name, value) > 0.0:
        return value
    raise ValidationError(f"{name} must be positive, got {value!r}")


def require_int(name: str, value, minimum: int):
    """Return ``value`` unchanged when it is an int, not a bool, and at least
    ``minimum``; anything else, 2.0 included, raises ValidationError."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return value
    raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_order(alpha, closed: bool, n: int = 0):
    """Return ``alpha`` unchanged when it is a real in (n, n + 1), or in
    (n, n + 1] when ``closed`` admits the classical edge; otherwise raise
    ValidationError.  ``n`` is the order of a higher derivative."""
    if n < require_real("alpha", alpha) < n + 1 or (closed and alpha == n + 1):
        return alpha
    order = f" for order n={n}" if n else ""
    raise ValidationError(
        f"alpha must lie in ({n}, {n + 1}{']' if closed else ')'}{order}, got {alpha}"
    )


def require_finite(name: str, value: float) -> float:
    """Return the computed ``value`` unchanged when it is finite; otherwise
    raise DomainError naming the quantity ``name``."""
    if math.isfinite(value):
        return value
    raise DomainError(f"the {name} is not finite ({value!r})")


class Record:
    """Base of the package's immutable value classes.

    A record's fields are the names in its own ``__slots__``, in order.  Its
    ``__init__`` validates the arguments and passes the field values, in slot
    order, to ``Record.__init__``; a class built in bulk, such as an
    expression node, sets each slot with ``object.__setattr__`` instead,
    which skips the variadic call.  The base supplies what the fields
    determine: equality and hashing by class and field values, the repr
    ``Name(field=value, ...)``, ``__match_args__`` for positional ``match``
    patterns, and pickling.  Assigning or deleting an attribute raises
    AttributeError.  To change a field, build a new record.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__name__} must declare __slots__")
        cls.__match_args__ = tuple(cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
