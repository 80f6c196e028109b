"""Exception hierarchy shared across the simulator, the config value checks that raise it, and
the methods of the package's value types."""

import contextlib
import math
import numbers
from dataclasses import FrozenInstanceError, fields


class UsageError(ValueError):
    """A caller violated an API precondition (bad lengths, non-unitary matrix, ...)."""


class ProtocolError(RuntimeError):
    """The simulated register is not in the state a protocol step requires."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""


class ResourceError(RuntimeError):
    """A config asks for a register past the dense-simulation size cap, or for work past the budget."""


class IncompleteRotationError(RuntimeError):
    """A feedback rotation ran out of rounds before closing its residual angle.

    Carries the remaining angle and the per-round records so a caller can
    resume or report diagnostics.
    """

    def __init__(self, residual, records):
        super().__init__(
            f"rotation incomplete after {len(records)} rounds, "
            f"residual angle {residual:.3e}"
        )
        self.residual = residual
        self.records = records


@contextlib.contextmanager
def config_errors(prefix: str = ""):
    """Re-raise a UsageError of the block as a ConfigError with the same text after ``prefix``."""
    try:
        yield
    except UsageError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def config_int(value, key: str, least=None) -> int:
    """A config integer, at least ``least`` if given: an int or an integral float such as 16.0."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise UsageError(f"{key} must be " + (f"at least {least}" if least else "non-negative"))
    return int(value)


def config_float(value, key: str) -> float:
    """A config real: a finite JSON number (integer or fraction), never a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the largest float
            value = math.inf
    if not isinstance(value, float) or not math.isfinite(value):
        raise UsageError(f"{key} must be finite and a JSON number, got {value!r}")
    return value


def config_choice(enum, value, key: str):
    """A config choice: the member of ``enum`` whose value is ``value``."""
    try:
        return enum(value)
    except ValueError:
        values = ", ".join(repr(m.value) for m in enum)
        raise UsageError(f"{key} must be one of {values}, got {value!r}") from None


def config_object(d, path: str, optional=(), required=()) -> dict:
    """``d``, once checked to be an object with the keys ``required`` and ``optional`` ones only."""
    if not isinstance(d, dict):
        raise UsageError(f"{path or 'configuration'} must be an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(map(str, set(d) - set(optional) - set(required)))
    if unknown:
        raise UsageError("unknown key " + ", ".join(prefix + k for k in unknown))
    missing = [k for k in required if k not in d]
    if missing:
        raise UsageError("missing key " + ", ".join(prefix + k for k in missing))
    return d


def _compared(value) -> tuple:
    """The values of ``value``'s compared dataclass fields, in field order."""
    return tuple([getattr(value, f.name) for f in fields(value) if f.compare])


class Value:
    """The ``repr`` and ``==`` of a value type, read from its dataclass fields.

    ``@dataclass`` writes each method's source and compiles it at every import:
    the package's 16 value types compiled 81 functions, 14.6 ms of a 113 ms
    ``trotter3`` setup (medians of fresh processes without bytecode).  So each
    type keeps ``@dataclass(init=False, repr=False, eq=False)``, for ``fields``,
    ``replace`` and ``astuple``, writes its ``__init__`` out and takes these:
    the ``repr`` text and ``==`` a dataclass generates (the compared fields'
    tuples, for instances of one class).  A ``Value`` is unhashable, as a
    mutable dataclass with ``==`` is; ``FrozenValue`` hashes and is frozen.
    """

    __slots__ = ()
    __hash__ = None

    def __repr__(self):
        shown = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _compared(self) == _compared(other)
        return NotImplemented


class FrozenValue(Value):
    """A ``Value`` that hashes its compared fields and refuses assignment, as a frozen dataclass.

    Its ``__init__`` fills ``self.__dict__``; a ``functools.cached_property`` writes there too.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(_compared(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
