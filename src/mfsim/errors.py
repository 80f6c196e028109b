"""Exception hierarchy shared across the simulator."""


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
