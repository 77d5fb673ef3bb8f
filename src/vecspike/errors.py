"""Exception hierarchy for the simulator.

Every fault the model can raise is a distinct class so callers (and the
CLI exit-code mapping) can tell them apart.
"""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulatorError, ValueError):
    """A numeric parameter is outside its legal domain (e.g. gamma == 0)."""


class ShapeError(SimulatorError, ValueError):
    """Tensor dimensions do not match what an operation requires."""


class ConfigError(SimulatorError, ValueError):
    """A hardware configuration is inconsistent or unsupported."""


class NetworkParseError(SimulatorError, ValueError):
    """The network description text could not be parsed."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


class ValidationError(SimulatorError, ValueError):
    """Shape propagation through a network failed."""

    def __init__(self, message: str, layer_index: int | None = None):
        self.layer_index = layer_index
        if layer_index is not None:
            message = f"layer {layer_index}: {message}"
        super().__init__(message)


class FixedPointOverflowError(SimulatorError, OverflowError):
    """A fixed-point value left its representable range.

    Overflow is always a reported fault, never a silent wraparound.
    """


class ScheduleFault(SimulatorError, RuntimeError):
    """A group accumulation finalized before its last group.  Only the
    register-level model, :mod:`vecspike.pipeline`, raises it."""


class CapacityFault(SimulatorError, RuntimeError):
    """An on-chip buffer was asked to hold more bytes than its capacity."""


class PlanError(SimulatorError, ValueError):
    """A fusion plan does not cover the network it is applied to."""


class BundleError(SimulatorError):
    """Base class for model-bundle file problems."""


class BadMagicError(BundleError):
    """The bundle file does not start with the expected magic tag."""


class ChecksumError(BundleError):
    """The bundle checksum does not match its content."""


class TruncatedBundleError(BundleError):
    """The bundle file ended before all declared sections were read."""
