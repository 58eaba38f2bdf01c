"""Exception types shared across the package.

Everything derives from HesnetError so callers can catch the package's
failures with one clause.  The CLI maps subclasses to exit codes.
"""


class HesnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HesnetError, ValueError):
    """A physical or algorithmic parameter is out of its valid domain."""


class InvalidStateError(HesnetError):
    """A state value is outside its physical domain (negative energy, ...)."""


class InvalidActionError(HesnetError):
    """An action was applied in a state where it is not allowed."""


class ResourceLimitError(HesnetError):
    """A requested computation exceeds a configured size cap."""


class ModelMismatchError(HesnetError):
    """An operation requires a stochastic model other than the one configured."""


class StalePolicyError(HesnetError):
    """A stored decision table does not match the current parameters."""


class StructureViolationError(HesnetError):
    """A decision table lacks the monotone threshold structure."""


class ConfigError(HesnetError):
    """A run configuration file or flag set is invalid."""


class ReplayParseError(ConfigError):
    """A trajectory replay file could not be parsed.

    `line` is the 1-based line number of the first offending row.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
