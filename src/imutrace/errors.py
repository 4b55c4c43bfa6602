"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes (config 2, data 3,
transport 4, anything else 5), so new failure modes should subclass
the closest existing category rather than raising bare exceptions.
"""


class ImutraceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ImutraceError):
    """Invalid or missing configuration (bad flags, absent auth token)."""


class DataError(ImutraceError):
    """Malformed or inconsistent input data, or an infeasible split."""


class TransportError(ImutraceError):
    """HTTP-level failure after retries were exhausted, or one no retry
    can mend; the message names its status or cause and the attempts."""


class ProviderError(ImutraceError):
    """The provider responded, but with something unusable."""


class LabelParseError(ImutraceError):
    """Base class for failures to extract a label from model text."""


class UnparseableLabelError(LabelParseError):
    """No known label phrasing occurs in the text."""


class AmbiguousLabelError(LabelParseError):
    """Two different labels match at the same final position."""


class TrainingDivergedError(ImutraceError):
    """Loss became non-finite during training; lower the learning rate."""
