"""Exception hierarchy with stable machine-readable codes for the CLI."""


class SpecnetError(Exception):
    """Base class; `code` is emitted on the diagnostic stream by the CLI."""

    code = "E_INTERNAL"


class ShapeError(SpecnetError):
    """Tensor or kernel geometry is invalid (axis named in the message)."""

    code = "E_SHAPE"


class FormatError(SpecnetError):
    """On-disk container is malformed: bad header, version, or payload size."""

    code = "E_FORMAT"


class ConfigError(SpecnetError):
    """A configuration value violates its invariant."""

    code = "E_CONFIG"


class SplitError(SpecnetError):
    """Stratified split preconditions not met, or a pixel set is unusable."""

    code = "E_SPLIT"


class MismatchError(SpecnetError):
    """Two artifacts that must agree (checkpoint, cube, labels) do not."""

    code = "E_MISMATCH"


class MetricError(SpecnetError):
    """A statistic is undefined for the given confusion matrix."""

    code = "E_METRIC"


class NumericError(SpecnetError):
    """A computed value that must be finite is not, such as a diverged loss."""

    code = "E_NUMERIC"
