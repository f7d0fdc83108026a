"""Exception types shared across the package."""


class WeaksvError(Exception):
    """Base class for all package errors."""


class CorruptArtifact(WeaksvError):
    """A saved artifact that does not follow its file format."""


class EmptyCluster(WeaksvError):
    pass


class EmptyRecording(WeaksvError):
    pass


class InsufficientSegments(WeaksvError):
    """The requested trial counts cannot be met with the held-out material available."""


class DegenerateEmbedding(WeaksvError):
    """Pre-normalization vector too close to zero to normalize."""


class EmptyInput(WeaksvError):
    pass


class NoKnownExamples(WeaksvError):
    """A batch contains unknown-label rows but no known-label rows."""


class BagTooLarge(WeaksvError):
    """A single bag exceeds the allowed mini-batch size."""


class NonFiniteGradient(WeaksvError):
    """A gradient or loss value became NaN or infinite."""


class SingleClass(WeaksvError):
    """A score set lacks target or non-target trials."""


class MissingArtifacts(WeaksvError):
    """A pipeline command ran before its inputs were produced."""


class ConfigError(WeaksvError):
    """Malformed or unknown configuration keys/values."""
