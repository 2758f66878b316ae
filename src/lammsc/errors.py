"""Exception taxonomy shared across the simulator."""


class LamMscError(Exception):
    """Base class for all simulator errors."""


class ShapeError(LamMscError):
    """Tensor or grid extents do not match what an operation requires."""


class FormatError(LamMscError):
    """A persisted file has a bad magic, version, or truncated body."""


class ConfigError(LamMscError, ValueError):
    """Invalid pipeline configuration or an unusable configured input file.

    Also a ValueError, so a caller that catches bad input values as
    ValueError catches this one too.
    """


class TrainingError(LamMscError):
    """Training aborted (non-finite loss or gradient)."""


class CaptionParseError(LamMscError):
    """Text does not conform to the caption grammar."""

    def __init__(self, message: str, sentence: str = ""):
        super().__init__(message)
        self.sentence = sentence


class CorpusError(LamMscError):
    """A corpus file is missing, empty, or has a malformed line."""


class TransportError(LamMscError):
    """A remote endpoint could not be reached within the retry budget."""


class ProtocolError(LamMscError):
    """A remote endpoint answered with a malformed or incompatible message."""


class RemoteServiceError(LamMscError):
    """A remote endpoint reported a service-side failure."""
