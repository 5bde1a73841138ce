"""Exception types shared across the package."""


class PermcodecError(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedInput(PermcodecError):
    """Input text or letters do not parse into the expected object."""


class DomainError(PermcodecError):
    """Argument outside the defined domain (e.g. pattern length below 3)."""


class PreconditionViolated(PermcodecError):
    """The permutation contains the pattern the operation requires it to avoid."""

    def __init__(self, message: str, pattern=None, witness=None):
        super().__init__(message)
        self.pattern = pattern
        self.witness = witness  # 1-based index tuple, when known


class NotInImage(PermcodecError):
    """The word pair is not the code of any avoiding permutation."""


class LengthMismatch(PermcodecError):
    """Word lengths do not fit the object being coded."""


class ScaleRefused(PermcodecError):
    """Estimated work exceeds the configured node budget."""


class CacheIOError(PermcodecError):
    """The persistent count cache could not be read or written."""


class MissingCount(PermcodecError):
    """A bound-table row needs an avoidance count that was not supplied."""
