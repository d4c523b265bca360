"""Exception types shared across the package."""


class RunkeyError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistributionError(RunkeyError, ValueError):
    """A probability vector has negative entries or does not sum to 1."""


class NotErgodicError(RunkeyError, ValueError):
    """A transition structure has more than one closed communicating class."""


class ConvergenceError(RunkeyError, ArithmeticError):
    """An iterative numeric routine failed to reach its tolerance."""


class EnumerationCapError(RunkeyError, ValueError):
    """A requested exhaustive enumeration exceeds the configured cap."""


class StateCapError(RunkeyError, ValueError):
    """The product chain's operators would store more entries than the cap.

    Raised before any operator is built, from the count n * n * S of stored
    operator entries (n symbols, S product states) against
    ``runkey.inference.DEFAULT_ENTRY_CAP``.
    """


class UnsupportedCipherError(RunkeyError, ValueError):
    """The cipher does not determine a unique key symbol from (plaintext, ciphertext)."""


class ModelFormatError(RunkeyError, ValueError):
    """A source-model text file is malformed."""


class CertificationError(RunkeyError, ArithmeticError):
    """A bound or identity that must hold numerically was violated."""
