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
    """An enumeration, a table, a kernel's work or a sampling run exceeds its cap."""


class UnsupportedCipherError(RunkeyError, ValueError):
    """The cipher does not determine a unique key symbol from (plaintext, ciphertext)."""


class ModelFormatError(RunkeyError, ValueError):
    """A source-model text file is malformed."""


class CertificationError(RunkeyError, ArithmeticError):
    """A bound or identity that must hold numerically was violated."""
