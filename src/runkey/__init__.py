"""Secrecy analysis for running-key ciphers with imperfect key streams.

Models plaintext and key as stationary ergodic Markov sources, applies a
symbol-wise running-key cipher, and quantifies what the ciphertext reveals:
exact posteriors over all plaintexts, equivocation-rate brackets, typical
deciphering sets with their mass and growth exponents, concentration
experiments, and certified closed-form secrecy lower bounds.
"""

from .cipher import CipherSpec, additive_cipher
from .errors import (
    CertificationError,
    ConvergenceError,
    EnumerationCapError,
    InvalidDistributionError,
    ModelFormatError,
    NotErgodicError,
    RunkeyError,
    UnsupportedCipherError,
)
from .inference import (
    EntropyBracket,
    PosteriorTable,
    hxz_bracket,
    hz_bracket,
    joint_log2_table,
    log_marginal_forward,
    posterior,
)
from .secrecy import (
    ConcentrationReport,
    DEFAULT_MEMBER_CAP,
    GrowthPoint,
    SecrecyReport,
    TypicalSet,
    build_typical_set,
    certify_bounds,
    concentration_experiment,
    robustness_sweep,
    typical_set_growth,
)
from .sources import (
    DEFAULT_WORD_CAP,
    SourceModel,
    entropy_bits,
    load_model,
    make_bernoulli,
    make_uniform,
    save_model,
    train_markov,
    xlog2x,
)
from .words import (
    as_word,
    bytes_to_symbols,
    index_to_word,
    symbols_to_bytes,
    text_to_word,
    word_to_index,
    word_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "CipherSpec",
    "CertificationError",
    "ConcentrationReport",
    "ConvergenceError",
    "DEFAULT_MEMBER_CAP",
    "DEFAULT_WORD_CAP",
    "EntropyBracket",
    "EnumerationCapError",
    "GrowthPoint",
    "InvalidDistributionError",
    "ModelFormatError",
    "NotErgodicError",
    "PosteriorTable",
    "RunkeyError",
    "SecrecyReport",
    "SourceModel",
    "TypicalSet",
    "UnsupportedCipherError",
    "additive_cipher",
    "as_word",
    "build_typical_set",
    "bytes_to_symbols",
    "certify_bounds",
    "concentration_experiment",
    "entropy_bits",
    "hxz_bracket",
    "hz_bracket",
    "index_to_word",
    "joint_log2_table",
    "load_model",
    "log_marginal_forward",
    "make_bernoulli",
    "make_uniform",
    "posterior",
    "robustness_sweep",
    "save_model",
    "symbols_to_bytes",
    "text_to_word",
    "train_markov",
    "typical_set_growth",
    "word_to_index",
    "word_to_text",
    "xlog2x",
]
