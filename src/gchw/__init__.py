"""Golden-matrix cipher with a Haar-wavelet key schedule.

Compress-then-encrypt pipeline: adaptive Huffman compression, HMAC-SHA-256
sealing, and block encryption by an exactly invertible dyadic matrix derived
from Fibonacci-family golden matrices.  Ships with a statistics toolkit and
an executable chosen-plaintext attack against the original continuous
golden cipher.  Research code - not a secure cipher.
"""

from .analysis import AnalysisReport, analyze_message, contrast_csv, correlation, paired_t, unpaired_t
from .attack import AttackResult, recover_x, stakhov_encrypt
from .envelope import CipherEnvelope, deserialize, seal, serialize
from .envelope import open as open_envelope
from .errors import (
    AttackError,
    AuthenticationError,
    CorruptStreamError,
    CorruptionError,
    GchwError,
    KeyDerivationError,
    ParameterError,
    ParseError,
    ShapeError,
    SingularMatrixError,
    StatisticsError,
)
from .keyschedule import CipherKey, KeyMatrixPair, derive, load_key_file, save_key_file
from .recurrence import RecurrenceKind

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AttackError",
    "AttackResult",
    "AuthenticationError",
    "CipherEnvelope",
    "CipherKey",
    "CorruptStreamError",
    "CorruptionError",
    "GchwError",
    "KeyDerivationError",
    "KeyMatrixPair",
    "ParameterError",
    "ParseError",
    "RecurrenceKind",
    "ShapeError",
    "SingularMatrixError",
    "StatisticsError",
    "analyze_message",
    "contrast_csv",
    "correlation",
    "derive",
    "deserialize",
    "load_key_file",
    "open_envelope",
    "paired_t",
    "recover_x",
    "save_key_file",
    "seal",
    "serialize",
    "stakhov_encrypt",
    "unpaired_t",
]
