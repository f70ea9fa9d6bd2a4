"""tdcodec: lossy multichannel audio codec built on sparse approximation.

The pipeline: partition the signal into blocks, approximate all channels
of each block simultaneously over a redundant trigonometric dictionary
(greedy pursuit with global block ranking), uniformly quantize the
coefficients, delta-code the sorted atom indices, entropy-code indices
and magnitudes as bit-length buckets with interleaved rANS plus raw
bypass bits, pack the sign bits, and wrap everything in a checksummed
.tdc container.

Every stage holds a clip's atoms as one ``AtomTable``: per-block atom
counts, the atom indices and their ``(K, L)`` values in block order.
The pursuit returns one of coefficients (``PursuitResult.atoms``),
``parse_streams`` one of quantization levels, and
``TrigDictionary.synthesize`` takes one; iterating a table yields each
block's ``(indices, values)``.

The codec is two calls: ``encode(signal, EncodeConfig(...))`` returns a
``.tdc`` file's bytes and a ``QualityReport``, ``decode(data)`` the
``MultichannelSignal`` they decode to.  The package's names are ``__all__``,
its submodules and ``__version__``; the steps of the chain (``partition``,
``serialize_decompositions``, ``write_tdc`` and the rest), the pursuit's
block-level steps and the entropy coder are imported from their modules.
"""

from .cli import EncodeConfig, decode, encode
from .container import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    FormatError,
    MultichannelSignal,
    UnsupportedVersionError,
    read_wav,
    write_wav,
)
from .dictionary import AtomTable, TrigDictionary
from .entropy import EntropyDecodeError
from .metrics import SNR_CAP_DB, QualityReport, snr
from .pursuit import PursuitResult, SelectionCriterion, hbw_pursuit, pursuit_to_snr

__version__ = "0.1.0"

__all__ = [
    "AtomTable",
    "BadMagicError",
    "ChecksumError",
    "ContainerError",
    "EncodeConfig",
    "EntropyDecodeError",
    "FormatError",
    "MultichannelSignal",
    "PursuitResult",
    "QualityReport",
    "SelectionCriterion",
    "SNR_CAP_DB",
    "TrigDictionary",
    "UnsupportedVersionError",
    "decode",
    "encode",
    "hbw_pursuit",
    "pursuit_to_snr",
    "read_wav",
    "snr",
    "write_wav",
]
