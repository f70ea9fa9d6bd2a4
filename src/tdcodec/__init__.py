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

The package's names are ``__all__``, its submodules and ``__version__``.
The pursuit's block-level steps (``init_block_state``, ``accept_candidate``
and the rest), ``synthesize_block`` and the entropy coder are imported from
their modules: ``tdcodec.pursuit``, ``tdcodec.dictionary`` and
``tdcodec.entropy``.
"""

from .container import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    FormatError,
    MultichannelSignal,
    PartitionedSignal,
    TdcHeader,
    UnsupportedVersionError,
    assemble,
    partition,
    read_tdc,
    read_wav,
    write_tdc,
    write_wav,
)
from .dictionary import AtomTable, TrigDictionary
from .entropy import EntropyDecodeError
from .metrics import SNR_CAP_DB, QualityReport, rate_report, snr
from .pursuit import PursuitResult, SelectionCriterion, hbw_pursuit, pursuit_to_snr
from .quantize import (
    QuantizedBlockSet,
    StreamError,
    parse_streams,
    serialize_decompositions,
)

__version__ = "0.1.0"

__all__ = [
    "AtomTable",
    "BadMagicError",
    "ChecksumError",
    "ContainerError",
    "EntropyDecodeError",
    "FormatError",
    "MultichannelSignal",
    "PartitionedSignal",
    "PursuitResult",
    "QualityReport",
    "QuantizedBlockSet",
    "SelectionCriterion",
    "SNR_CAP_DB",
    "StreamError",
    "TdcHeader",
    "TrigDictionary",
    "UnsupportedVersionError",
    "assemble",
    "hbw_pursuit",
    "parse_streams",
    "partition",
    "pursuit_to_snr",
    "rate_report",
    "read_tdc",
    "read_wav",
    "serialize_decompositions",
    "snr",
    "write_tdc",
    "write_wav",
]
