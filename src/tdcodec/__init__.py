"""tdcodec: lossy multichannel audio codec built on sparse approximation.

The pipeline: partition the signal into blocks, approximate all channels
of each block simultaneously over a redundant trigonometric dictionary
(greedy pursuit with global block ranking), uniformly quantize the
coefficients, delta-code the sorted atom indices, entropy-code indices
and magnitudes as bit-length buckets with interleaved rANS plus raw
bypass bits, pack the sign bits, and wrap everything in a checksummed
.tdc container.

The pursuit's block-level steps (``BlockState``, ``init_block_state``,
``select_candidate``, ``accept_candidate``, ``rank_blocks``,
``compute_coefficients``), ``synthesize_block`` and the entropy coder
(``SymbolStream``, ``arith_encode``, ``arith_decode``) stay importable
from here and from their modules, but are not part of ``__all__``.
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
from .dictionary import TrigDictionary, synthesize_block
from .entropy import EntropyDecodeError, SymbolStream, arith_decode, arith_encode
from .metrics import SNR_CAP_DB, QualityReport, rate_report, snr
from .pursuit import (
    AtomicDecomposition,
    BlockState,
    PursuitResult,
    SelectionCriterion,
    accept_candidate,
    compute_coefficients,
    hbw_pursuit,
    init_block_state,
    pursuit_to_snr,
    rank_blocks,
    select_candidate,
)
from .quantize import (
    QuantizedBlockSet,
    StreamError,
    parse_streams,
    serialize_decompositions,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicDecomposition",
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
