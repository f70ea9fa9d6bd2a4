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

A module is imported the first time one of its names is used (PEP 562):
``import tdcodec.dictionary`` loads that module alone, and ``tdcodec.encode``
loads the whole codec.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the names of __all__ that it exports
_EXPORTS = {
    "cli": ("EncodeConfig", "decode", "encode"),
    "container": (
        "BadMagicError",
        "ChecksumError",
        "ContainerError",
        "FormatError",
        "MultichannelSignal",
        "UnsupportedVersionError",
        "read_wav",
        "write_wav",
    ),
    "dictionary": ("AtomTable", "TrigDictionary"),
    "entropy": ("EntropyDecodeError",),
    "metrics": ("SNR_CAP_DB", "QualityReport", "snr"),
    "pursuit": ("PursuitResult", "SelectionCriterion", "hbw_pursuit", "pursuit_to_snr"),
    "quantize": (),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")   # binds the package attribute
    if name in _OWNERS:
        value = getattr(_import_module(f"{__name__}.{_OWNERS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNERS})
