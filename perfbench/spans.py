"""Layer spans recorded by wrapping the codec's functions from outside.

``Tracer.installed()`` replaces each function in ``TARGETS`` on the
module or class that callers look it up through, records one ``Span``
per call, and puts the originals back on exit.  Spans are kept in memory;
``layer_metrics`` turns the spans of one encode and one decode into the
per-layer figures.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module under tdcodec, optional class, function); the span is named
# "<module>.<function>".
TARGETS = [
    ("pursuit", None, "rank_blocks"),
    ("pursuit", None, "accept_candidate"),
    ("pursuit", None, "select_candidate"),
    ("pursuit", None, "init_block_state"),
    ("pursuit", None, "compute_coefficients"),
    ("cli", None, "pursuit_to_snr"),
    ("cli", None, "hbw_pursuit"),
    ("cli", None, "synthesize_block"),
    ("dictionary", "TrigDictionary", "all_inner_products"),
    ("dictionary", "TrigDictionary", "atoms_matrix"),
    ("entropy", None, "arith_encode"),
    ("entropy", None, "arith_decode"),
    ("quantize", None, "serialize_decompositions"),
    ("quantize", None, "parse_streams"),
    ("metrics", None, "snr"),
    ("container", None, "read_wav"),
    ("container", None, "write_wav"),
    ("container", None, "partition"),
    ("container", None, "assemble"),
    ("container", None, "write_tdc"),
    ("container", None, "read_tdc"),
]

# What a span keeps of its call, for the counters that need more than timing.
_NOTES = {
    "pursuit.accept_candidate": lambda args, result: result,
    "entropy.arith_encode": lambda args, result: (args[0].symbols, len(result)),
    "entropy.arith_decode": lambda args, result: args[1],
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Span | None = None
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # A pool thread has no span of its own open; it works for the
        # thread that installed the tracer, so its spans hang below that.
        outer = stack or self._owner_stack
        s = Span(name, perf_counter(), parent=outer[-1] if outer else None)
        stack.append(s)
        try:
            yield s
        finally:
            stack.pop()
            s.end = perf_counter()
            self.spans.append(s)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if note is not None:
                s.note = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target of the imported codec; restore them on exit.

        A target that is not there raises KeyError or AttributeError, so a
        renamed or moved layer function stops the traced run instead of
        reading 0 s.
        """
        saved = []
        self._owner_stack = self._stack()
        try:
            for mod, cls, func in TARGETS:
                owner = sys.modules[f"tdcodec.{mod}"]
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, func)
                saved.append((owner, func, original))
                setattr(owner, func, self._wrap(f"{mod}.{func}", original))
            yield self
        finally:
            for owner, func, original in reversed(saved):
                setattr(owner, func, original)
            self._owner_stack = []


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children[s], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s] = s.end - s.start - covered
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s])
    return out


def order0_bytes(symbols) -> float:
    """Empirical order-0 entropy of a symbol stream, in bytes."""
    counts = np.unique(np.asarray(symbols), return_counts=True)[1]
    n = counts.sum()
    return float(-(counts * np.log2(counts / n)).sum() / 8) if n else 0.0


def layer_metrics(spans, encode: Span, decode: Span, channels: int) -> dict[str, float]:
    """Per-layer figures of one encode and one decode, from their spans.

    With a thread pool (``--threads``), the spans of the pool threads run
    side by side below one parent, so the self times they feed
    (``pursuit.init_s``, ``dictionary.panel_s``) are thread-seconds, not
    wall time.
    """
    enc = subtree(spans, encode)
    dec = subtree(spans, decode)
    both = enc + dec
    own = self_times(both)

    def named(group, name):
        return [s for s in group if s.name == name]

    def self_s(group, *names):
        return sum(own[s] for s in group if s.name in names)

    panels = named(enc, "dictionary.all_inner_products")
    accepts = named(enc, "pursuit.accept_candidate")
    steps = sum(1 for s in accepts if s.note is True)
    rejections = sum(1 for s in accepts if s.note is False)
    # accept_candidate computes one panel for the new atom on every step;
    # any further panel under it is a refresh of all channels.
    in_accept = sum(
        1 for s in panels if s.parent and s.parent.name == "pursuit.accept_candidate"
    )
    loops = named(enc, "cli.pursuit_to_snr") + named(enc, "cli.hbw_pursuit")
    serialize = named(enc, "quantize.serialize_decompositions")
    delta_search = serialize[0].start - loops[0].end if loops and serialize else 0.0

    # write_tdc codes the index stream, then L coefficient and L sign streams
    coded = {"index": 0, "coeff": 0, "sign": 0}
    entropy = dict.fromkeys(coded, 0.0)
    ordinal = Counter()
    encodes = sorted(named(enc, "entropy.arith_encode"), key=lambda s: s.start)
    for s in encodes:
        pos = ordinal[s.parent]
        ordinal[s.parent] += 1
        kind = "index" if pos == 0 else "coeff" if pos <= channels else "sign"
        symbols, nbytes = s.note
        coded[kind] += nbytes
        entropy[kind] += order0_bytes(symbols)
    enc_symbols = sum(len(s.note[0]) for s in encodes)
    dec_symbols = sum(s.note for s in named(dec, "entropy.arith_decode"))
    encode_s = self_s(enc, "entropy.arith_encode")
    decode_s = self_s(dec, "entropy.arith_decode")

    out = {
        "dictionary.panel_calls": len(panels),
        "dictionary.panel_s": self_s(both, "dictionary.all_inner_products"),
        "dictionary.atoms_matrix_calls": len(named(both, "dictionary.atoms_matrix")),
        "dictionary.atoms_matrix_s": self_s(both, "dictionary.atoms_matrix"),
        "dictionary.synth_s": self_s(dec, "cli.synthesize_block"),
        "pursuit.steps": steps,
        "pursuit.rejections": rejections,
        "pursuit.accept_ok_ratio": steps / max(len(accepts), 1),
        "pursuit.panel_refreshes": (in_accept - steps) / channels,
        "pursuit.accept_s": self_s(enc, "pursuit.accept_candidate"),
        "pursuit.rank_s": self_s(enc, "pursuit.rank_blocks"),
        "pursuit.select_s": self_s(enc, "pursuit.select_candidate"),
        "pursuit.init_s": self_s(enc, "pursuit.init_block_state"),
        "pursuit.coef_s": self_s(enc, "pursuit.compute_coefficients"),
        "pursuit.loop_s": self_s(enc, "cli.pursuit_to_snr", "cli.hbw_pursuit"),
        "cli.delta_evals": len(named(enc, "metrics.snr")),
        "cli.delta_search_s": delta_search,
        "metrics.snr_s": self_s(both, "metrics.snr"),
        "quantize.serialize_s": self_s(enc, "quantize.serialize_decompositions"),
        "quantize.parse_s": self_s(dec, "quantize.parse_streams"),
        "quantize.symbols": enc_symbols,
        "entropy.encode_s": encode_s,
        "entropy.decode_s": decode_s,
        "entropy.encode_ksym_per_s": enc_symbols / encode_s / 1e3 if encode_s else 0.0,
        "entropy.decode_ksym_per_s": dec_symbols / decode_s / 1e3 if decode_s else 0.0,
        "container.write_tdc_s": self_s(enc, "container.write_tdc"),
        "container.read_tdc_s": self_s(dec, "container.read_tdc"),
        "container.read_wav_s": self_s(both, "container.read_wav"),
        "container.write_wav_s": self_s(both, "container.write_wav"),
        "container.partition_s": self_s(both, "container.partition"),
        "container.assemble_s": self_s(both, "container.assemble"),
    }
    for kind in coded:
        out[f"entropy.{kind}_bytes"] = coded[kind]
        out[f"entropy.{kind}_overhead"] = (
            coded[kind] / entropy[kind] if entropy[kind] else 0.0
        )
    return out
