"""``encode`` and ``decode``, and the command line over them: encode, decode,
info, compare.  ``encode(signal, cfg)`` returns a ``.tdc`` file's bytes and a
``QualityReport``, ``decode(data)`` a ``MultichannelSignal``; neither opens a file.

Exit codes: 0 success, 2 usage error, 3 I/O or format error or not enough
memory (in this process or in a pursuit worker, at every ``--threads``),
4 target SNR unreachable.

The ``encode`` flags parse into an ``EncodeConfig``, one field each (``--in``
is ``input_path``, ``--snr`` ``target_snr_db``, ``--atoms`` ``budget``,
``--block`` ``block_size``), and a flag left out keeps the field's default.
The settings are checked before the WAV is read.

``encode`` supports two termination modes.  With ``--snr``, a positive
target in dB (a decode of silence already reaches 0 dB), the pursuit
runs until it overshoots the target by ``OVERSHOOT_DB`` (3 dB), then the
quantization step is tuned by bisection on ``log delta`` until the
decoded SNR matches the target within 0.05 dB.  With ``--atoms`` the
pursuit spends a fixed atom budget and ``--delta`` (default ``1e-8``,
i.e. near-lossless quantization of the decomposition) is used as given.

Neither mode decodes the whole clip to measure its SNR: the decoded error
energy of a block is its residual energy plus ``|R E|^2``, with ``R`` the
pursuit's own triangular factor of the block's atoms and ``E`` the
coefficients' quantization errors (``_ErrorModel``).  Each delta the
search tries costs a few batched products and one block of synthesis.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from . import container, entropy, metrics, quantize
from .container import MultichannelSignal
from .dictionary import AtomTable, TrigDictionary
# The decoder synthesizes with TrigDictionary.synthesize; perfbench/spans.py
# still looks synthesize_block up on this module by name.
from .dictionary import synthesize_block  # noqa: F401
from .pursuit import PursuitResult, SelectionCriterion, hbw_pursuit, pursuit_to_snr

__all__ = [
    "encode",
    "decode",
    "EncodeConfig",
    "UsageError",
    "TargetUnreachableError",
    "cmd_encode",
    "cmd_decode",
    "cmd_info",
    "cmd_compare",
    "main",
    "console_main",
]

SNR_MATCH_TOL_DB = 0.05
DELTA_SEARCH_ITERS = 40
DEFAULT_BUDGET_DELTA = 1e-8
# the pursuit's margin over an --snr target, which leaves room for quantization
OVERSHOOT_DB = 3.0

class UsageError(Exception):
    pass


class TargetUnreachableError(Exception):
    pass


@dataclass
class EncodeConfig:
    """Settings of one encode; only ``cmd_encode`` reads the two paths.

    ``threads`` asks for pursuit worker processes: each pursues its own
    share of the blocks, at most one per usable core and per block
    (``pursuit.worker_count``), and 1 pursues in this process.  The file
    does not depend on it.
    """

    input_path: str | None = None
    output_path: str | None = None
    block_size: int = 1024
    redundancy: int = 4
    criterion: SelectionCriterion = SelectionCriterion.OOMPML
    target_snr_db: float | None = None
    delta: float | None = None
    budget: int | None = None
    threads: int = 1


# the settings that argparse parses as int and as float
_SETTING_TYPES = ((int, "an int", ("block_size", "redundancy", "budget", "threads")),
                  (Real, "a real number", ("target_snr_db", "delta")))


def _check_config(cfg: EncodeConfig):
    for kind, what, names in _SETTING_TYPES:
        for name in names:
            value = getattr(cfg, name)
            if value is None and getattr(EncodeConfig, name) is None:
                continue   # a flag left out
            if isinstance(value, bool) or not isinstance(value, kind):
                raise UsageError(f"{name} must be {what}, not {value!r}")
    if cfg.target_snr_db is not None:
        if cfg.budget is not None or cfg.delta is not None:
            raise UsageError("--snr cannot be combined with --atoms or --delta")
    elif cfg.budget is None:
        if cfg.delta is not None:
            raise UsageError("--delta requires --atoms")
        raise UsageError("one of --snr or --atoms is required")
    elif cfg.budget < 0:
        raise UsageError("--atoms must be >= 0")
    # a decode of silence already reaches 0 dB
    if cfg.target_snr_db is not None and not 0 < cfg.target_snr_db < math.inf:
        raise UsageError("--snr must be positive and finite")
    if cfg.delta is not None and not 0 < cfg.delta < math.inf:
        raise UsageError("--delta must be positive and finite")
    if not isinstance(cfg.criterion, SelectionCriterion):
        raise UsageError(f"criterion {cfg.criterion!r} is not a SelectionCriterion")
    if cfg.redundancy < 2:
        raise UsageError("--redundancy must be >= 2")
    if not 2 <= cfg.block_size <= container.MAX_BLOCK_SIZE:
        raise UsageError(f"--block must be between 2 and {container.MAX_BLOCK_SIZE}")
    if cfg.block_size * cfg.redundancy // 2 > container.MAX_HALF_SIZE:
        raise UsageError(
            f"--block x --redundancy / 2 must be at most {container.MAX_HALF_SIZE}"
        )
    if cfg.threads < 1:
        raise UsageError("--threads must be >= 1")


class _ErrorModel:
    """Decoded error energy of one encode as a function of ``delta``.

    The pursuit leaves block ``q`` with atoms ``A_q^T = W_q^T R_q``: the
    rows of ``W_q`` are orthonormal, ``R_q`` is their triangular factor,
    and the unquantized residual ``r_q`` is orthogonal to every row.  With
    the float coefficients ``C_q`` and the quantization error
    ``E_q = delta * levels - C_q``, the block decodes to
    ``x_q - r_q + W_q^T R_q E_q``, so its error energy is

        |r_q|^2 + |R_q E_q|^2.

    Set-up stacks the factors of blocks with equal atom count, and each
    evaluation gathers their rows of ``E`` for one batched ``R @ E`` per
    atom count.  The last block is
    the exception: the decoder drops its padding, which breaks the
    orthogonality, so that one block is decoded exactly, through the
    decoder's own ``_reconstruct``.
    """

    def __init__(
        self,
        dico: TrigDictionary,
        result: PursuitResult,
        parted: container.PartitionedSignal,
    ):
        blocks, atoms = parted.blocks, result.atoms
        self.dico = dico
        self.signal_energy = float(sum(np.vdot(x, x) for x in blocks))
        self.residual_energy = float(result.residual_energies[:-1].sum())
        self.coefs = atoms.values
        counts, starts = atoms.counts[:-1], np.cumsum(atoms.counts) - atoms.counts
        self.last_row = int(starts[-1])
        self.last_indices = atoms.indices[self.last_row :]
        self.last_samples = blocks[-1][: dico.block_size - parted.pad_length]
        self.groups = []    # (stacked factors, their (blocks, k) rows of coefs)
        for k in np.unique(counts[counts > 0]).tolist():
            qs = np.flatnonzero(counts == k)
            factors = np.stack([result.factors[q] for q in qs])
            self.groups.append((factors, starts[qs, None] + np.arange(k)))

    def max_coefficient(self) -> float:
        return float(np.abs(self.coefs).max())

    def snr(self, delta: float) -> float:
        levels = quantize.quantize_levels(self.coefs, delta)
        err = delta * levels - self.coefs
        energy = self.residual_energy
        for factors, rows in self.groups:
            e = factors @ err[rows]
            energy += float(np.vdot(e, e))
        last = AtomTable([self.last_indices.size], self.last_indices, levels[self.last_row :])
        miss = self.last_samples - _reconstruct(self.dico, last, delta, len(self.last_samples))
        energy += float(np.vdot(miss, miss))
        return metrics.snr_from_energies(self.signal_energy, energy)


def _tune_delta(model: _ErrorModel, target: float):
    """Bisection on log delta for a decoded SNR within the match tolerance.

    The bracket's bottom starts at ``1e-6``; while the SNR there misses
    the target, it drops tenfold, as long as the levels still fit an
    int64.  Its top is ``max |c|``, or ``4 max |c|`` (every level 0, a
    decode at 0 dB) where the SNR falls from the bottom to a top still
    above the target.  Decoded SNR is nonincreasing in delta, so the bracket
    endpoints keep the target between them; if quantization granularity
    ever breaks that ordering the search falls back to golden-section
    over the bracket.  It does on ``tests/test_cli.py``'s ``wav_in`` clip
    at 25 dB (83 atoms), where the golden section reaches 24.996 dB and
    bisection alone stalls at 24.904 dB, or at 25.154 dB if it stops where
    the ordering breaks.  Either search stops once a tried delta keeps SNR
    at most a quarter of the tolerance above the target, or after
    ``DELTA_SEARCH_ITERS`` evaluations.  Among tolerable deltas, one
    that keeps SNR at or above the target is preferred.
    """
    max_c = model.max_coefficient()   # > 0: a positive target takes an atom
    tried = []   # (delta, snr) of every evaluation

    def measure(delta):
        tried.append((delta, model.snr(delta)))
        return tried[-1][1]

    def searching():
        return len(tried) < DELTA_SEARCH_ITERS and not any(
            0 <= snr - target <= SNR_MATCH_TOL_DB / 4 for _, snr in tried)

    lo = 1e-6
    hi = max(max_c, 2 * lo)
    snr_lo = measure(lo)
    snr_hi = measure(hi)
    # rounding noise jitters the curve by well under a milli-dB; only a
    # violation at a meaningful scale abandons bisection
    slack = SNR_MATCH_TOL_DB / 10
    if target < snr_hi < snr_lo - slack:
        # the SNR still falls at max |c| and the target lies past it: at
        # 4 max |c| every level is 0 and the decode is silence, at 0 dB
        hi = 4 * max_c
        snr_hi = measure(hi)
    # quantize_levels refuses a level of 2**63: stop a margin of 2 short of it
    while snr_lo < target - SNR_MATCH_TOL_DB and 10 * max_c / lo < 2.0**62:
        lo /= 10
        snr_lo = measure(lo)
    if snr_lo < target - SNR_MATCH_TOL_DB:
        raise TargetUnreachableError(
            f"quantization floor {snr_lo:.2f} dB below target {target:.2f} dB"
        )
    monotone = snr_lo >= snr_hi - slack
    while monotone and searching():
        mid = math.sqrt(lo * hi)
        if not (lo < mid < hi):
            break
        val = measure(mid)
        if val > snr_lo + slack or val < snr_hi - slack:
            monotone = False
            break
        if val >= target:
            lo, snr_lo = mid, val
        else:
            hi, snr_hi = mid, val
    if not monotone and searching():
        # golden-section on |snr - target| over the remaining bracket
        phi = (math.sqrt(5) - 1) / 2
        a, b = math.log(lo), math.log(hi)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc = measure(math.exp(c))
        fd = measure(math.exp(d))
        while searching():
            if abs(fc - target) < abs(fd - target):
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = measure(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = measure(math.exp(d))

    def gap(pick):
        return abs(pick[1] - target)

    closest = min(tried, key=gap)   # min keeps the earliest of equal gaps
    above = min((t for t in tried if t[1] >= target), key=gap, default=closest)
    for pick in (above, closest):
        if gap(pick) <= SNR_MATCH_TOL_DB:
            return pick
    raise TargetUnreachableError(
        f"delta search stalled at {closest[1]:.3f} dB for target {target:.2f} dB"
    )


def encode(signal: MultichannelSignal,
           cfg: EncodeConfig) -> tuple[bytes, metrics.QualityReport]:
    """The bytes of the ``.tdc`` file of ``signal`` and their ``QualityReport``."""
    _check_config(cfg)
    container._check_rate(signal.sample_rate)
    container._check_samples(signal.samples)
    dico = TrigDictionary(cfg.block_size, (cfg.block_size * cfg.redundancy) // 2)
    parted = container.partition(signal, cfg.block_size)

    if cfg.target_snr_db is not None:
        if not signal.samples.any():
            raise TargetUnreachableError("silent input has no SNR target to match")
        result = pursuit_to_snr(
            parted.blocks,
            dico,
            cfg.target_snr_db + OVERSHOOT_DB,
            cfg.criterion,
            threads=cfg.threads,
        )
        if result.saturated and result.snr_db < cfg.target_snr_db:
            raise TargetUnreachableError(
                f"pursuit saturated at {result.snr_db:.2f} dB, "
                f"target {cfg.target_snr_db:.2f} dB"
            )
        model = _ErrorModel(dico, result, parted)
        delta, achieved = _tune_delta(model, cfg.target_snr_db)
    else:
        result = hbw_pursuit(
            parted.blocks, dico, cfg.budget, cfg.criterion, threads=cfg.threads
        )
        delta = cfg.delta if cfg.delta is not None else DEFAULT_BUDGET_DELTA
        achieved = (
            _ErrorModel(dico, result, parted).snr(delta)
            if signal.samples.any()
            else float("nan")
        )

    qset = quantize.serialize_decompositions(result.atoms, delta)
    blob = container.write_tdc(
        qset,
        sample_rate=signal.sample_rate,
        original_length=signal.sample_count,
        block_size=cfg.block_size,
        half_size=dico.half_size,
    )
    report = metrics.rate_report(
        len(blob), signal.sample_rate, signal.sample_count, snr_db=achieved
    )
    return blob, replace(report, atoms=result.atom_count, delta=delta)


def cmd_encode(cfg: EncodeConfig, out=sys.stdout) -> metrics.QualityReport:
    _check_config(cfg)   # before the WAV is read
    blob, report = encode(container.read_wav(cfg.input_path), cfg)
    with open(cfg.output_path, "wb") as fh:
        fh.write(blob)
    print(
        f"{cfg.output_path}: snr {report.snr_db:.2f} dB, "
        f"{report.file_bytes} bytes, {report.kbps:.2f} kbps, "
        f"{report.atoms} atoms, delta {report.delta:.6g}",
        file=out,
    )
    return report


def _reconstruct(dico: TrigDictionary, levels: AtomTable, delta: float,
                 length: int) -> np.ndarray:
    """The first ``length`` samples that ``delta`` times a table of levels
    decodes to: the decoder's output and the delta search's last block."""
    # read_tdc keeps delta times every level finite, but a sum of atoms
    # can still overflow; such a file is refused, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = dico.synthesize(AtomTable(levels.counts, levels.indices,
                                           delta * levels.values.astype(float)))
    if not np.isfinite(blocks).all():
        raise container.FormatError("decoded samples are not finite")
    return blocks.reshape(-1, blocks.shape[-1])[:length]


def decode(data: bytes) -> MultichannelSignal:
    """The signal that the bytes of a ``.tdc`` file decode to."""
    header, qset = container.read_tdc(data)
    dico = TrigDictionary(header.block_size, header.half_size)
    levels = quantize.parse_streams(qset)
    samples = _reconstruct(dico, levels, header.delta, header.original_length)
    return MultichannelSignal(samples, header.sample_rate)


def cmd_decode(input_path: str, output_path: str) -> None:
    with open(input_path, "rb") as fh:
        data = fh.read()
    container.write_wav(output_path, decode(data))


def cmd_info(path: str, out=sys.stdout) -> container.TdcHeader:
    with open(path, "rb") as fh:
        data = fh.read()
    header, _ = container.read_tdc(data)
    report = metrics.rate_report(
        len(data), header.sample_rate, header.original_length
    )
    lines = [
        f"container version:  {header.version}",
        f"sample rate:        {header.sample_rate} Hz",
        f"channels:           {header.channel_count}",
        f"samples/channel:    {header.original_length}",
        f"duration:           {report.duration_s:.3f} s",
        f"block size:         {header.block_size}",
        f"half size:          {header.half_size}",
        f"blocks:             {header.block_count}",
        f"total atoms:        {header.total_atoms}",
        f"mean atoms/block:   {header.total_atoms / header.block_count:.2f}",
        f"delta:              {header.delta:.9g}",
        f"file size:          {len(data)} bytes ({report.kbps:.2f} kbps)",
    ]
    # the container's stream order
    channels = range(header.channel_count)
    names = ["index", *(f"coeff[{j}]" for j in channels), *(f"sign[{j}]" for j in channels)]
    for name, rec in zip(names, header.stream_records, strict=True):
        lanes = entropy.lane_count(rec.symbol_count)
        coding = (
            "packed bits"
            if name.startswith("sign")
            else f"rANS, {lanes} lane{'s' * (lanes != 1)}, "
            "bit-length buckets + bypass bits"
        )
        lines.append(
            f"stream {name}: {coding}, bound {rec.alphabet_bound}, "
            f"{rec.symbol_count} symbols, {rec.byte_length} bytes"
        )
    print("\n".join(lines), file=out)
    return header


def cmd_compare(
    ref_path: str, candidate_paths: list[str], csv_path: str | None = None,
    out=sys.stdout,
):
    import csv

    ref = container.read_wav(ref_path)
    rows = []
    for path in candidate_paths:
        if path.lower().endswith(".tdc"):
            with open(path, "rb") as fh:
                samples = decode(fh.read()).samples
        else:
            samples = container.read_wav(path).samples
        if samples.shape != ref.samples.shape:
            raise container.FormatError(
                f"{path}: length/channel mismatch with reference "
                f"({samples.shape} vs {ref.samples.shape})"
            )
        snr_db = metrics.snr(ref.samples, samples)
        nbytes = os.path.getsize(path)
        report = metrics.rate_report(nbytes, ref.sample_rate, ref.sample_count)
        rows.append((os.path.basename(path), snr_db, nbytes, report.kbps))

    width = max((len(r[0]) for r in rows), default=4)
    print(f"{'name':<{width}}  {'snr_db':>8}  {'bytes':>10}  {'kbps':>9}", file=out)
    for name, snr_db, nbytes, kbps in rows:
        print(f"{name:<{width}}  {snr_db:8.2f}  {nbytes:10d}  {kbps:9.2f}", file=out)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "snr_db", "bytes", "kbps"])
            for name, snr_db, nbytes, kbps in rows:
                writer.writerow([name, f"{snr_db:.6f}", nbytes, f"{kbps:.6f}"])
    return rows


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="tdcodec", description="Sparse trigonometric-dictionary audio codec"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a WAV file to .tdc",
                         argument_default=argparse.SUPPRESS)
    enc.add_argument("--in", dest="input_path", required=True)
    enc.add_argument("--out", dest="output_path", required=True)
    enc.add_argument("--snr", dest="target_snr_db", type=float, help="target SNR in dB")
    enc.add_argument("--atoms", dest="budget", type=int, help="total atom budget")
    enc.add_argument("--delta", type=float)
    enc.add_argument("--block", dest="block_size", type=int)
    enc.add_argument("--redundancy", type=int)
    enc.add_argument(
        "--criterion", type=SelectionCriterion,
        metavar="{" + ",".join(sorted(c.value for c in SelectionCriterion)) + "}",
    )
    enc.add_argument(
        "--threads", type=int,
        help=f"pursuit worker processes (default {EncodeConfig.threads}: in this process), "
        "at most one per usable core and per block; the file does not depend on it",
    )

    dec = sub.add_parser("decode", help="decode a .tdc file to WAV")
    dec.add_argument("--in", dest="input", required=True)
    dec.add_argument("--out", dest="output", required=True)

    info = sub.add_parser("info", help="print container header and stream sizes")
    info.add_argument("path")

    cmp_ = sub.add_parser("compare", help="SNR/rate table against a reference WAV")
    cmp_.add_argument("--ref", required=True)
    cmp_.add_argument("candidates", nargs="+")
    cmp_.add_argument("--csv", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = args.pop("command")
    try:
        if command == "encode":
            cmd_encode(EncodeConfig(**args))
        elif command == "decode":
            cmd_decode(args["input"], args["output"])
        elif command == "info":
            cmd_info(args["path"])
        elif command == "compare":
            cmd_compare(args["ref"], args["candidates"], csv_path=args["csv"])
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TargetUnreachableError as exc:
        print(f"target unreachable: {exc}", file=sys.stderr)
        return 4
    except (container.ContainerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: not enough memory to {command}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
