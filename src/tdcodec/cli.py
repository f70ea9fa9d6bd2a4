"""Command-line front end: encode, decode, info, compare.

Exit codes: 0 success, 2 usage error, 3 I/O or format error, 4 target
SNR unreachable.

``encode`` supports two termination modes.  With ``--snr`` the pursuit
runs until it overshoots the target by ``--overshoot`` dB, then the
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

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import container, entropy, metrics, quantize
from .container import MultichannelSignal
from .dictionary import TrigDictionary
# The decoder synthesizes with TrigDictionary.synthesize; perfbench/spans.py
# still looks synthesize_block up on this module by name.
from .dictionary import synthesize_block  # noqa: F401
from .entropy import EntropyDecodeError
from .pursuit import PursuitResult, SelectionCriterion, hbw_pursuit, pursuit_to_snr
from .quantize import StreamError

__all__ = [
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

_CRITERIA = {
    "oomp": SelectionCriterion.OOMPML,
    "omp": SelectionCriterion.MMV_OMP,
    "somp": SelectionCriterion.SOMP,
}


class UsageError(Exception):
    pass


class TargetUnreachableError(Exception):
    def __init__(self, message: str, best_snr_db: float):
        super().__init__(message)
        self.best_snr_db = best_snr_db


@dataclass
class EncodeConfig:
    """Settings of one encode.

    ``threads`` asks for pursuit worker processes: each pursues its own
    share of the blocks, at most one per core and per block
    (``pursuit.worker_count``), and 1 pursues in this process.  The file
    does not depend on it.
    """

    input_path: str
    output_path: str
    block_size: int = 1024
    redundancy: int = 4
    criterion: SelectionCriterion = SelectionCriterion.OOMPML
    target_snr_db: float | None = None
    overshoot_db: float = 3.0
    delta: float | None = None
    budget: int | None = None
    threads: int = 1


def _check_modes(cfg: EncodeConfig):
    if cfg.target_snr_db is not None:
        if cfg.budget is not None or cfg.delta is not None:
            raise UsageError("--snr cannot be combined with --atoms or --delta")
    elif cfg.budget is None:
        if cfg.delta is not None:
            raise UsageError("--delta requires --atoms")
        raise UsageError("one of --snr or --atoms is required")
    elif cfg.budget < 0:
        raise UsageError("--atoms must be >= 0")
    if cfg.delta is not None and cfg.delta <= 0:
        raise UsageError("--delta must be positive")


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
    evaluation is one batched ``R @ E`` per atom count.  The last block is
    the exception: the decoder drops its padding, which breaks the
    orthogonality, so that one block is decoded exactly, through
    ``TrigDictionary.synthesize``.
    """

    def __init__(
        self,
        dico: TrigDictionary,
        result: PursuitResult,
        parted: container.PartitionedSignal,
    ):
        blocks, decs = parted.blocks, result.decompositions
        self.dico = dico
        self.signal_energy = float(sum(np.vdot(x, x) for x in blocks))
        self.residual_energy = float(result.residual_energies[:-1].sum())
        self.last_indices = decs[-1].indices
        self.last_samples = blocks[-1][: dico.block_size - parted.pad_length]
        counts = np.array([dec.atom_count for dec in decs[:-1]], dtype=np.int64)
        self.groups = []    # (stacked factors, their rows of coefs)
        coefs, row = [], 0
        for k in np.unique(counts[counts > 0]).tolist():
            qs = np.flatnonzero(counts == k)
            factors = np.stack([result.factors[q] for q in qs])
            self.groups.append((factors, slice(row, row + qs.size * k)))
            coefs += [decs[q].coefficients for q in qs]
            row += qs.size * k
        self.coefs = np.concatenate(coefs + [decs[-1].coefficients])
        self.last_row = row

    def max_coefficient(self) -> float:
        return float(np.abs(self.coefs).max()) if self.coefs.size else 0.0

    def snr(self, delta: float) -> float:
        decoded = delta * quantize.quantize_levels(self.coefs, delta)
        err = decoded - self.coefs
        energy = self.residual_energy
        for factors, rows in self.groups:
            e = factors @ err[rows].reshape(len(factors), -1, err.shape[1])
            energy += float(np.vdot(e, e))
        last = self.dico.synthesize([self.last_indices], [decoded[self.last_row :]])
        miss = self.last_samples - last[0, : len(self.last_samples)]
        energy += float(np.vdot(miss, miss))
        return metrics.snr_from_energies(self.signal_energy, energy)


def _tune_delta(model: _ErrorModel, target: float):
    """Bisection on log delta for a decoded SNR within the match tolerance.

    Decoded SNR is nonincreasing in delta, so the bracket endpoints keep
    the target between them; if quantization granularity ever breaks that
    ordering the search falls back to golden-section over the bracket.
    Among tolerable deltas, one that keeps SNR at or above the target is
    preferred.
    """
    max_c = model.max_coefficient()
    if max_c == 0.0:
        return 1.0, model.snr(1.0)
    lo = 1e-6
    hi = max(max_c, 2 * lo)
    evals = 0
    best_above = None   # (delta, snr) with snr >= target, closest to target
    best_any = None

    def measure(delta):
        nonlocal evals, best_above, best_any
        evals += 1
        value = model.snr(delta)
        if value >= target and (
            best_above is None or value - target < best_above[1] - target
        ):
            best_above = (delta, value)
        if best_any is None or abs(value - target) < abs(best_any[1] - target):
            best_any = (delta, value)
        return value

    snr_lo = measure(lo)
    snr_hi = measure(hi)
    if snr_lo < target - SNR_MATCH_TOL_DB:
        raise TargetUnreachableError(
            f"quantization floor {snr_lo:.2f} dB below target {target:.2f} dB",
            best_snr_db=snr_lo,
        )
    # rounding noise jitters the curve by well under a milli-dB; only a
    # violation at a meaningful scale abandons bisection
    slack = SNR_MATCH_TOL_DB / 10
    monotone = snr_lo >= snr_hi - slack
    while evals < DELTA_SEARCH_ITERS and monotone:
        if best_above is not None and best_above[1] - target <= SNR_MATCH_TOL_DB / 4:
            break
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
    if not monotone:
        # golden-section on |snr - target| over the remaining bracket
        phi = (math.sqrt(5) - 1) / 2
        a, b = math.log(lo), math.log(hi)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc = measure(math.exp(c))
        fd = measure(math.exp(d))
        while evals < DELTA_SEARCH_ITERS:
            if abs(fc - target) < abs(fd - target):
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = measure(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = measure(math.exp(d))
    for pick in (best_above, best_any):
        if pick is not None and abs(pick[1] - target) <= SNR_MATCH_TOL_DB:
            return pick
    raise TargetUnreachableError(
        f"delta search stalled at {best_any[1]:.3f} dB for target {target:.2f} dB",
        best_snr_db=best_any[1],
    )


def cmd_encode(cfg: EncodeConfig, out=sys.stdout) -> metrics.QualityReport:
    _check_modes(cfg)
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
    signal = container.read_wav(cfg.input_path)
    dico = TrigDictionary(cfg.block_size, (cfg.block_size * cfg.redundancy) // 2)
    parted = container.partition(signal, cfg.block_size)

    if cfg.target_snr_db is not None:
        if not signal.samples.any():
            raise TargetUnreachableError(
                "silent input has no SNR target to match", best_snr_db=float("-inf")
            )
        result = pursuit_to_snr(
            parted.blocks,
            dico,
            cfg.target_snr_db + cfg.overshoot_db,
            cfg.criterion,
            threads=cfg.threads,
        )
        if result.saturated and result.snr_db < cfg.target_snr_db:
            raise TargetUnreachableError(
                f"pursuit saturated at {result.snr_db:.2f} dB, "
                f"target {cfg.target_snr_db:.2f} dB",
                best_snr_db=result.snr_db,
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

    qset = quantize.serialize_decompositions(result.decompositions, delta)
    blob = container.write_tdc(
        qset,
        sample_rate=signal.sample_rate,
        original_length=signal.sample_count,
        block_size=cfg.block_size,
        half_size=dico.half_size,
    )
    with open(cfg.output_path, "wb") as fh:
        fh.write(blob)
    report = metrics.rate_report(
        len(blob), signal.sample_rate, signal.sample_count, snr_db=achieved
    )
    print(
        f"{cfg.output_path}: snr {report.snr_db:.2f} dB, "
        f"{report.file_bytes} bytes, {report.kbps:.2f} kbps, "
        f"{result.atom_count} atoms, delta {delta:.6g}",
        file=out,
    )
    return report


def _decode_samples(data: bytes):
    header, qset = container.read_tdc(data)
    dico = TrigDictionary(header.block_size, header.half_size)
    parsed = quantize.parse_streams(qset)
    # read_tdc keeps delta times every level finite, but a sum of atoms
    # can still overflow; such a file is refused, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = dico.synthesize(
            [idx for idx, _ in parsed],
            [header.delta * values.astype(float) for _, values in parsed],
        )
    if not np.isfinite(blocks).all():
        raise container.FormatError("decoded samples are not finite")
    pad = header.block_count * header.block_size - header.original_length
    parted = container.PartitionedSignal(blocks=blocks, pad_length=pad)
    return header, container.assemble(parted)


def cmd_decode(input_path: str, output_path: str) -> None:
    with open(input_path, "rb") as fh:
        data = fh.read()
    header, samples = _decode_samples(data)
    container.write_wav(
        output_path, MultichannelSignal(samples, header.sample_rate)
    )


def cmd_info(path: str, out=sys.stdout) -> container.TdcHeader:
    with open(path, "rb") as fh:
        data = fh.read()
    header, qset = container.read_tdc(data)
    parsed = quantize.parse_streams(qset)
    atom_counts = [len(idx) for idx, _ in parsed]
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
        f"mean atoms/block:   {np.mean(atom_counts):.2f}",
        f"delta:              {header.delta:.9g}",
        f"file size:          {len(data)} bytes ({report.kbps:.2f} kbps)",
    ]
    for i, rec in enumerate(header.stream_records):
        lanes = entropy.lane_count(rec.symbol_count)
        name = (
            "index"
            if i == 0
            else f"coeff[{i - 1}]"
            if i <= header.channel_count
            else f"sign[{i - 1 - header.channel_count}]"
        )
        coding = (
            "packed bits"
            if i > header.channel_count
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
    ref = container.read_wav(ref_path)
    rows = []
    for path in candidate_paths:
        if path.lower().endswith(".tdc"):
            with open(path, "rb") as fh:
                _, samples = _decode_samples(fh.read())
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcodec", description="Sparse trigonometric-dictionary audio codec"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a WAV file to .tdc")
    enc.add_argument("--in", dest="input", required=True)
    enc.add_argument("--out", dest="output", required=True)
    enc.add_argument("--snr", type=float, default=None, help="target SNR in dB")
    enc.add_argument("--atoms", type=int, default=None, help="total atom budget")
    enc.add_argument("--delta", type=float, default=None)
    enc.add_argument("--block", type=int, default=1024)
    enc.add_argument("--redundancy", type=int, default=4)
    enc.add_argument("--criterion", choices=sorted(_CRITERIA), default="oomp")
    enc.add_argument("--overshoot", type=float, default=3.0)
    enc.add_argument(
        "--threads", type=int, default=1,
        help="pursuit worker processes, at most one per core and per block "
        "(default 1: pursue in this process); the file does not depend on it",
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "encode":
            cfg = EncodeConfig(
                input_path=args.input,
                output_path=args.output,
                block_size=args.block,
                redundancy=args.redundancy,
                criterion=_CRITERIA[args.criterion],
                target_snr_db=args.snr,
                overshoot_db=args.overshoot,
                delta=args.delta,
                budget=args.atoms,
                threads=args.threads,
            )
            cmd_encode(cfg)
        elif args.command == "decode":
            cmd_decode(args.input, args.output)
        elif args.command == "info":
            cmd_info(args.path)
        elif args.command == "compare":
            cmd_compare(args.ref, args.candidates, csv_path=args.csv)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TargetUnreachableError as exc:
        print(f"target unreachable: {exc}", file=sys.stderr)
        return 4
    except (
        container.ContainerError,
        StreamError,
        EntropyDecodeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
