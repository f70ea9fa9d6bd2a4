"""Quality (SNR) and rate (kbps) reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SNR_CAP_DB", "QualityReport", "snr", "snr_from_energies", "rate_report"]

SNR_CAP_DB = 200.0
_RESIDUAL_FLOOR = 1e-20


@dataclass
class QualityReport:
    snr_db: float
    file_bytes: int
    duration_s: float
    kbps: float
    atoms: int | None = None     # an encode's atom count and step
    delta: float | None = None


def snr_from_energies(signal_energy: float, residual_energy: float) -> float:
    """SNR in dB; capped at ``SNR_CAP_DB`` for residuals at the noise floor."""
    if signal_energy <= 0:
        raise ValueError("zero signal has no SNR")
    if residual_energy <= _RESIDUAL_FLOOR * signal_energy:
        return SNR_CAP_DB
    return float(10.0 * np.log10(signal_energy / residual_energy))


def _as_samples(x) -> np.ndarray:
    return np.asarray(getattr(x, "samples", x), dtype=float)


def snr(original, recovered) -> float:
    """``10 log10`` of total signal energy over total residual energy."""
    o = _as_samples(original)
    r = _as_samples(recovered)
    if o.shape != r.shape:
        raise ValueError(f"shape mismatch: {o.shape} vs {r.shape}")
    return snr_from_energies(float(np.sum(o * o)), float(np.sum((o - r) ** 2)))


def rate_report(
    file_bytes: int, sample_rate: int, sample_count: int, snr_db: float = float("nan")
) -> QualityReport:
    if file_bytes < 0 or sample_rate <= 0 or sample_count <= 0:
        raise ValueError("rate_report needs positive sizes")
    duration = sample_count / sample_rate
    return QualityReport(
        snr_db=snr_db,
        file_bytes=int(file_bytes),
        duration_s=duration,
        kbps=8.0 * file_bytes / 1000.0 / duration,
    )
