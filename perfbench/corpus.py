"""Deterministic synthetic test signals, generated from a seed.

The generators use numpy only, never the codec, so a change to the codec
cannot change its own inputs.  Both return float samples of shape
``(n, channels)`` peak-normalised to 0.7, ready for a 16-bit WAV.
"""

from __future__ import annotations

import numpy as np

RATE = 44100


def _trig_atom(n: int, nb: int, m: int) -> np.ndarray:
    """Unit-norm atom ``n`` (1-based) of the cosine+sine dictionary."""
    odd = 2 * np.arange(1, nb + 1) - 1
    if n <= m:
        v = np.cos(np.pi * (n - 1) * odd / (2 * m))
    else:
        v = np.sin(np.pi * (n - m) * odd / (2 * m))
    return v / np.linalg.norm(v)


def melodic_signal(seed: int, *, seconds: float) -> np.ndarray:
    """Stereo; per 1024-sample block, 5 shared random atoms plus noise at -40 dB.

    Both channels use the same atoms with their own coefficients, so the
    signal is exactly sparse in the codec's redundancy-4 dictionary apart
    from the noise.
    """
    nb, per_block, channels = 1024, 5, 2
    rng = np.random.default_rng(seed)
    m = 2 * nb
    n = int(round(seconds * RATE))
    q = -(-n // nb)
    parts = []
    for _ in range(q):
        idx = rng.choice(np.arange(1, 2 * m + 1), size=per_block, replace=False)
        coef = rng.normal(size=(per_block, channels)) * 0.2
        atoms = np.stack([_trig_atom(int(k), nb, m) for k in idx])
        parts.append(atoms.T @ coef)
    clean = np.vstack(parts)[:n]
    rms = float(np.sqrt(np.mean(clean**2)))
    noisy = clean + 10 ** (-40 / 20) * rms * rng.normal(size=clean.shape)
    return noisy * (0.7 / np.abs(noisy).max())


def _pitches(rng, count: int) -> list[int]:
    """Semitones in [0, 36), one from each of ``count`` equal strata.

    Stratifying keeps the pitch spread, and with it the atom count and
    rate, nearly the same for every seed; the seed picks the order and
    the semitone within each stratum.
    """
    edges = np.linspace(0, 36, count + 1).astype(int)
    picks = [int(rng.integers(lo, max(hi, lo + 1))) for lo, hi in zip(edges, edges[1:])]
    return [picks[i] for i in rng.permutation(count)]


def harmonic_signal(seed: int, *, seconds: float, channels: int = 2) -> np.ndarray:
    """Decaying harmonic notes on a semitone grid, dense in every block.

    A note starts every 0.25 s at f0 = 110 * 2**(u/12) with integer u
    drawn from [0, 36), and rings to the end of the clip with 8 harmonics
    of amplitude 1/h and envelope exp(-3 t).  Channel c is shifted in
    phase by 0.3 c rad; white noise of standard deviation 1e-3 is added.
    """
    rng = np.random.default_rng(seed)
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    out = np.zeros((n, channels))
    h = np.arange(1, 9)
    phase = 0.3 * np.arange(channels)
    onsets = np.arange(0.0, seconds, 0.25)
    for onset, u in zip(onsets, _pitches(rng, len(onsets))):
        f0 = 110.0 * 2.0 ** (u / 12)
        start = int(round(onset * RATE))
        tt = t[start:] - t[start]
        env = np.exp(-3.0 * tt)
        for hh in h:
            arg = 2 * np.pi * hh * f0 * tt
            out[start:] += (env / hh)[:, None] * np.sin(arg[:, None] + phase)
    out += 1e-3 * rng.normal(size=out.shape)
    return out * (0.7 / np.abs(out).max())
