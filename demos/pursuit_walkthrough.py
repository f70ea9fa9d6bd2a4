#!/usr/bin/env python3
"""Watch the block-wise pursuit spend its atom budget where it pays most.

A three-block stereo signal gets progressively approximated: at every step
the block whose best candidate atom removes the most residual energy wins
the upgrade, so blocks with more structure soak up more atoms.

Run:  python demos/pursuit_walkthrough.py
"""

import numpy as np

from tdcodec import (
    SelectionCriterion,
    TrigDictionary,
    hbw_pursuit,
    pursuit_to_snr,
    snr,
)


def make_blocks(d, rng):
    """Block 0: rich (6 atoms), block 1: simple (2 atoms), block 2: near-silence."""
    layout = [(6, 1.0), (2, 1.0), (0, 0.0)]
    blocks = []
    for n_atoms, level in layout:
        block = 1e-4 * rng.normal(size=(d.block_size, 2))
        idx = rng.choice(np.arange(1, d.num_atoms + 1), size=n_atoms, replace=False)
        for n in idx:
            block += level * np.outer(d.atom(n), rng.normal(size=2))
        blocks.append(block)
    return blocks


def main():
    rng = np.random.default_rng(42)
    d = TrigDictionary(64)
    blocks = make_blocks(d, rng)

    print("atom budget sweep (atoms per block):")
    for budget in (2, 4, 8, 12):
        res = hbw_pursuit(blocks, d, budget, SelectionCriterion.OOMPML)
        counts = res.atoms.counts.tolist()
        rec = np.vstack(d.synthesize(res.atoms))
        quality = snr(np.vstack(blocks), rec)
        print(f"  K={budget:>2}  ->  {counts}   snr {quality:6.2f} dB")

    print("\ngrow until the approximation reaches 60 dB:")
    res = pursuit_to_snr(blocks, d, 60.0)
    print(f"  reached {res.snr_db:.2f} dB with {res.atom_count} atoms")
    marks = np.linspace(0, res.atom_count - 1, 6, dtype=int)
    for k in marks:
        print(f"    after {k + 1:>2} atoms: {res.snr_trace[k]:6.2f} dB")
    counts = res.atoms.counts.tolist()
    print(f"  final allocation: {counts}  (rich block first, silence last)")


if __name__ == "__main__":
    main()
