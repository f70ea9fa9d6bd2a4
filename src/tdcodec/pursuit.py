"""Simultaneous multichannel greedy pursuit over a partitioned signal.

All channels of a block share one set of selected atoms with per-channel
coefficients.  Within a block, candidate atoms are picked by one of three
selection criteria; across blocks, each step upgrades the single block
whose candidate yields the largest drop of the total residual energy
(the hierarchized block-wise strategy).  Every block keeps its
candidate's gain, and the loop keeps those gains in one vector, so
ranking is one ``argmax`` and a step rewrites a single entry.

The selected subspace of a block is tracked by Gram-Schmidt with
re-orthogonalization: the orthonormal vectors are the rows of ``w`` and
the triangular factor ``r[i, k] = <w_i, d_k>`` of the selected atoms
``d_k`` sits beside it, both in arrays that double in capacity as atoms
arrive.  The biorthogonal dual ``r^-1 w`` is never updated per step;
the coefficients solve ``r c = w f`` once per finished block, and the
dual itself is only derived on request (``BlockState.bior``).

Inner products against every dictionary atom are cached per channel as a
full panel and updated incrementally on each acceptance; panels are
recomputed from the residual every ``REFRESH_INTERVAL`` acceptances to
bound drift.  The first panels of all blocks come from batched FFTs, one
call per chunk of blocks, bit-identical to one block's own.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dictionary import FFT_CHUNK_BINS, TrigDictionary
from .metrics import SNR_CAP_DB, snr_from_energies

__all__ = [
    "SelectionCriterion",
    "BlockState",
    "AtomicDecomposition",
    "PursuitResult",
    "init_block_state",
    "select_candidate",
    "rank_blocks",
    "accept_candidate",
    "compute_coefficients",
    "hbw_pursuit",
    "pursuit_to_snr",
]

DEPENDENCY_FLOOR = 1e-10   # atoms with 1 - S_n at or below this are in-span
ORTHO_TOL = 1e-10
REFRESH_INTERVAL = 32
INITIAL_CAPACITY = 8       # rows of ``w`` before the first doubling


class SelectionCriterion(Enum):
    """Per-block atom selection rule."""

    SOMP = "somp"          # maximize sum_j |<d, r_j>|
    MMV_OMP = "mmv_omp"    # maximize sum_j |<d, r_j>|^2
    OOMPML = "oompml"      # maximize sum_j |<d, r_j>|^2 / (1 - S_n)


@dataclass
class AtomicDecomposition:
    """Shared atom indices (selection order, 1-based) and (k, L) coefficients."""

    indices: np.ndarray
    coefficients: np.ndarray

    @property
    def atom_count(self) -> int:
        return int(self.indices.size)


@dataclass
class BlockState:
    """Mutable pursuit state of a single block."""

    block: np.ndarray                 # (N_b, L) original samples
    residual: np.ndarray              # (N_b, L)
    res_ip: np.ndarray                # (2M, L) atom/residual inner products
    s_sums: np.ndarray                # (2M,) accumulated |<d_n, w_i>|^2
    criterion: SelectionCriterion
    selected: list[int] = field(default_factory=list)
    w: np.ndarray = None              # (capacity, N_b), rows :k orthonormal
    r: np.ndarray = None              # (capacity, capacity), r[i, k] = <w_i, d_k>
    blocked: np.ndarray = None        # selected or numerically dependent
    candidate: tuple[int, float] | None = None
    gain: float = -np.inf             # candidate's gain; -inf if none/saturated
    saturated: bool = False

    def __post_init__(self):
        if self.w is None:
            self.w = np.empty((0, self.block.shape[0]))
            self.r = np.zeros((0, 0))

    @property
    def atom_count(self) -> int:
        return len(self.selected)

    @property
    def ortho(self) -> np.ndarray:
        """Orthonormal basis of the selected atoms' span, one row each."""
        return self.w[: len(self.selected)]

    @property
    def bior(self) -> np.ndarray:
        """Biorthogonal dual of the selected atoms, ``r^-1 w``, one row each."""
        k = len(self.selected)
        return np.linalg.solve(self.r[:k, :k], self.w[:k])


@dataclass
class PursuitResult:
    decompositions: list[AtomicDecomposition]
    atom_count: int
    saturated: bool
    factors: list[np.ndarray]         # per block, the (k, k) factor r[:k, :k]
    residual_energies: np.ndarray     # per block, |residual|^2 over channels
    snr_db: float | None = None
    snr_trace: np.ndarray | None = None


def _panel(dico: TrigDictionary, channels: np.ndarray) -> np.ndarray:
    """``(2M, L)`` inner products, column-major so each channel is contiguous.

    One ``all_inner_products`` call per channel: perfbench counts panel
    refreshes as the channel panels computed under ``accept_candidate``.
    """
    out = np.empty((dico.num_atoms, channels.shape[1]), order="F")
    for j in range(channels.shape[1]):
        out[:, j] = dico.all_inner_products(channels[:, j])
    return out


def _subtract_outer(target: np.ndarray, u: np.ndarray, coefs: np.ndarray) -> None:
    """``target -= outer(u, coefs)``, one channel column at a time.

    For the C-order ``residual``; at two channels this beats ``np.outer``.
    """
    for j, c in enumerate(coefs):
        target[:, j] -= u * c


def _as_block(block) -> np.ndarray:
    arr = np.asarray(block, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _max_atoms(dico: TrigDictionary) -> int:
    """Rank of the dictionary: no block can hold more independent atoms."""
    return min(dico.block_size, dico.num_atoms)


def _check_block(block, dico: TrigDictionary) -> np.ndarray:
    block = _as_block(block)
    if block.ndim != 2 or block.shape[0] != dico.block_size:
        raise ValueError(f"block must be ({dico.block_size}, L)")
    return block


def init_block_state(
    block, dico: TrigDictionary, criterion: SelectionCriterion, res_ip=None
) -> BlockState:
    """Fresh state of one block, with its first candidate selected.

    ``res_ip`` is the block's ``(2M, L)`` panel if the caller has already
    computed it; otherwise it is computed here.
    """
    block = _check_block(block, dico)
    n_atoms = dico.num_atoms
    silent = not block.any()
    if silent:
        res_ip = np.zeros((n_atoms, block.shape[1]), order="F")
    elif res_ip is None:
        res_ip = _panel(dico, block)
    state = BlockState(
        block=block,
        residual=block.copy(),
        res_ip=res_ip,
        s_sums=np.zeros(n_atoms),
        criterion=criterion,
        blocked=np.zeros(n_atoms, dtype=bool),
    )
    if silent:
        # silent block: every gain is zero, never worth an atom
        state.saturated = True
        return state
    select_candidate(state, dico, criterion)
    return state


def _saturate(state: BlockState) -> None:
    state.candidate = None
    state.gain = -np.inf
    state.saturated = True


def select_candidate(
    state: BlockState, dico: TrigDictionary, criterion: SelectionCriterion
) -> None:
    """Refresh the block's candidate atom and its gain under ``criterion``.

    The candidate's ranking gain is the residual-energy drop its
    acceptance would realize, which is the quantity the block ranker
    compares across blocks regardless of criterion.
    """
    if state.saturated:
        return
    if len(state.selected) >= _max_atoms(dico):
        _saturate(state)
        return
    denom = 1.0 - state.s_sums
    state.blocked |= denom <= DEPENDENCY_FLOOR
    available = ~state.blocked
    sq = np.einsum("nj,nj->n", state.res_ip, state.res_ip)
    scores = np.full(sq.shape, -np.inf)
    if criterion is SelectionCriterion.SOMP:
        np.copyto(scores, np.abs(state.res_ip).sum(axis=1), where=available)
    elif criterion is SelectionCriterion.MMV_OMP:
        np.copyto(scores, sq, where=available)
    else:
        np.divide(sq, denom, out=scores, where=available)
    n0 = int(np.argmax(scores))   # first max: smallest index wins ties
    if scores[n0] == -np.inf:     # every atom selected or dependent
        _saturate(state)
        return
    state.gain = float(sq[n0] / denom[n0])
    state.candidate = (n0 + 1, state.gain)


def rank_blocks(gains) -> int | None:
    """Index of the block with the largest candidate gain.

    ``gains`` holds one entry per block, ``-inf`` for a block without a
    candidate.  Returns ``None`` when every entry is ``-inf`` (global
    saturation).  Ties go to the smallest block index.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        return None
    q = int(np.argmax(gains))
    return None if gains[q] == -np.inf else q


def _grow(state: BlockState, dico: TrigDictionary) -> None:
    """Double the capacity of ``w`` and ``r``, up to the dictionary's rank."""
    k = len(state.selected)
    cap = min(max(INITIAL_CAPACITY, 2 * k), _max_atoms(dico))
    w = np.empty((cap, dico.block_size))
    w[:k] = state.w[:k]
    r = np.zeros((cap, cap))
    r[:k, :k] = state.r[:k, :k]
    state.w, state.r = w, r


def accept_candidate(state: BlockState, dico: TrigDictionary) -> bool:
    """Incorporate the candidate atom into the block's decomposition.

    Returns False when the atom turned out numerically dependent; it is
    then excluded and a fresh candidate is selected, leaving the caller
    to re-rank.
    """
    if state.candidate is None:
        raise RuntimeError("no candidate to accept")
    n, _ = state.candidate
    k = len(state.selected)
    w = dico.atom(n)
    basis = state.w[:k]
    proj = basis @ w                   # accumulates r[:k, k] over the passes
    w -= basis.T @ proj
    again = basis @ w                  # one re-orthogonalization pass
    w -= basis.T @ again
    proj += again
    norm = np.linalg.norm(w)
    if k and norm > 0:
        again = basis @ w
        if np.abs(again).max() > ORTHO_TOL * norm:
            w -= basis.T @ again
            proj += again
    norm = float(np.linalg.norm(w))
    if norm <= DEPENDENCY_FLOOR:
        state.blocked[n - 1] = True
        select_candidate(state, dico, state.criterion)
        return False

    if k == state.w.shape[0]:
        _grow(state, dico)
    w_unit = state.w[k]
    np.divide(w, norm, out=w_unit)
    state.r[:k, k] = proj
    state.r[k, k] = norm
    state.selected.append(n)
    state.blocked[n - 1] = True

    panel = dico.all_inner_products(w_unit)
    state.s_sums += panel * panel
    alpha = state.residual.T @ w_unit          # == <w, f_j>, w orthogonal to span
    _subtract_outer(state.residual, w_unit, alpha)
    # res_ip is column-major, so its transpose takes all channels in one
    # contiguous update with the same products as the column loop
    by_channel = state.res_ip.T
    by_channel -= alpha[:, None] * panel
    if len(state.selected) % REFRESH_INTERVAL == 0:
        state.res_ip = _panel(dico, state.residual)
    state.candidate = None
    state.gain = -np.inf
    if len(state.selected) >= _max_atoms(dico):
        state.saturated = True
    return True


def compute_coefficients(state: BlockState, block) -> np.ndarray:
    """Decomposition coefficients of the finished block: ``r c = w f``."""
    block = _as_block(block)
    k = len(state.selected)
    if not k:
        return np.zeros((0, block.shape[1]))
    return np.linalg.solve(state.r[:k, :k], state.w[:k] @ block)


def _init_states(blocks, dico, criterion, threads):
    """Initial states of all blocks, their panels from batched FFTs.

    Blocks go in chunks of at most ``FFT_CHUNK_BINS`` half-spectrum bins;
    each chunk's panels come from one ``all_inner_products`` call on the
    stacked channels, and every state gets a column-major ``(2M, L)`` view
    of its own.  With ``threads > 1`` a pool maps the chunks.
    """
    blocks = [_check_block(b, dico) for b in blocks]
    if not blocks:
        return []
    per_chunk = max(1, FFT_CHUNK_BINS // (blocks[0].shape[1] * (dico.half_size + 1)))

    def init_chunk(chunk):
        panels = dico.all_inner_products(np.stack(chunk).transpose(0, 2, 1))
        return [
            init_block_state(b, dico, criterion, res_ip=p.T)
            for b, p in zip(chunk, panels)
        ]

    chunks = [blocks[i : i + per_chunk] for i in range(0, len(blocks), per_chunk)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(init_chunk, chunks))
    else:
        done = [init_chunk(c) for c in chunks]
    return [state for chunk in done for state in chunk]


def _result(states: list[BlockState], atom_count, saturated, **report):
    decompositions = [
        AtomicDecomposition(
            indices=np.asarray(st.selected, dtype=np.int64),
            coefficients=compute_coefficients(st, st.block),
        )
        for st in states
    ]
    factors = [st.r[: st.atom_count, : st.atom_count] for st in states]
    energies = np.array([float(np.sum(np.square(st.residual))) for st in states])
    return PursuitResult(
        decompositions, atom_count, saturated, factors, energies, **report
    )


def _pursue(states, dico, stop) -> bool:
    """Upgrade the best-ranked block, one atom at a time, until ``stop``.

    ``stop(q)`` is called after every atom accepted into block ``q`` and
    returns True to end the pursuit.  Returns True when the partition
    saturated before ``stop`` did.
    """
    gains = np.array([st.gain for st in states])
    while True:
        q = rank_blocks(gains)
        if q is None:
            return True
        state = states[q]
        if accept_candidate(state, dico):
            if stop(q):
                return False
            select_candidate(state, dico, state.criterion)
        gains[q] = state.gain


def hbw_pursuit(
    blocks,
    dico: TrigDictionary,
    budget: int,
    criterion: SelectionCriterion = SelectionCriterion.OOMPML,
    threads: int = 1,
) -> PursuitResult:
    """Distribute ``budget`` atoms over the partition, one upgrade at a time.

    Every step ranks the per-block candidates and upgrades the winner
    only; results are deterministic (and thread-count independent)
    because ties break to the smallest atom and block indices.  A budget
    beyond what the partition can absorb returns at saturation with the
    ``saturated`` flag set rather than raising.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    states = _init_states(blocks, dico, criterion, threads)
    accepted = 0

    def spent(_q):
        nonlocal accepted
        accepted += 1
        return accepted >= budget

    saturated = budget > 0 and _pursue(states, dico, spent)
    return _result(states, accepted, saturated)


def pursuit_to_snr(
    blocks,
    dico: TrigDictionary,
    target_snr_db: float,
    criterion: SelectionCriterion = SelectionCriterion.OOMPML,
    threads: int = 1,
) -> PursuitResult:
    """Grow the decomposition until the running SNR reaches the target.

    The running SNR is maintained from per-block residual energies, so it
    matches a from-scratch residual computation to numerical accuracy.
    Stops at the first atom count whose SNR meets ``target_snr_db``; if
    the partition saturates first, returns the best achieved SNR with
    ``saturated=True``.
    """
    if not np.isfinite(target_snr_db):
        raise ValueError("target SNR must be finite")
    # SNR reports cap at the lossless-at-tolerance sentinel, so a target
    # beyond the cap means "run until the residual hits the noise floor".
    effective_target = min(target_snr_db, SNR_CAP_DB)
    energies = np.array([float(np.sum(np.square(_as_block(b)))) for b in blocks])
    signal_energy = float(energies.sum())
    if signal_energy <= 0:
        raise ValueError("zero signal has no SNR")

    if effective_target <= 0.0:   # zero atoms leave the residual equal to the signal
        empties = [
            AtomicDecomposition(
                indices=np.empty(0, dtype=np.int64),
                coefficients=np.zeros((0, _as_block(b).shape[1])),
            )
            for b in blocks
        ]
        return PursuitResult(
            empties,
            0,
            saturated=False,
            factors=[np.zeros((0, 0)) for _ in blocks],
            residual_energies=energies,
            snr_db=0.0,
            snr_trace=np.empty(0),
        )

    states = _init_states(blocks, dico, criterion, threads)
    residual_energy = energies.copy()
    trace: list[float] = []

    def reached(q):
        residual_energy[q] = float(np.sum(np.square(states[q].residual)))
        trace.append(snr_from_energies(signal_energy, float(residual_energy.sum())))
        return trace[-1] >= effective_target

    saturated = _pursue(states, dico, reached)
    return _result(
        states,
        len(trace),
        saturated,
        snr_db=trace[-1] if trace else 0.0,
        snr_trace=np.asarray(trace),
    )
