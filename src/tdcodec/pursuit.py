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

A block's pursuit never reads another block, so with ``threads > 1``
the blocks are dealt round-robin to forked worker processes (block ``q``
to worker ``q mod P``, ``P`` from ``worker_count``).  Each worker runs the
same loop on its own blocks and streams every pick: the block, the gain
it was ranked by, whether its atom was accepted, and the block's residual
energy.  The serial pick is always the best head of some worker's stream,
so the parent replays the serial order exactly by merging the heads,
applies the budget or SNR stop, and the workers cut every block that ran
ahead back to the atom count the merge kept.  The output does not depend
on ``threads``.  With ``threads == 1`` the loop runs in process: one
forked worker adds its messages and a cold process to the same work.
"""

from __future__ import annotations

import os
from collections import deque
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
    "worker_count",
]

DEPENDENCY_FLOOR = 1e-10   # atoms with 1 - S_n at or below this are in-span
ORTHO_TOL = 1e-10
REFRESH_INTERVAL = 32
INITIAL_CAPACITY = 8       # rows of ``w`` before the first doubling
LOOKAHEAD = 256            # picks a worker may make ahead of the merge
PICK_BATCH = 16            # picks per message from a worker to the merge


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


def compute_coefficients(
    state: BlockState, block, atoms: int | None = None
) -> np.ndarray:
    """Coefficients of the block's first ``atoms`` atoms (default all): ``r c = w f``.

    A prefix needs nothing more: the first rows of ``w`` and ``r`` do not
    change as later atoms arrive.
    """
    block = _as_block(block)
    k = len(state.selected) if atoms is None else atoms
    if not k:
        return np.zeros((0, block.shape[1]))
    return np.linalg.solve(state.r[:k, :k], state.w[:k] @ block)


def worker_count(threads: int, block_count: int) -> int:
    """Pursuit worker processes for ``threads``: at most one per core and per block.

    Workers are forked, so a platform without ``fork`` pursues in process.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(threads, os.cpu_count() or 1, block_count))


def _init_states(blocks, dico, criterion):
    """Initial states of ``blocks``, their panels from batched FFTs.

    Blocks go in chunks of at most ``FFT_CHUNK_BINS`` half-spectrum bins;
    each chunk's panels come from one ``all_inner_products`` call on the
    stacked channels, and every state gets a column-major ``(2M, L)`` view
    of its own.
    """
    if not blocks:
        return []
    per_chunk = max(1, FFT_CHUNK_BINS // (blocks[0].shape[1] * (dico.half_size + 1)))
    states = []
    for i in range(0, len(blocks), per_chunk):
        chunk = blocks[i : i + per_chunk]
        panels = dico.all_inner_products(np.stack(chunk).transpose(0, 2, 1))
        states += [
            init_block_state(b, dico, criterion, res_ip=p.T)
            for b, p in zip(chunk, panels)
        ]
    return states


def _energy(state: BlockState) -> float:
    """The block's residual energy, summed over channels."""
    return float(np.sum(np.square(state.residual)))


def _finish(state: BlockState, k: int, energy: float):
    """``(decomposition, factor, residual energy)`` of the block's first ``k`` atoms."""
    decomposition = AtomicDecomposition(
        indices=np.asarray(state.selected[:k], dtype=np.int64),
        coefficients=compute_coefficients(state, state.block, k),
    )
    return decomposition, state.r[:k, :k], energy


def _unpursued(block: np.ndarray):
    """The ``_finish`` triple of a block that gets no atoms."""
    empty = AtomicDecomposition(
        indices=np.empty(0, dtype=np.int64), coefficients=np.zeros((0, block.shape[1]))
    )
    return empty, np.zeros((0, 0)), float(np.sum(np.square(block)))


def _result(parts, saturated: bool, **report) -> PursuitResult:
    decompositions = [dec for dec, _, _ in parts]
    return PursuitResult(
        decompositions,
        sum(dec.atom_count for dec in decompositions),
        saturated,
        [factor for _, factor, _ in parts],
        np.array([energy for _, _, energy in parts]),
        **report,
    )


class _Budget:
    """Stop rule: the ``budget``-th accepted atom ends the pursuit."""

    def __init__(self, budget: int):
        self.left = budget

    def __call__(self, q: int, energy) -> bool:
        self.left -= 1
        return self.left <= 0


class _SnrTarget:
    """Stop rule: the first atom whose running SNR reaches ``target`` ends it.

    ``energy()`` is block ``q``'s residual energy after its new atom; the
    running SNR sums the per-block energies, so it matches a from-scratch
    residual computation to numerical accuracy.  ``trace`` keeps it.
    """

    def __init__(self, energies: np.ndarray, target: float):
        self.residual = energies.copy()
        self.signal = float(energies.sum())
        self.target = target
        self.trace: list[float] = []

    def __call__(self, q: int, energy) -> bool:
        self.residual[q] = energy()
        self.trace.append(snr_from_energies(self.signal, float(self.residual.sum())))
        return self.trace[-1] >= self.target


def _pursue(states, dico, pick) -> bool:
    """Upgrade the best-ranked block, one atom at a time, until ``pick`` ends it.

    ``pick(q, gain, accepted)`` is called after every pick of block ``q``,
    with the gain it was ranked by, whether or not its atom was accepted;
    it returns True to end the pursuit.  Returns True when the states
    saturated before ``pick`` ended it.
    """
    gains = np.array([st.gain for st in states])
    while True:
        q = rank_blocks(gains)
        if q is None:
            return True
        state = states[q]
        accepted = accept_candidate(state, dico)
        if pick(q, float(gains[q]), accepted):
            return False
        if accepted:
            select_candidate(state, dico, state.criterion)
        gains[q] = state.gain


def _pursue_in_process(blocks, dico, criterion, stop):
    states = _init_states(blocks, dico, criterion)

    def pick(q, _gain, accepted):
        return accepted and stop(q, lambda: _energy(states[q]))

    saturated = _pursue(states, dico, pick)
    return saturated, [_finish(st, st.atom_count, _energy(st)) for st in states]


class _ShardLink:
    """A worker's end of its pipe to the merge.

    Picks go out in batches of ``PICK_BATCH``, since every message wakes
    the merging parent.  The merge answers with credits, the number of
    picks the worker may have made, so that it runs at most ``LOOKAHEAD``
    picks ahead of the merge, and at its stop with the atom count it kept
    for each of the worker's blocks.
    """

    def __init__(self, conn):
        self.conn = conn
        self.batch = []
        self.made = 0
        self.credit = LOOKAHEAD
        self.counts = None

    def pick(self, event) -> bool:
        """Queue one pick; True once the merge has sent the final counts."""
        self.batch.append(event)
        self.made += 1
        if len(self.batch) >= PICK_BATCH or self.made >= self.credit:
            self.flush()
            while self.counts is None and (
                self.made >= self.credit or self.conn.poll()
            ):
                self._read()
        return self.counts is not None

    def flush(self, ended: bool = False) -> None:
        self.conn.send(("picks", self.batch, ended))
        self.batch = []

    def final_counts(self) -> list[int]:
        while self.counts is None:
            self._read()
        return self.counts

    def _read(self) -> None:
        message = self.conn.recv()
        if isinstance(message, int):
            self.credit = message
        else:
            self.counts = message


def _shard_worker(index, pipes, shard, dico, criterion):
    """Worker process: pursue ``shard`` and stream every pick to the merge.

    A pick is ``(local block, gain, accepted, residual energy)``; the last
    batch is marked as the end of the stream when the shard saturates.
    When the merge stops, the worker truncates every block to the atom
    count the merge kept and sends the ``_finish`` triples; a failure
    sends its traceback in their place.
    """
    conn = pipes[index][1]
    for pair in pipes:
        for end in pair:
            if end is not conn:
                end.close()
    try:
        states = _init_states(shard, dico, criterion)
        energies = [[_energy(st)] for st in states]   # one more per atom
        link = _ShardLink(conn)

        def pick(q, gain, accepted):
            if accepted:
                energies[q].append(_energy(states[q]))
            return link.pick((q, gain, accepted, energies[q][-1]))

        if _pursue(states, dico, pick):
            link.flush(ended=True)
        counts = link.final_counts()
        parts = [_finish(st, k, e[k]) for st, k, e in zip(states, counts, energies)]
        conn.send(("results", parts))
    except Exception:
        import traceback   # a failing worker only: keeps the package import light

        conn.send(("failed", traceback.format_exc()))
    finally:
        conn.close()


def _receive(conn):
    """A worker's next message; raises if the worker failed or is gone."""
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError("a pursuit worker exited without its results") from None
    if message[0] == "failed":
        raise RuntimeError(f"a pursuit worker failed:\n{message[1]}")
    return message


class _Stream:
    """The merge's view of one worker: its picks not yet merged."""

    def __init__(self, conn):
        self.conn = conn
        self.picks = deque()
        self.ended = False
        self.taken = 0

    def head(self):
        """The worker's next pick, or None once its stream has ended."""
        while not self.picks and not self.ended:
            _, picks, self.ended = _receive(self.conn)
            self.picks.extend(picks)
        return self.picks[0] if self.picks else None

    def take(self) -> None:
        self.picks.popleft()
        self.taken += 1
        if self.taken % (LOOKAHEAD // 2) == 0:
            self.conn.send(self.taken + LOOKAHEAD)

    def results(self, counts: list[int]):
        """Send the kept atom counts; the worker's truncated block results."""
        self.conn.send(counts)
        while True:
            message = _receive(self.conn)
            if message[0] == "results":
                return message[1]


def _merge(streams: list[_Stream], block_count: int, stop):
    """Replay the serial pick order from the workers' streams until ``stop``.

    Worker ``w`` holds blocks ``w, w + P, ...``.  The serial loop picks the
    block with the largest gain, the lower block index on a tie, and a pick
    changes only its own block; so the serial pick is always the head of
    some worker's stream, and taking the best head, by gain and then global
    block index, replays the serial order exactly, ties included.  Rejected
    picks are merged too: they rank with their own gain, not their
    replacement's.  Returns whether every stream ended before ``stop`` did,
    and the atom count of every block.
    """
    workers = len(streams)
    counts = np.zeros(block_count, dtype=np.int64)
    while True:
        best = None
        for w, stream in enumerate(streams):
            head = stream.head()
            if head is not None and (
                best is None
                or head[1] > best[1]
                or head[1] == best[1] and head[0] * workers + w < best[0]
            ):
                best = (head[0] * workers + w, head[1], w)
        if best is None:
            return True, counts
        g, _, w = best
        _, _, accepted, energy = streams[w].picks[0]
        streams[w].take()
        if accepted:
            counts[g] += 1
            if stop(g, lambda: energy):
                return False, counts


def _pursue_in_workers(blocks, dico, criterion, stop, workers):
    # imported here only: the import costs every start-up ~10 ms
    import multiprocessing

    # fork: the workers share the blocks and the imported codec with this
    # process instead of pickling and importing them again (the codec
    # starts no threads that a fork could catch holding a lock)
    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe() for _ in range(workers)]
    procs = []
    done = False
    try:
        for w in range(workers):
            proc = ctx.Process(
                target=_shard_worker,
                args=(w, pipes, blocks[w::workers], dico, criterion),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        for _, child in pipes:
            child.close()
        streams = [_Stream(parent) for parent, _ in pipes]
        saturated, counts = _merge(streams, len(blocks), stop)
        parts = [None] * len(blocks)
        for w, stream in enumerate(streams):
            parts[w::workers] = stream.results(counts[w::workers].tolist())
        done = True
        return saturated, parts
    finally:
        for proc in procs:
            if not done:
                proc.terminate()
            proc.join()
        for pair in pipes:
            for end in pair:
                end.close()


def _pursue_blocks(blocks, dico, criterion, stop, threads):
    """``(saturated, per-block _finish triples)`` of the pursuit under ``stop``."""
    workers = worker_count(threads, len(blocks))
    if workers == 1:
        return _pursue_in_process(blocks, dico, criterion, stop)
    return _pursue_in_workers(blocks, dico, criterion, stop, workers)


def hbw_pursuit(
    blocks,
    dico: TrigDictionary,
    budget: int,
    criterion: SelectionCriterion = SelectionCriterion.OOMPML,
    threads: int = 1,
) -> PursuitResult:
    """Distribute ``budget`` atoms over the partition, one upgrade at a time.

    Every step ranks the per-block candidates and upgrades the winner
    only; results are deterministic, and independent of ``threads`` (see
    ``worker_count``), because ties break to the smallest atom and block
    indices.  A budget beyond what the partition can absorb returns at
    saturation with the ``saturated`` flag set rather than raising.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    blocks = [_check_block(b, dico) for b in blocks]
    if budget == 0:
        return _result([_unpursued(b) for b in blocks], saturated=False)
    saturated, parts = _pursue_blocks(blocks, dico, criterion, _Budget(budget), threads)
    return _result(parts, saturated)


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
    blocks = [_check_block(b, dico) for b in blocks]
    energies = np.array([float(np.sum(np.square(b))) for b in blocks])
    if float(energies.sum()) <= 0:
        raise ValueError("zero signal has no SNR")
    # SNR reports cap at the lossless-at-tolerance sentinel, so a target
    # beyond the cap means "run until the residual hits the noise floor".
    effective_target = min(target_snr_db, SNR_CAP_DB)
    if effective_target <= 0.0:   # zero atoms leave the residual equal to the signal
        parts = [_unpursued(b) for b in blocks]
        return _result(parts, saturated=False, snr_db=0.0, snr_trace=np.empty(0))
    stop = _SnrTarget(energies, effective_target)
    saturated, parts = _pursue_blocks(blocks, dico, criterion, stop, threads)
    return _result(
        parts,
        saturated,
        snr_db=stop.trace[-1] if stop.trace else 0.0,
        snr_trace=np.asarray(stop.trace),
    )
