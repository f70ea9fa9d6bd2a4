"""Simultaneous multichannel greedy pursuit over a partitioned signal.

All channels of a block share one set of selected atoms with per-channel
coefficients.  Within a block, candidate atoms are picked by one of three
selection criteria; across blocks, each step upgrades the single block
whose candidate yields the largest drop of the total residual energy,
the lower block index on a tie (the hierarchized block-wise strategy).
A step is one ``accept_candidate``, which ends by selecting the block's
next candidate, as ``init_block_state`` selects its first: through
``select_candidate``, the one place that picks an atom.  One rule
excludes an atom: OOMP's ``1 - S_n <= DEPENDENCY_FLOOR``, as ``S_n =
sum_i |<d_n, w_i>|^2`` is 1 just when atom ``n`` is in the span.  A kept
atom, or one found dependent, gets ``S_n = 1``; sums only grow.

The selected subspace of a block is tracked by Gram-Schmidt with
conditional re-orthogonalization: a new atom gets a second pass only when
the first leaves at most ``1/sqrt(2)`` of its unit norm (the test of
Daniel, Gragg, Kaufman and Stewart, Math. Comp. 1976; Giraud, Langou,
Rozloznik and van den Eshof, Numer. Math. 2005, show that two passes
then suffice).  The orthonormal vectors are the rows of ``w`` and
the triangular factor ``r[i, k] = <w_i, d_k>`` of the selected atoms
``d_k`` sits beside it, both in arrays that double in capacity as atoms
arrive.  Each kept row's ``wf[i] = <w_i, f>`` is its step's product with
the residual, equal as ``f`` less that residual lies in the earlier rows'
span; the coefficients of any prefix of ``k`` atoms solve
``r[:k, :k] c = wf[:k]``.

Inner products against every dictionary atom are cached per channel as a
full panel and updated incrementally on each acceptance; panels are
recomputed from the residual every ``REFRESH_INTERVAL`` acceptances to
bound drift.  ``_panel`` computes every panel, a block's first included,
one FFT per channel.  Residual and panel are both channel-major, so each
acceptance updates every channel as one contiguous row.

A block's pursuit never reads another block, so its picks form a log of
gains of its own, and the serial order is the merge of those logs by
gain, then block index.  One resumable heap merge, ``_Merge`` (Knuth's
k-way merge, TAOCP vol. 3, 5.4.1), is the only code that picks the next
block.  When it needs a pick past a block's log it asks for more, and
where that comes from is all that differs between its uses:

* In process, every block is live and takes its next step.
* Memory.  At most ``LIVE_BLOCKS`` blocks hold panels at once.  A pilot
  of every ``s``-th block (every block when there are no more) is merged
  first under the stop scaled to it; with more blocks, half the gain of
  its last pick is a threshold ``tau``.  Every block then runs alone
  while its head gain is at least ``tau``, one at a time, and
  keeps only a compact record: its atoms, factor, ``wf`` rows, pick log
  and next head gain.  At every stride, a final merge of the records
  replays the serial order under the real stop; past a closed block's
  log, it lowers ``tau`` and runs those blocks again from the start,
  which repeats their logs exactly.  Picks made past the stop are the
  price: about 1% on sparse input, about a third on dense.
* Processes.  With ``threads > 1`` the pilot's blocks are dealt
  round-robin to forked worker processes (block ``q`` to worker
  ``q mod P``, ``P`` from ``worker_count``), and so are the others' runs
  to ``tau``.  Each worker merges its own live blocks, ``ROUND`` accepted
  atoms at a time, and after each round sends the new log entries and
  head gains of the blocks it stepped.  The parent appends them to its
  copies of the blocks' logs and merges those; when it needs a pick past
  a block's log, it asks that block's worker for its next round.  A
  worker makes two rounds unasked, so it computes while the parent
  merges, at most three rounds ahead of it.  With ``threads == 1`` the
  merge runs in process: one forked worker adds its messages and a cold
  process to the same work.

The output depends neither on ``threads`` nor on ``LIVE_BLOCKS``.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dictionary import AtomTable, TrigDictionary
from .metrics import SNR_CAP_DB, snr_from_energies

__all__ = [
    "SelectionCriterion",
    "BlockState",
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
REORTHO_NORM = 1 / math.sqrt(2)   # a first pass leaving |w| at or below this takes a second
REFRESH_INTERVAL = 32
INITIAL_CAPACITY = 8       # rows of ``w`` before the first doubling
LIVE_BLOCKS = 256          # blocks whose pursuit state may be alive at once
ROUND = 32                 # atoms a worker accepts per request of the merge


class SelectionCriterion(Enum):
    """Per-block atom selection rule; its value is the name ``--criterion`` takes."""

    SOMP = "somp"      # maximize sum_j |<d, r_j>|
    MMV_OMP = "omp"    # maximize sum_j |<d, r_j>|^2
    OOMPML = "oomp"    # maximize sum_j |<d, r_j>|^2 / (1 - S_n)


@dataclass
class BlockState:
    """Mutable pursuit state of a single block."""

    residual: np.ndarray              # (N_b, L), channel-major (Fortran order)
    res_ip: np.ndarray                # (2M, L) atom/residual inner products
    s_sums: np.ndarray                # (2M,) S_n; exactly 1.0 once n is kept or rejected
    criterion: SelectionCriterion
    selected: list[int] = field(default_factory=list)
    w: np.ndarray = None              # (capacity, N_b), rows :k orthonormal
    r: np.ndarray = None              # (capacity, capacity), r[i, k] = <w_i, d_k>
    wf: np.ndarray = None             # (capacity, L), wf[i] = <w_i, block>, its step's alpha
    candidate: int | None = None      # 1-based atom index of the next pick; None: saturated
    gain: float = -np.inf             # candidate's gain; -inf once saturated

    def __post_init__(self):
        if self.w is None:
            self.w = np.empty((0, self.residual.shape[0]))
            self.r = np.zeros((0, 0))
            self.wf = np.empty((0, self.residual.shape[1]))

    @property
    def atom_count(self) -> int:
        return len(self.selected)

    @property
    def saturated(self) -> bool:
        return self.candidate is None


@dataclass
class PursuitResult:
    atoms: AtomTable                  # indices in selection order, (K, L) coefficients
    saturated: bool
    factors: list[np.ndarray]         # per block, the (k, k) factor r[:k, :k]
    residual_energies: np.ndarray     # per block, |residual|^2 over channels
    snr_db: float | None = None
    snr_trace: np.ndarray | None = None

    @property
    def atom_count(self) -> int:
        return self.atoms.indices.size


def _panel(dico: TrigDictionary, channels: np.ndarray) -> np.ndarray:
    """``(2M, L)`` inner products, column-major so each channel is contiguous.

    The one routine that computes a block's panel, at its start and at
    each refresh: one ``all_inner_products`` call per channel, so perfbench
    counts panel rows.
    """
    out = np.empty((dico.num_atoms, channels.shape[1]), order="F")
    for j in range(channels.shape[1]):
        out[:, j] = dico.all_inner_products(channels[:, j])
    return out


def _check_criterion(criterion) -> None:
    if not isinstance(criterion, SelectionCriterion):
        raise ValueError(f"criterion {criterion!r} is not a SelectionCriterion")


def _check_block(block, dico: TrigDictionary) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    if block.ndim != 2 or block.shape[0] != dico.block_size:
        raise ValueError(f"block must be ({dico.block_size}, L)")
    if not np.isfinite(block).all():
        raise ValueError("block samples must be finite")
    return block


def init_block_state(
    block, dico: TrigDictionary, criterion: SelectionCriterion, res_ip=None
) -> BlockState:
    """Fresh state of one block, with its first candidate selected.

    ``res_ip`` is the block's ``(2M, L)`` panel if the caller has already
    computed it, from a block that ``_check_block`` passed; otherwise the
    block is checked and its panel computed here.  A silent block has no
    atom that reduces its residual, so it starts saturated.
    """
    _check_criterion(criterion)
    if res_ip is None:
        block = _check_block(block, dico)
        res_ip = _panel(dico, block)
    state = BlockState(
        # a copy always: np.asfortranarray would alias a mono block
        residual=np.array(block, order="F"),
        res_ip=res_ip,
        s_sums=np.zeros(dico.num_atoms),
        criterion=criterion,
    )
    select_candidate(state, dico)
    return state


def _saturate(state: BlockState) -> None:
    state.candidate, state.gain = None, -np.inf


def select_candidate(state: BlockState, dico: TrigDictionary) -> None:
    """Select the block's next candidate atom and its gain under ``state.criterion``.

    The candidate's ranking gain is the residual-energy drop its
    acceptance would realize, which is the quantity the block ranker
    compares across blocks regardless of criterion.  A block at full
    rank, or with no free atom that cuts its residual, saturates.  Every
    array is a temporary of the call, so concurrent pursuits share nothing.
    """
    # the rank min(N_b, 2M) is N_b: TrigDictionary refuses half_size < block_size
    if len(state.selected) >= dico.block_size:
        _saturate(state)
        return
    criterion, res_ip = state.criterion, state.res_ip
    sq = np.einsum("nj,nj->n", res_ip, res_ip)
    denom = 1.0 - state.s_sums
    free = denom > DEPENDENCY_FLOOR
    if criterion is SelectionCriterion.OOMPML:
        scores = np.divide(sq, denom, out=np.full_like(sq, -np.inf), where=free)
    else:
        # on the channel-major panel, the row sums add channel after channel
        scores = np.abs(res_ip).sum(axis=1) if criterion is SelectionCriterion.SOMP else sq
        scores = np.where(free, scores, -np.inf)
    n0 = int(np.argmax(scores))   # first max: smallest index wins ties
    if not scores[n0] > 0:        # no free atom reduces the residual
        _saturate(state)
        return
    state.gain = float(sq[n0] / denom[n0])
    state.candidate = n0 + 1


def rank_blocks(gains) -> int | None:
    """Index of the block with the largest candidate gain: the ranking rule.

    ``gains`` holds one entry per block, ``-inf`` for a block without a
    candidate.  Returns ``None`` when every entry is ``-inf`` (global
    saturation).  Ties go to the smallest block index.  The pursuit
    applies this rule through ``_Merge``'s heap; tests check one by the other.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        return None
    q = int(np.argmax(gains))
    return None if gains[q] == -np.inf else q


def _grow(state: BlockState, dico: TrigDictionary) -> None:
    """Double the capacity of ``w``, ``r`` and ``wf``, up to the dictionary's rank."""
    k = len(state.selected)
    cap = min(max(INITIAL_CAPACITY, 2 * k), dico.block_size)
    w = np.empty((cap, dico.block_size))
    w[:k] = state.w[:k]
    r = np.zeros((cap, cap))
    r[:k, :k] = state.r[:k, :k]
    wf = np.empty((cap, state.wf.shape[1]))
    wf[:k] = state.wf[:k]
    state.w, state.r, state.wf = w, r, wf


def accept_candidate(state: BlockState, dico: TrigDictionary) -> bool:
    """One step of the block: take in its candidate atom, then select the next.

    Returns False when the atom turned out numerically dependent; it is
    then excluded instead.  Either way the atom ends the step with
    ``S_n = 1``, out of selection, and the block with its next candidate
    and gain, or saturated, so the caller only re-ranks.

    Re-orthogonalization is conditional (see the module docstring): the
    atom has unit norm, so when one Gram-Schmidt pass leaves more than
    ``REORTHO_NORM`` of it, little cancelled and the result is already
    orthogonal to working accuracy.  Otherwise a second pass follows, and
    two passes suffice.
    """
    if state.candidate is None:
        raise RuntimeError("no candidate to accept")
    n = state.candidate
    k = len(state.selected)
    w = dico.atom(n)
    basis = state.w[:k]
    proj = basis @ w                   # accumulates r[:k, k] over the passes
    w -= basis.T @ proj
    norm = math.sqrt(w @ w)            # the bits of np.linalg.norm
    if norm <= REORTHO_NORM:
        again = basis @ w
        w -= basis.T @ again
        proj += again
        norm = math.sqrt(w @ w)
    if norm <= DEPENDENCY_FLOOR:
        state.s_sums[n - 1] = 1.0
        select_candidate(state, dico)
        return False

    if k == state.w.shape[0]:
        _grow(state, dico)
    w_unit = state.w[k]
    np.divide(w, norm, out=w_unit)
    state.r[:k, k] = proj
    state.r[k, k] = norm
    state.selected.append(n)

    panel = dico.all_inner_products(w_unit)
    # residual and res_ip are channel-major: their transposes hold one
    # contiguous row per channel, so each update is one pass over them
    by_channel = state.residual.T
    alpha = by_channel @ w_unit                # == <w, f_j>, w orthogonal to span
    state.wf[k] = alpha
    by_channel -= alpha[:, None] * w_unit
    by_channel = state.res_ip.T
    by_channel -= alpha[:, None] * panel
    panel *= panel
    state.s_sums += panel
    state.s_sums[n - 1] = 1.0          # the sum is 1 up to rounding: make it exact
    if len(state.selected) % REFRESH_INTERVAL == 0:
        state.res_ip = _panel(dico, state.residual)
    select_candidate(state, dico)
    return True


def compute_coefficients(state: BlockState, atoms: int | None = None) -> np.ndarray:
    """Coefficients of the block's first ``atoms`` atoms (default all): ``r c = w f``.

    A prefix needs nothing more: the first rows of ``r`` and ``wf``, each
    ``wf`` row its step's product with the residual, do not change as later
    atoms arrive.  ``state`` may also be a block's closed pursuit record,
    which keeps ``selected``, ``r`` and ``wf``.
    """
    k = len(state.selected) if atoms is None else atoms
    if not k:
        return np.zeros((0, state.wf.shape[1]))
    return np.linalg.solve(state.r[:k, :k], state.wf[:k])


def worker_count(threads: int, block_count: int) -> int:
    """Pursuit worker processes for ``threads``: at most one per usable core and block.

    Usable cores are the process's CPU affinity set where the platform has
    one.  Workers are forked, so a platform without ``fork`` pursues in
    process.
    """
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(threads, cores, block_count))


def _init_states(blocks, dico, criterion):
    """Initial states of ``blocks``, in order, each panel from ``_panel``.

    A generator: a block's panel is computed only when its state is asked for.
    """
    for b in blocks:
        yield init_block_state(b, dico, criterion, res_ip=_panel(dico, b))


def _energy(state: BlockState) -> float:
    """The block's residual energy, summed over channels."""
    return float(np.sum(np.square(state.residual)))


class _Record:
    """One block's pursuit, as the merge needs it.

    While the block is pursued, ``state`` is its live state and ``step``
    makes and logs its next pick.  ``close`` keeps what truncation needs
    (the atoms, ``r[:k, :k]``, the ``wf`` rows and the pick log) with the
    gain of the block's next pick, ``head``, and drops the state and its
    panels.  A record made without a state is the merge's copy of a
    worker's log, which ``add`` extends.
    """

    def __init__(self, state: BlockState | None = None):
        self.state = state
        self.gains: list[float] = []       # the gain each pick was ranked by
        self.accepted: list[bool] = []     # whether that pick's atom was kept
        # residual energy after 0, 1, ... atoms
        self.energies = [] if state is None else [_energy(state)]
        self._head = -np.inf               # a closed or copied log's head
        self._sent = (0, 0)                # picks and energies ``news`` has sent

    @property
    def head(self) -> float:
        """The gain of the block's next pick, ``-inf`` once it is saturated."""
        return self._head if self.state is None else self.state.gain

    def step(self, dico: TrigDictionary) -> None:
        """Pick the live block's candidate and log the pick."""
        state = self.state
        self.gains.append(state.gain)
        accepted = accept_candidate(state, dico)
        self.accepted.append(accepted)
        if accepted:
            self.energies.append(_energy(state))

    def close(self) -> _Record:
        state, k = self.state, self.state.atom_count
        self.selected = state.selected
        self.r = state.r[:k, :k].copy()
        self.wf = state.wf[:k].copy()
        self._head = state.gain
        self.state = None
        return self

    def news(self):
        """The log entries made since the last call, and the head gain."""
        picks, energies = self._sent
        self._sent = len(self.gains), len(self.energies)
        return (self.gains[picks:], self.accepted[picks:], self.energies[energies:],
                self.head)

    def add(self, gains, accepted, energies, head) -> None:
        """Append another record's ``news`` to this log."""
        self.gains += gains
        self.accepted += accepted
        self.energies += energies
        self._head = head

    def gain_at(self, i: int) -> float:
        """The gain of the block's pick ``i``; past the log, its head."""
        return self.gains[i] if i < len(self.gains) else self.head


class _Merge:
    """The serial pick order, replayed from the blocks' logs by a heap.

    The serial pursuit always picks the block with the largest head gain,
    the lower block index on a tie, and a pick changes only its own block;
    so a heap over the blocks' heads replays it exactly, rejected picks and
    ties included.  When the best head, block ``q``'s, lies past its log,
    ``extend(q)`` must put a longer one in ``records[q]``.  ``taken``
    counts the picks merged per block, ``counts`` the atoms accepted, and
    ``last_gain`` is the gain of the last pick merged.
    """

    def __init__(self, records: list[_Record], extend):
        self.records = records
        self.extend = extend
        self.taken = [0] * len(records)
        self.counts = [0] * len(records)
        self.last_gain = np.inf   # a merge that never picks sets no threshold
        heap = [(-rec.gain_at(0), q) for q, rec in enumerate(records)]
        self.heap = [entry for entry in heap if entry[0] != np.inf]
        heapq.heapify(self.heap)

    def run(self, stop) -> bool:
        """Merge picks until ``stop.done``; True if the blocks saturated first.

        ``stop.done`` is asked before the first pick and after each
        accepted atom, which ``stop.add(q, energy)`` records with block
        ``q``'s residual energy after it.  A stop that is done at once
        gets no pick.  The heap is up to date whenever ``done`` is asked,
        so the next ``run`` goes on from the next pick.
        """
        records, taken, counts, heap = self.records, self.taken, self.counts, self.heap
        while not stop.done:
            if not heap:
                return True
            gain, q = heap[0]
            rec = records[q]
            i = taken[q]
            if i == len(rec.gains):
                self.extend(q)
                continue
            self.last_gain = -gain
            taken[q] = i + 1
            head = rec.gain_at(i + 1)
            if head == -np.inf:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (-head, q))
            if rec.accepted[i]:
                counts[q] += 1
                stop.add(q, rec.energies[counts[q]])
        return False


def _finish(record: _Record, k: int):
    """``(indices, coefficients, factor, residual energy)`` of the block's first ``k`` atoms.

    ``record`` is closed, so its ``r`` is already a copy of its own.
    """
    indices = np.asarray(record.selected[:k], dtype=np.int64)
    return indices, compute_coefficients(record, k), record.r[:k, :k], record.energies[k]


class _Budget:
    """Stop rule: done once ``budget`` atoms are accepted, at once for a budget of 0."""

    def __init__(self, budget: int):
        self.left = budget

    @property
    def done(self) -> bool:
        return self.left <= 0

    def add(self, q: int, energy: float) -> None:
        self.left -= 1

    def pilot(self, stride: int, count: int) -> _Budget:
        """The budget's share of blocks ``0, stride, ...`` of ``count``, rounded up."""
        return _Budget(-(-self.left * len(range(0, count, stride)) // count))


class _SnrTarget:
    """Stop rule: done once the running SNR reaches ``target``.

    No atoms leave the residual equal to the signal, at 0 dB, so a target
    at or below 0 dB is done at once.  ``add`` takes block ``q``'s
    residual energy after its new atom; the running SNR sums the
    per-block energies, so it matches a from-scratch residual computation
    to numerical accuracy.  ``trace`` keeps it.
    """

    def __init__(self, energies: np.ndarray, target: float):
        self.residual = energies.copy()
        self.signal = float(energies.sum())
        self.target = target
        self.snr = 0.0
        self.trace: list[float] = []

    @property
    def done(self) -> bool:
        return self.snr >= self.target

    def add(self, q: int, energy: float) -> None:
        self.residual[q] = energy
        self.snr = snr_from_energies(self.signal, float(self.residual.sum()))
        self.trace.append(self.snr)

    def pilot(self, stride: int, count: int) -> _SnrTarget:
        """The same target on blocks ``0, stride, ...`` alone."""
        return _SnrTarget(self.residual[::stride], self.target)


def _advance(record: _Record, dico, tau: float) -> _Record:
    """Pursue the record's block alone while its head gain is at least ``tau``; close it."""
    while record.head >= tau:
        record.step(dico)
    return record.close()


def _run_ahead(records, blocks, dico, criterion, tau: float) -> list[_Record]:
    """``records``, then records of ``blocks``, each block pursued alone to ``tau``.

    ``blocks`` start after ``records`` are closed, one at a time, and each
    closes before the next starts.
    """
    closed = [_advance(rec, dico, tau) for rec in records]
    states = _init_states(blocks, dico, criterion)
    return closed + [_advance(_Record(st), dico, tau) for st in states]


def _threshold(last_gain: float, rest) -> float:
    """τ, half the pilot's last ranked gain; no run-ahead when the pilot is all."""
    return last_gain / 2 if rest else np.inf


def _pursue_in_process(pilot, rest, dico, criterion, stop):
    records = [_Record(st) for st in _init_states(pilot, dico, criterion)]
    merge = _Merge(records, lambda q: records[q].step(dico))
    merge.run(stop)
    tau = _threshold(merge.last_gain, rest)
    return tau, _run_ahead(records, rest, dico, criterion, tau)


def _shard_worker(index, pipes, shard, rest, dico, criterion):
    """Worker process: pursue ``shard`` in rounds of picks for the merge.

    A round is a run of the shard's own merge to ``ROUND`` more accepted
    atoms; the worker makes two unasked and one more for each ``True``
    from the merge, and after each round sends the ``news`` of every block
    whose log grew, by its index in the shard (every block's, the first
    time, as a log starts with the block's energy before any atom).
    When the merge stops, it sends the threshold ``tau``, which the worker
    reads before its next round; it runs the shard's blocks, then
    ``rest``'s, ahead to it and sends their records.  A failure sends, in
    their place, whether it was a ``MemoryError`` and its traceback.
    """
    conn = pipes[index][1]
    for pair in pipes:
        for end in pair:
            if end is not conn:
                end.close()
    try:
        records = [_Record(st) for st in _init_states(shard, dico, criterion)]
        merge = _Merge(records, lambda q: records[q].step(dico))
        credit, message = 2, True   # rounds to make before the merge asks again
        while message is True:
            if credit and not conn.poll():
                merge.run(_Budget(ROUND))
                news = enumerate(rec.news() for rec in records)
                conn.send(("logs", [(i, n) for i, n in news if n[0] or n[2]]))   # gains, energies
                credit -= 1
            else:   # read ahead, so that the threshold ends the rounds at once
                message = conn.recv()
                credit += 1
        conn.send(("results", _run_ahead(records, rest, dico, criterion, message)))
    except Exception as exc:
        import traceback   # a failing worker only: keeps the package import light

        conn.send(("failed", isinstance(exc, MemoryError), traceback.format_exc()))
    finally:
        conn.close()


def _receive(conn):
    """A worker's next message; raises if the worker failed or is gone.

    A worker that ran out of memory raises ``MemoryError`` here, as the
    pursuit in process would; any other failure ``RuntimeError``.
    """
    try:
        message = conn.recv()
    except (EOFError, ConnectionError):
        raise RuntimeError("a pursuit worker exited without its results") from None
    if message[0] == "failed":
        _, out_of_memory, trace = message
        if out_of_memory:
            raise MemoryError(f"a pursuit worker ran out of memory:\n{trace}")
        raise RuntimeError(f"a pursuit worker failed:\n{trace}")
    return message


def _send(conn, message) -> None:
    """Send ``message`` to a worker; if the worker is gone, ``_receive`` says why."""
    with contextlib.suppress(ConnectionError):
        conn.send(message)


def _pursue_in_workers(pilot, rest, dico, criterion, stop, workers):
    # imported here only: the import costs every start-up ~10 ms
    import multiprocessing

    # fork: the workers share the blocks and the imported codec with this
    # process instead of pickling and importing them again (the codec
    # starts no threads that a fork could catch holding a lock)
    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe() for _ in range(workers)]
    procs = []
    try:
        for w in range(workers):
            proc = ctx.Process(
                target=_shard_worker,
                args=(w, pipes, pilot[w::workers], rest[w::workers], dico, criterion),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        conns = [parent for parent, _ in pipes]
        for _, child in pipes:
            child.close()
        logs = [_Record() for _ in pilot]

        def extend(q):
            # worker w holds blocks w, w + P, ...; asked before its next
            # round is taken, it keeps computing while the merge runs
            w = q % workers
            _send(conns[w], True)
            for i, news in _receive(conns[w])[1]:
                logs[i * workers + w].add(*news)

        for w in range(workers):
            extend(w)
        merge = _Merge(logs, extend)
        merge.run(stop)
        tau = _threshold(merge.last_gain, rest)
        for conn in conns:
            _send(conn, tau)
        records = [None] * (len(pilot) + len(rest))
        for w, conn in enumerate(conns):
            while (message := _receive(conn))[0] != "results":
                pass   # a round made ahead of the stop
            shard = len(range(w, len(pilot), workers))
            records[w : len(pilot) : workers] = message[1][:shard]
            records[len(pilot) + w :: workers] = message[1][shard:]
        return tau, records
    finally:
        for proc in procs:
            proc.terminate()   # once it has sent its records, or failed, a worker is done
            proc.join()
        for pair in pipes:
            for end in pair:
                end.close()


def _pursue_blocks(blocks, dico, criterion, stop, threads) -> PursuitResult:
    """The pursuit of ``blocks`` under ``stop``.

    ``stop`` is a stop rule: ``stop.done`` is asked before the first pick
    and after each accepted atom, and ``stop.add(q, energy)`` records each
    accepted atom with block ``q``'s residual energy after it;
    ``stop.pilot(s, Q)`` is the same rule scaled to blocks ``0, s, 2s, ...``
    of ``Q``.

    At most ``LIVE_BLOCKS`` blocks keep their panels alive at once.  The
    pilot, blocks ``0, s, 2s, ...`` with ``s = ceil(Q / LIVE_BLOCKS)``,
    is merged live under the stop scaled to it.  If it leaves blocks out,
    the gain of its last pick sets ``tau`` at half of it; every block is
    pursued alone while its head gain is at least ``tau`` (the pilot's
    from where they stand, the others one at a time), and keeps only
    a ``_Record``.  A final ``_Merge`` of the records, the one source of
    the atom counts, the saturation flag and the stop's SNR trace, then
    replays the serial order under ``stop``.  If it needs a pick past a
    block's log, ``tau`` drops to at most half and to that gain, and
    every unsaturated block whose head reaches the new ``tau`` is run
    again from the start, which repeats its log exactly.
    """
    if not blocks:   # a table of no blocks would have no channel count
        raise ValueError("need at least one block")
    count = len(blocks)
    stride = max(1, -(-count // LIVE_BLOCKS))
    pilot = blocks[::stride]
    rest = [b for q, b in enumerate(blocks) if q % stride]
    pilot_stop = stop.pilot(stride, count)
    # a stop done before the first pick takes no atom, and forked workers
    # would compute their first rounds all the same
    workers = 1 if pilot_stop.done else worker_count(threads, len(pilot))
    if workers == 1:
        tau, records = _pursue_in_process(pilot, rest, dico, criterion, pilot_stop)
    else:
        tau, records = _pursue_in_workers(pilot, rest, dico, criterion, pilot_stop, workers)
    order = list(range(0, count, stride)) + [q for q in range(count) if q % stride]
    records = [records[i] for i in np.argsort(order, kind="stable")]

    def extend(q):
        nonlocal tau
        tau = min(tau / 2, records[q].head)
        again = [q for q, rec in enumerate(records) if rec.head >= tau]
        fresh = _run_ahead([], [blocks[q] for q in again], dico, criterion, tau)
        for q, rec in zip(again, fresh):
            records[q] = rec

    merge = _Merge(records, extend)
    saturated = merge.run(stop)
    indices, coefs, factors, energies = zip(
        *(_finish(rec, k) for rec, k in zip(records, merge.counts)))
    atoms = AtomTable([i.size for i in indices], np.concatenate(indices),
                      np.concatenate(coefs))
    return PursuitResult(atoms, saturated, list(factors), np.array(energies))


def hbw_pursuit(
    blocks,
    dico: TrigDictionary,
    budget: int,
    criterion: SelectionCriterion = SelectionCriterion.OOMPML,
    threads: int = 1,
) -> PursuitResult:
    """Distribute ``budget`` atoms over the partition, one upgrade at a time.

    Every step upgrades the block whose candidate has the largest gain.
    Results are deterministic, and independent of ``threads`` (see
    ``worker_count``), because ties break to the smallest atom and block
    indices.  A budget beyond what the partition can absorb returns at
    saturation with the ``saturated`` flag set rather than raising.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    _check_criterion(criterion)
    blocks = [_check_block(b, dico) for b in blocks]
    return _pursue_blocks(blocks, dico, criterion, _Budget(budget), threads)


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
    _check_criterion(criterion)
    blocks = [_check_block(b, dico) for b in blocks]
    energies = np.array([float(np.sum(np.square(b))) for b in blocks])
    if float(energies.sum()) <= 0:
        raise ValueError("zero signal has no SNR")
    # SNR reports cap at the lossless-at-tolerance sentinel, so a target
    # beyond the cap means "run until the residual hits the noise floor".
    stop = _SnrTarget(energies, min(target_snr_db, SNR_CAP_DB))
    result = _pursue_blocks(blocks, dico, criterion, stop, threads)
    return replace(result, snr_db=stop.snr, snr_trace=np.asarray(stop.trace))
