import contextlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdcodec import (
    SelectionCriterion,
    TrigDictionary,
    accept_candidate,
    compute_coefficients,
    hbw_pursuit,
    init_block_state,
    pursuit_to_snr,
    rank_blocks,
    select_candidate,
    snr,
    synthesize_block,
)
from tdcodec import pursuit
from tdcodec.pursuit import BlockState

from conftest import assert_state_invariants, random_blocks
from oracles import brute_force_hbw, lstsq_fit

OOMP = SelectionCriterion.OOMPML


def reconstruct(dico, result):
    return np.vstack(
        [synthesize_block(dico, d.indices, d.coefficients) for d in result.decompositions]
    )


def test_single_atom_block_selects_that_atom():
    d = TrigDictionary(16, 32)
    state = init_block_state(d.atom(7), d, OOMP)
    assert state.candidate[0] == 7
    assert accept_candidate(state, d)
    assert np.linalg.norm(state.residual) <= 1e-12


def _fabricated_state(dico, ip_rows):
    n_atoms = dico.num_atoms
    res_ip = np.zeros((n_atoms, 2))
    for n, row in ip_rows.items():
        res_ip[n - 1] = row
    return BlockState(
        block=np.zeros((dico.block_size, 2)),
        residual=np.zeros((dico.block_size, 2)),
        res_ip=res_ip,
        s_sums=np.zeros(n_atoms),
        criterion=OOMP,
        blocked=np.zeros(n_atoms, dtype=bool),
    )


def test_criterion_aggregations_differ_as_designed():
    # atom a: products (0.6, 0.0); atom b: (0.45, 0.45)
    d = TrigDictionary(8, 16)
    ips = {3: (0.6, 0.0), 5: (0.45, 0.45)}
    st = _fabricated_state(d, ips)
    select_candidate(st, d, SelectionCriterion.SOMP)
    assert st.candidate[0] == 5        # 0.9 beats 0.6
    st = _fabricated_state(d, ips)
    select_candidate(st, d, SelectionCriterion.MMV_OMP)
    assert st.candidate[0] == 5        # 0.405 beats 0.36
    st = _fabricated_state(d, ips)
    select_candidate(st, d, OOMP)
    assert st.candidate[0] == 5


@pytest.mark.parametrize("channels", [1, 2])
def test_selection_matches_exhaustive_least_squares_oracle(rng, channels):
    # with one channel and one block this is plain single-channel OOMP
    d = TrigDictionary(8, 16)
    block = rng.normal(size=(8, channels))
    state = init_block_state(block, d, OOMP)
    chosen = []
    for _ in range(3):
        from oracles import best_atom_for_block

        want, _ = best_atom_for_block(d, state.selected, block)
        assert state.candidate[0] == want
        assert accept_candidate(state, d)
        chosen.append(state.selected[-1])
        select_candidate(state, d, OOMP)
    assert chosen == state.selected


def test_rank_blocks_picks_largest_gain_and_breaks_ties_low():
    d = TrigDictionary(8, 16)
    hi = _fabricated_state(d, {1: (0.9, 0.0)})
    lo = _fabricated_state(d, {1: (0.4, 0.0)})
    select_candidate(hi, d, OOMP)
    select_candidate(lo, d, OOMP)
    assert rank_blocks([hi.gain, lo.gain]) == 0
    assert rank_blocks([lo.gain, hi.gain]) == 1
    assert rank_blocks([hi.gain, hi.gain]) == 0  # tie: smallest block index


def test_rank_blocks_on_gains_vector():
    assert rank_blocks([]) is None
    assert rank_blocks([-np.inf, -np.inf]) is None
    assert rank_blocks(np.array([0.5, 2.0, -np.inf, 2.0])) == 1   # tie goes low
    assert rank_blocks([-np.inf, 0.0]) == 1


def test_rank_blocks_returns_none_at_global_saturation():
    d = TrigDictionary(8, 16)
    st = init_block_state(np.zeros((8, 2)), d, OOMP)
    assert st.saturated
    assert rank_blocks([st.gain]) is None


def test_exact_atom_block_outranks_tiny_noise(rng):
    d = TrigDictionary(8, 16)
    noise = 1e-6 * rng.normal(size=(8, 2))
    pure = np.column_stack([2.0 * d.atom(5), 2.0 * d.atom(5)])
    states = [init_block_state(noise, d, OOMP), init_block_state(pure, d, OOMP)]
    assert rank_blocks([st.gain for st in states]) == 1
    # the exact atom's gain is the block's entire energy
    assert states[1].candidate[1] == pytest.approx(8.0, rel=1e-12)


def test_first_acceptance_sets_w_and_bior_to_the_atom():
    d = TrigDictionary(8, 16)
    state = init_block_state(1.5 * d.atom(4), d, OOMP)
    accept_candidate(state, d)
    assert state.ortho[0] == pytest.approx(d.atom(4), abs=1e-12)
    assert state.bior[0] == pytest.approx(d.atom(4), abs=1e-12)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("nb", [8, 16])
def test_state_invariants_on_random_runs(rng, nb, channels):
    d = TrigDictionary(nb, 2 * nb)
    for _ in range(5):
        block = rng.normal(size=(nb, channels))
        state = init_block_state(block, d, OOMP)
        for _ in range(nb // 2):
            if state.saturated:
                break
            if accept_candidate(state, d):
                select_candidate(state, d, OOMP)
            assert_state_invariants(state, d, block)


def test_invariants_hold_at_full_rank(rng):
    d = TrigDictionary(8, 16)
    block = rng.normal(size=(8, 1))
    state = init_block_state(block, d, OOMP)
    while not state.saturated:
        assert state.gain == state.candidate[1]
        if accept_candidate(state, d):
            select_candidate(state, d, OOMP)
        assert state.w.shape[0] <= min(d.block_size, d.num_atoms)
    assert len(state.selected) == 8
    assert state.gain == -np.inf
    assert_state_invariants(state, d, block)
    coef = compute_coefficients(state, block)
    approx = synthesize_block(d, state.selected, coef)
    assert approx == pytest.approx(block, abs=1e-7)


def test_w_capacity_doubles_from_eight_up_to_the_block_size(rng):
    d = TrigDictionary(64, 128)
    state = init_block_state(rng.normal(size=(64, 2)), d, OOMP)
    seen = set()
    while not state.saturated:
        if accept_candidate(state, d):
            seen.add(state.w.shape[0])
            select_candidate(state, d, OOMP)
    assert seen == {8, 16, 32, 64}
    assert state.r.shape == (64, 64)


def test_dependency_rejection_updates_the_gain(rng):
    d = TrigDictionary(8, 16)
    state = init_block_state(rng.normal(size=(8, 2)), d, OOMP)
    assert accept_candidate(state, d)
    select_candidate(state, d, OOMP)
    first = state.selected[0]
    # an atom already in the span is numerically dependent: rejected,
    # excluded, and the block moves on to a fresh candidate
    state.candidate = (first, 1.0)
    assert not accept_candidate(state, d)
    assert state.blocked[first - 1]
    assert state.candidate[0] != first
    assert state.gain == state.candidate[1] > 0

    # with nothing else left to try, the rejection leaves no candidate
    state.blocked[:] = True
    state.blocked[first - 1] = False
    state.candidate = (first, 1.0)
    assert not accept_candidate(state, d)
    assert state.saturated and state.candidate is None
    assert state.gain == -np.inf


def test_projection_coefficient_for_generating_atom():
    d = TrigDictionary(16, 32)
    block = 2.5 * d.atom(3)
    state = init_block_state(block, d, OOMP)
    accept_candidate(state, d)
    coef = compute_coefficients(state, block)
    assert coef == pytest.approx(np.array([[2.5]]), abs=1e-12)


def test_coefficients_match_normal_equations(rng):
    d = TrigDictionary(16, 32)
    block = rng.normal(size=(16, 2))
    state = init_block_state(block, d, OOMP)
    for _ in range(4):
        accept_candidate(state, d)
        select_candidate(state, d, OOMP)
    coef = compute_coefficients(state, block)
    want, _ = lstsq_fit(d, state.selected, block)
    assert coef == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_negative_budget_rejected(rng):
    d = TrigDictionary(8, 16)
    with pytest.raises(ValueError):
        hbw_pursuit(random_blocks(rng, 1, 8, 1), d, -1)


def test_zero_budget_returns_empty_decompositions(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    res = hbw_pursuit(blocks, d, 0)
    assert res.atom_count == 0
    assert all(dec.atom_count == 0 for dec in res.decompositions)


def test_distinct_single_atoms_resolve_exactly(rng):
    d = TrigDictionary(8, 16)
    gains = [1.0, 2.0, 0.5]
    atoms = [3, 11, 27]
    blocks = [
        np.column_stack([g * d.atom(n), 0.5 * g * d.atom(n)])
        for g, n in zip(gains, atoms)
    ]
    res = hbw_pursuit(blocks, d, budget=3)
    for dec, n in zip(res.decompositions, atoms):
        assert list(dec.indices) == [n]
    assert np.linalg.norm(np.vstack(blocks) - reconstruct(d, res)) <= 1e-10


def test_hbw_sequence_matches_brute_force_oracle(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    want_seq, want_sel = brute_force_hbw(blocks, d, 9)

    states = [init_block_state(b, d, OOMP) for b in blocks]
    got_seq = []
    for _ in range(9):
        q = rank_blocks([st.gain for st in states])
        if q is None:
            break
        assert accept_candidate(states[q], d)
        got_seq.append((q, states[q].selected[-1]))
        select_candidate(states[q], d, OOMP)
    assert got_seq == want_seq
    assert [st.selected for st in states] == want_sel


def test_budget_beyond_capacity_sets_saturated_flag(rng):
    d = TrigDictionary(4, 8)
    blocks = [rng.normal(size=(4, 1))]
    res = hbw_pursuit(blocks, d, budget=10)
    assert res.saturated
    assert res.atom_count == 4


def test_budget_and_snr_stops_share_one_selection_sequence(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 4, 8, 2)
    by_snr = pursuit_to_snr(blocks, d, 25.0)
    by_budget = hbw_pursuit(blocks, d, by_snr.atom_count)
    assert by_budget.atom_count == by_snr.atom_count
    assert not by_budget.saturated
    for a, b in zip(by_snr.decompositions, by_budget.decompositions):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.coefficients, b.coefficients)


def test_silent_block_gets_no_atoms(rng):
    d = TrigDictionary(8, 16)
    blocks = [np.zeros((8, 2)), rng.normal(size=(8, 2))]
    res = hbw_pursuit(blocks, d, budget=4)
    assert res.decompositions[0].atom_count == 0
    assert res.decompositions[1].atom_count == 4


def test_somp_equals_mmv_for_single_channel(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 2, 8, 1)
    a = hbw_pursuit(blocks, d, 6, SelectionCriterion.SOMP)
    b = hbw_pursuit(blocks, d, 6, SelectionCriterion.MMV_OMP)
    for da, db in zip(a.decompositions, b.decompositions):
        assert np.array_equal(da.indices, db.indices)


def test_pursuit_is_deterministic_across_threads(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 4, 8, 2)
    a = hbw_pursuit(blocks, d, 10, threads=1)
    b = hbw_pursuit(blocks, d, 10, threads=3)
    for da, db in zip(a.decompositions, b.decompositions):
        assert np.array_equal(da.indices, db.indices)
        assert np.array_equal(da.coefficients, db.coefficients)


@pytest.mark.parametrize("chunk_bins", [1, 100, 1 << 16])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batched_initial_panels_match_one_block_states(rng, monkeypatch, workers,
                                                       chunk_bins):
    # each worker takes blocks w, w + P, ... and computes their initial
    # panels from chunked batch FFTs; every panel must equal, bit for bit,
    # the one a block computes on its own, so the first candidates and
    # gains (and every selection after them) match
    monkeypatch.setattr(pursuit, "FFT_CHUNK_BINS", chunk_bins)
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 9, 16, 3)
    blocks[4] = np.zeros((16, 3))    # silent
    for w in range(workers):
        shard = blocks[w::workers]
        states = pursuit._init_states(shard, d, OOMP)
        assert len(states) == len(shard)
        for st, b in zip(states, shard):
            alone = init_block_state(b, d, OOMP)
            assert np.array_equal(st.res_ip, alone.res_ip)
            assert st.res_ip.flags.f_contiguous
            assert st.candidate == alone.candidate
            assert st.gain == alone.gain
            assert st.saturated == alone.saturated
            assert st.saturated == (b is blocks[4])


def test_panel_refresh_keeps_long_runs_healthy(rng):
    # run past the refresh interval on one block
    d = TrigDictionary(64, 128)
    block = rng.normal(size=(64, 2))
    state = init_block_state(block, d, OOMP)
    for _ in range(40):
        if state.saturated:
            break
        if accept_candidate(state, d):
            select_candidate(state, d, OOMP)
    assert state.atom_count >= 40 or state.saturated
    assert_state_invariants(state, d, block)


@pytest.mark.parametrize("mode", ["budget", "snr"])
def test_result_carries_each_blocks_factor_and_residual_energy(rng, mode):
    # the encoder's error model reads these instead of rebuilding the atoms
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 4, 16, 2) + [np.zeros((16, 2))]
    if mode == "budget":
        res = hbw_pursuit(blocks, d, 20)
    else:
        res = pursuit_to_snr(blocks, d, 15.0)
    for block, dec, r, energy in zip(
        blocks, res.decompositions, res.factors, res.residual_energies
    ):
        atoms = d.atoms_matrix(dec.indices)
        assert r.shape == (dec.atom_count,) * 2 and np.array_equal(np.triu(r), r)
        assert np.allclose(r.T @ r, atoms @ atoms.T, rtol=0, atol=1e-12)
        residual = block - atoms.T @ dec.coefficients
        assert energy == pytest.approx(np.sum(residual**2), rel=1e-12, abs=1e-14)


def test_snr_target_zero_returns_no_atoms(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 2, 8, 2)
    res = pursuit_to_snr(blocks, d, 0.0)
    assert res.atom_count == 0
    assert not res.saturated
    assert res.snr_db == 0.0


def test_exactly_sparse_signal_reaches_noise_floor(rng):
    d = TrigDictionary(8, 16)
    blocks = []
    for _ in range(3):
        n1, n2 = rng.choice(np.arange(1, 33), size=2, replace=False)
        c = rng.normal(size=(2, 2))
        blocks.append(
            np.outer(d.atom(n1), c[0]) + np.outer(d.atom(n2), c[1])
        )
    res = pursuit_to_snr(blocks, d, 300.0)
    assert not res.saturated
    assert res.atom_count == 6
    # residual at the numeric floor reports the lossless sentinel
    assert res.snr_db >= 200.0


def test_running_snr_matches_from_scratch(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    res = pursuit_to_snr(blocks, d, 30.0)
    assert not res.saturated
    assert res.snr_db >= 30.0
    fresh = snr(np.vstack(blocks), reconstruct(d, res))
    assert res.snr_db == pytest.approx(fresh, abs=1e-6)
    # achieved SNR does not overshoot by more than the final step's gain
    if res.snr_trace.size >= 2:
        assert res.snr_trace[-2] < 30.0


def test_snr_trace_is_nondecreasing(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    res = pursuit_to_snr(blocks, d, 60.0)
    assert np.all(np.diff(res.snr_trace) >= -1e-9)


def test_target_beyond_cap_stops_at_lossless_sentinel(rng):
    # a full-rank selection reconstructs the block exactly, so targets
    # above the report cap stop once the residual hits the noise floor
    d = TrigDictionary(4, 8)
    blocks = [rng.normal(size=(4, 1))]
    res = pursuit_to_snr(blocks, d, 500.0)
    assert not res.saturated
    assert res.atom_count == 4
    assert res.snr_db == 200.0


def test_saturation_before_target_is_flagged(monkeypatch, rng):
    import tdcodec.pursuit as pu

    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 2, 8, 1)
    real_rank = pu.rank_blocks
    calls = {"n": 0}

    def exhausted_after_three(states):
        calls["n"] += 1
        return None if calls["n"] > 3 else real_rank(states)

    monkeypatch.setattr(pu, "rank_blocks", exhausted_after_three)
    res = pu.pursuit_to_snr(blocks, d, 100.0)
    assert res.saturated
    assert res.atom_count == 3
    assert res.snr_db < 100.0


def test_zero_signal_has_no_snr_target():
    d = TrigDictionary(8, 16)
    with pytest.raises(ValueError):
        pursuit_to_snr([np.zeros((8, 2))], d, 10.0)


def test_accept_without_candidate_raises():
    d = TrigDictionary(8, 16)
    state = init_block_state(np.zeros((8, 1)), d, OOMP)
    with pytest.raises(RuntimeError):
        accept_candidate(state, d)


def test_monotone_residual_reduction(rng):
    d = TrigDictionary(8, 16)
    block = rng.normal(size=(8, 2))
    state = init_block_state(block, d, OOMP)
    last = np.sum(block * block)
    for _ in range(6):
        accept_candidate(state, d)
        cur = float(np.sum(state.residual**2))
        assert cur < last
        last = cur
        select_candidate(state, d, OOMP)


# --- worker processes --------------------------------------------------------


def test_worker_count_is_bounded_by_cores_and_blocks(monkeypatch):
    import multiprocessing

    # worked out before anything is started, so a huge request starts nothing
    cores = os.cpu_count() or 1
    assert pursuit.worker_count(100_000, 10**9) == cores
    assert pursuit.worker_count(100_000, 3) == min(cores, 3)
    assert pursuit.worker_count(1, 50) == 1
    assert pursuit.worker_count(4, 0) == 1
    monkeypatch.setattr(pursuit.os, "cpu_count", lambda: None)
    assert pursuit.worker_count(100_000, 50) == 1
    assert multiprocessing.active_children() == []


def _one_worker_per_thread(monkeypatch):
    # the replay is compared at more workers than the machine may have cores
    monkeypatch.setattr(
        pursuit, "worker_count", lambda threads, blocks: max(1, min(threads, blocks))
    )


def _rejecting(rule, tally):
    """``accept_candidate`` that finds the atoms ``rule`` picks in the span.

    Such an atom goes the way of a dependency rejection: it is excluded and
    the block selects a fresh candidate, whose gain differs.  A natural
    rejection needs rounding that no small fixture shows.
    """
    real = pursuit.accept_candidate

    def accept(state, dico):
        if rule(state, state.candidate[0]):
            tally["rejections"] += 1
            state.blocked[state.candidate[0] - 1] = True
            pursuit.select_candidate(state, dico, state.criterion)
            return False
        return real(state, dico)

    return accept


def _noting_run_ahead(real):
    def finish(state, k, energy):
        dec, factor, e = real(state, k, energy)
        dec.ran_ahead = state.atom_count - k   # pickled with the decomposition
        return dec, factor, e

    return finish


def _replay_case(case, rng):
    """``(dico, blocks, rejection rule, budget, SNR target)`` of one fixture."""
    if case == "saturating":
        # every atom after a block's third is rejected: both stops saturate;
        # at three workers, worker 1 holds only silent blocks
        blocks = random_blocks(rng, 5, 4, 2)
        blocks[1] = blocks[4] = np.zeros((4, 2))
        rule = lambda st, n: len(st.selected) >= 3   # noqa: E731
        return TrigDictionary(4, 8), blocks, rule, 10**6, 500.0
    blocks = random_blocks(rng, 7, 16, 2)
    blocks[5] = np.zeros((16, 2))
    # equal blocks tie at every step; the lower block index goes first, and
    # at two and three workers it is not always the lower worker's
    blocks[2] = blocks[1].copy()
    blocks[3] = blocks[1].copy()
    if case == "loud-block":
        # block 4 holds nearly all the energy, so both stops end inside its
        # opening run of picks, which its worker has computed ahead
        blocks[4] *= 30.0
        return TrigDictionary(16, 32), blocks, None, 8, 12.0
    rule = (lambda st, n: st.selected and n % 5 == 0) if case == "rejecting" else None
    return TrigDictionary(16, 32), blocks, rule, 40, 25.0


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
@pytest.mark.parametrize("mode", ["budget", "snr"])
@pytest.mark.parametrize("case", ["mixed", "loud-block", "rejecting", "saturating"])
def test_worker_processes_replay_the_serial_pursuit_exactly(rng, monkeypatch, case,
                                                            mode, criterion):
    d, blocks, rule, budget, target = _replay_case(case, rng)
    _one_worker_per_thread(monkeypatch)
    tally = {"rejections": 0}
    if rule is not None:
        monkeypatch.setattr(pursuit, "accept_candidate", _rejecting(rule, tally))
    monkeypatch.setattr(pursuit, "_finish", _noting_run_ahead(pursuit._finish))

    def run(threads):
        if mode == "budget":
            return hbw_pursuit(blocks, d, budget, criterion, threads=threads)
        return pursuit_to_snr(blocks, d, target, criterion, threads=threads)

    serial = run(1)
    assert serial.atom_count > 0
    assert serial.saturated == (case == "saturating")
    assert (tally["rejections"] > 0) == (rule is not None)   # counted in process
    for threads in (2, 3):
        res = run(threads)
        assert res.atom_count == serial.atom_count
        assert res.saturated == serial.saturated
        assert res.snr_db == serial.snr_db
        if mode == "snr":
            assert np.array_equal(res.snr_trace, serial.snr_trace)
        else:
            assert res.snr_trace is None
        assert np.array_equal(res.residual_energies, serial.residual_energies)
        for got, want, got_r, want_r in zip(
            res.decompositions, serial.decompositions, res.factors, serial.factors
        ):
            assert np.array_equal(got.indices, want.indices)
            assert got.coefficients.shape == want.coefficients.shape
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got_r.shape == want_r.shape and np.array_equal(got_r, want_r)
        if case == "loud-block":
            assert res.decompositions[4].ran_ahead > 0


def test_truncating_a_block_that_ran_ahead_equals_stopping_it_there(rng):
    d = TrigDictionary(16, 32)
    block = rng.normal(size=(16, 3))

    def run(atoms):
        state = init_block_state(block, d, OOMP)
        energies = [pursuit._energy(state)]
        while state.atom_count < atoms:
            if accept_candidate(state, d):
                energies.append(pursuit._energy(state))
                select_candidate(state, d, OOMP)
        return state, energies

    ahead, energies = run(12)
    for k in (0, 1, 7, 12):
        exact, exact_energies = run(k)
        got = pursuit._finish(ahead, k, energies[k])
        want = pursuit._finish(exact, k, exact_energies[k])
        assert np.array_equal(got[0].indices, want[0].indices)
        assert got[0].coefficients.tobytes() == want[0].coefficients.tobytes()
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2] == pursuit._energy(exact)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the block takes longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _failing_accept(how):
    parent = os.getpid()

    def accept(state, dico):
        if how == "dies" and os.getpid() != parent:
            os._exit(7)
        raise ZeroDivisionError("accept failed")

    return accept


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_a_failing_worker_fails_the_pursuit_and_leaves_no_process(rng, monkeypatch,
                                                                    how):
    import multiprocessing

    _one_worker_per_thread(monkeypatch)
    monkeypatch.setattr(pursuit, "accept_candidate", _failing_accept(how))
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 6, 16, 2)
    message = "ZeroDivisionError" if how == "raises" else "exited"
    with _deadline(60):
        with pytest.raises(RuntimeError, match=message):
            hbw_pursuit(blocks, d, 10, threads=3)
        with pytest.raises(RuntimeError, match=message):
            pursuit_to_snr(blocks, d, 20.0, threads=2)
    assert multiprocessing.active_children() == []


def test_a_failing_worker_fails_the_encode_and_leaves_no_process(tmp_path, rng,
                                                                  monkeypatch):
    import multiprocessing

    from tdcodec import MultichannelSignal, write_wav
    from tdcodec.cli import EncodeConfig, cmd_encode

    _one_worker_per_thread(monkeypatch)
    monkeypatch.setattr(pursuit, "accept_candidate", _failing_accept("raises"))
    wav = tmp_path / "in.wav"
    write_wav(wav, MultichannelSignal(0.3 * rng.normal(size=(4000, 2)), 8000))
    cfg = EncodeConfig(str(wav), str(tmp_path / "out.tdc"), block_size=256,
                       budget=50, threads=2)
    with _deadline(60), pytest.raises(RuntimeError, match="ZeroDivisionError"):
        cmd_encode(cfg, out=io.StringIO())
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out.tdc").exists()


def test_importing_the_codec_loads_no_process_or_thread_pool():
    # multiprocessing is imported when workers start, not with the package
    code = (
        "import sys, tdcodec, tdcodec.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
