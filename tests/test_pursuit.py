import contextlib
import io
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdcodec import SelectionCriterion, TrigDictionary, hbw_pursuit, pursuit_to_snr, snr
from tdcodec import dictionary, pursuit
from tdcodec.dictionary import synthesize_block
from tdcodec.pursuit import (
    BlockState,
    accept_candidate,
    compute_coefficients,
    init_block_state,
    rank_blocks,
    select_candidate,
)

from conftest import assert_state_invariants, random_blocks
from oracles import bior, brute_force_hbw, lstsq_fit, ortho

OOMP = SelectionCriterion.OOMPML


def reconstruct(dico, result):
    return np.vstack(dico.synthesize(result.atoms))


def test_single_atom_block_selects_that_atom():
    d = TrigDictionary(16, 32)
    state = init_block_state(d.atom(7), d, OOMP)
    assert state.candidate == 7
    assert accept_candidate(state, d)
    assert np.linalg.norm(state.residual) <= 1e-12


def _fabricated_state(dico, ip_rows, criterion=OOMP):
    n_atoms = dico.num_atoms
    res_ip = np.zeros((n_atoms, 2))
    for n, row in ip_rows.items():
        res_ip[n - 1] = row
    return BlockState(
        residual=np.zeros((dico.block_size, 2)),
        res_ip=res_ip,
        s_sums=np.zeros(n_atoms),
        criterion=criterion,
    )


def test_criterion_aggregations_differ_as_designed():
    # atom a: products (0.6, 0.0); atom b: (0.45, 0.45)
    d = TrigDictionary(8, 16)
    ips = {3: (0.6, 0.0), 5: (0.45, 0.45)}
    st = _fabricated_state(d, ips, SelectionCriterion.SOMP)
    select_candidate(st, d)
    assert st.candidate == 5        # 0.9 beats 0.6
    st = _fabricated_state(d, ips, SelectionCriterion.MMV_OMP)
    select_candidate(st, d)
    assert st.candidate == 5        # 0.405 beats 0.36
    st = _fabricated_state(d, ips, OOMP)
    select_candidate(st, d)
    assert st.candidate == 5


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
        assert state.candidate == want
        assert accept_candidate(state, d)
        chosen.append(state.selected[-1])
    assert chosen == state.selected


def test_rank_blocks_picks_largest_gain_and_breaks_ties_low():
    d = TrigDictionary(8, 16)
    hi = _fabricated_state(d, {1: (0.9, 0.0)})
    lo = _fabricated_state(d, {1: (0.4, 0.0)})
    select_candidate(hi, d)
    select_candidate(lo, d)
    assert rank_blocks([hi.gain, lo.gain]) == 0
    assert rank_blocks([lo.gain, hi.gain]) == 1
    assert rank_blocks([hi.gain, hi.gain]) == 0  # tie: smallest block index


def test_rank_blocks_on_gains_vector():
    assert rank_blocks([]) is None
    assert rank_blocks([-np.inf, -np.inf]) is None
    assert rank_blocks(np.array([0.5, 2.0, -np.inf, 2.0])) == 1   # tie goes low
    assert rank_blocks([-np.inf, 0.0]) == 1


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
def test_rank_blocks_returns_none_at_global_saturation(criterion):
    # a silent block has no atom that reduces its residual
    d = TrigDictionary(8, 16)
    st = init_block_state(np.zeros((8, 2)), d, criterion)
    assert st.saturated
    assert (st.candidate, st.gain) == (None, -np.inf)
    assert rank_blocks([st.gain]) is None


def test_exact_atom_block_outranks_tiny_noise(rng):
    d = TrigDictionary(8, 16)
    noise = 1e-6 * rng.normal(size=(8, 2))
    pure = np.column_stack([2.0 * d.atom(5), 2.0 * d.atom(5)])
    states = [init_block_state(noise, d, OOMP), init_block_state(pure, d, OOMP)]
    assert rank_blocks([st.gain for st in states]) == 1
    # the exact atom's gain is the block's entire energy
    assert states[1].gain == pytest.approx(8.0, rel=1e-12)


def test_first_acceptance_sets_w_and_bior_to_the_atom():
    d = TrigDictionary(8, 16)
    state = init_block_state(1.5 * d.atom(4), d, OOMP)
    accept_candidate(state, d)
    assert ortho(state)[0] == pytest.approx(d.atom(4), abs=1e-12)
    assert bior(state)[0] == pytest.approx(d.atom(4), abs=1e-12)


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
            accept_candidate(state, d)
            assert_state_invariants(state, d, block)


def test_invariants_hold_at_full_rank(rng):
    d = TrigDictionary(8, 16)
    block = rng.normal(size=(8, 1))
    state = init_block_state(block, d, OOMP)
    while not state.saturated:
        accept_candidate(state, d)
        assert state.w.shape[0] <= min(d.block_size, d.num_atoms)
    assert len(state.selected) == 8
    assert state.gain == -np.inf
    assert_state_invariants(state, d, block)
    coef = compute_coefficients(state)
    approx = synthesize_block(d, state.selected, coef)
    assert approx == pytest.approx(block, abs=1e-7)


def test_w_capacity_doubles_from_eight_up_to_the_block_size(rng):
    d = TrigDictionary(64, 128)
    state = init_block_state(rng.normal(size=(64, 2)), d, OOMP)
    seen = set()
    while not state.saturated:
        if accept_candidate(state, d):
            seen.add(state.w.shape[0])
    assert seen == {8, 16, 32, 64}
    assert state.r.shape == (64, 64)


def test_dependency_rejection_updates_the_gain(rng):
    d = TrigDictionary(8, 16)
    state = init_block_state(rng.normal(size=(8, 2)), d, OOMP)
    assert accept_candidate(state, d)
    first = state.selected[0]
    # an atom already in the span is numerically dependent: rejected,
    # excluded with S_n = 1 whatever its sum read, and the block moves on
    # to a fresh candidate
    state.candidate, state.gain = first, 1.0
    state.s_sums[first - 1] = 0.0
    assert not accept_candidate(state, d)
    assert state.s_sums[first - 1] == 1.0
    assert state.candidate != first
    assert 0 < state.gain != 1.0

    # with nothing else left to try, the rejection leaves no candidate
    state.s_sums[:] = 1.0
    state.candidate, state.gain = first, 1.0
    assert not accept_candidate(state, d)
    assert state.saturated and state.candidate is None
    assert state.gain == -np.inf


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
def test_selection_never_returns_an_atom_at_the_dependency_floor(rng, criterion):
    floor = pursuit.DEPENDENCY_FLOOR
    d = TrigDictionary(16, 32)
    state = _fabricated_state(d, {}, criterion)
    state.res_ip = rng.normal(size=state.res_ip.shape)
    select_candidate(state, d)
    # just above the floor an atom is free: OOMP ranks it higher still
    first = state.candidate
    state.s_sums[first - 1] = 1.0 - 2 * floor
    select_candidate(state, d)
    assert state.candidate == first
    # at, inside and past the floor it is out, and the next best is picked
    for s_n in (1.0 - floor / 2, 1.0, 1.0 + 1e-12):
        state.s_sums[state.candidate - 1] = s_n
        assert 1.0 - s_n <= floor
        denom = 1.0 - state.s_sums
        free = denom > floor
        select_candidate(state, d)
        assert free[state.candidate - 1]
        sq = np.sum(state.res_ip ** 2, axis=1)
        scores = {SelectionCriterion.SOMP: np.abs(state.res_ip).sum(axis=1),
                  SelectionCriterion.MMV_OMP: sq,
                  OOMP: sq / np.where(free, denom, 1.0)}[criterion]
        assert state.candidate == 1 + int(np.argmax(np.where(free, scores, -np.inf)))

    # and at every step of a pursuit, rejections included
    block = rng.normal(size=(16, 2))
    state = init_block_state(block, d, criterion)
    while not state.saturated:
        assert 1.0 - state.s_sums[state.candidate - 1] > floor
        accept_candidate(state, d)
    assert_state_invariants(state, d, block)


def test_projection_coefficient_for_generating_atom():
    d = TrigDictionary(16, 32)
    block = 2.5 * d.atom(3)
    state = init_block_state(block, d, OOMP)
    accept_candidate(state, d)
    coef = compute_coefficients(state)
    assert coef == pytest.approx(np.array([[2.5]]), abs=1e-12)


def test_coefficients_match_normal_equations(rng):
    d = TrigDictionary(16, 32)
    block = rng.normal(size=(16, 2))
    state = init_block_state(block, d, OOMP)
    for _ in range(4):
        accept_candidate(state, d)
    coef = compute_coefficients(state)
    want, _ = lstsq_fit(d, state.selected, block)
    assert coef == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_negative_budget_rejected(rng):
    d = TrigDictionary(8, 16)
    with pytest.raises(ValueError):
        hbw_pursuit(random_blocks(rng, 1, 8, 1), d, -1)


def test_a_pursuit_of_no_blocks_is_refused():
    d = TrigDictionary(8, 16)
    for budget in (0, 3):
        with pytest.raises(ValueError, match="at least one block"):
            hbw_pursuit([], d, budget)
    with pytest.raises(ValueError, match="zero signal"):
        pursuit_to_snr([], d, 20.0)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_a_target_snr_that_is_not_finite_is_refused(rng, target):
    blocks = random_blocks(rng, 2, 8, 2)
    with pytest.raises(ValueError, match="target SNR must be finite"):
        pursuit_to_snr(blocks, TrigDictionary(8, 16), target)


def _assert_no_atoms(res, blocks):
    """``res`` holds no atom, unsaturated, and each block's energy as its residual's."""
    channels = blocks[0].shape[1]
    assert res.atom_count == 0
    assert not res.saturated
    assert res.atoms.counts.tolist() == [0] * len(blocks)
    assert res.atoms.indices.shape == (0,)
    assert res.atoms.values.shape == (0, channels)
    assert [r.shape for r in res.factors] == [(0, 0)] * len(blocks)
    # summed over the channel-major residual, so equal to the blocks' to a few ulps
    np.testing.assert_allclose(res.residual_energies,
                               [np.sum(np.square(b)) for b in blocks], rtol=1e-15, atol=0)


# every path a pursuit can take: in process or in two workers, with every
# block live or with a pilot (``LIVE_BLOCKS`` capped, as in
# ``test_a_capped_pursuit_equals_the_all_live_one``)
_PATHS = pytest.mark.parametrize("threads, capped",
                                 [(1, False), (2, False), (1, True), (2, True)])


@_PATHS
def test_zero_budget_returns_empty_decompositions(rng, monkeypatch, threads, capped):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    _one_worker_per_thread(monkeypatch)
    if capped:
        monkeypatch.setattr(pursuit, "LIVE_BLOCKS", CAPPED)
    with _deadline(60):
        res = hbw_pursuit(blocks, d, 0, threads=threads)
    _assert_no_atoms(res, blocks)
    assert res.snr_db is None and res.snr_trace is None


def test_distinct_single_atoms_resolve_exactly(rng):
    d = TrigDictionary(8, 16)
    gains = [1.0, 2.0, 0.5]
    atoms = [3, 11, 27]
    blocks = [
        np.column_stack([g * d.atom(n), 0.5 * g * d.atom(n)])
        for g, n in zip(gains, atoms)
    ]
    res = hbw_pursuit(blocks, d, budget=3)
    for (idx, _), n in zip(res.atoms, atoms):
        assert list(idx) == [n]
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
    a, b = by_snr.atoms, by_budget.atoms
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)


def test_silent_block_gets_no_atoms(rng):
    d = TrigDictionary(8, 16)
    blocks = [np.zeros((8, 2)), rng.normal(size=(8, 2))]
    res = hbw_pursuit(blocks, d, budget=4)
    assert res.atoms.counts.tolist() == [0, 4]


def test_somp_equals_mmv_for_single_channel(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 2, 8, 1)
    a = hbw_pursuit(blocks, d, 6, SelectionCriterion.SOMP)
    b = hbw_pursuit(blocks, d, 6, SelectionCriterion.MMV_OMP)
    assert np.array_equal(a.atoms.counts, b.atoms.counts)
    assert np.array_equal(a.atoms.indices, b.atoms.indices)


def test_pursuit_is_deterministic_across_threads(rng):
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 4, 8, 2)
    a = hbw_pursuit(blocks, d, 10, threads=1)
    b = hbw_pursuit(blocks, d, 10, threads=3)
    assert np.array_equal(a.atoms.counts, b.atoms.counts)
    assert np.array_equal(a.atoms.indices, b.atoms.indices)
    assert np.array_equal(a.atoms.values, b.atoms.values)


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
@pytest.mark.parametrize("chunk_bins", [1, 100, 1 << 16])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batched_initial_panels_match_one_block_states(rng, monkeypatch, workers,
                                                       chunk_bins, criterion):
    # each worker takes blocks w, w + P, ... and starts them through
    # _init_states; every panel must equal, bit for bit, the one a block
    # computes on its own, whatever the FFT chunk of synthesis, so the first
    # candidates and gains (and every selection after them) match
    monkeypatch.setattr(dictionary, "FFT_CHUNK_BINS", chunk_bins)
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 9, 16, 3)
    blocks[4] = np.zeros((16, 3))    # silent
    for w in range(workers):
        shard = blocks[w::workers]
        states = list(pursuit._init_states(shard, d, criterion))
        assert len(states) == len(shard)
        for st, b in zip(states, shard):
            alone = init_block_state(b, d, criterion)
            assert np.array_equal(st.res_ip, alone.res_ip)
            assert st.res_ip.flags.f_contiguous
            assert st.candidate == alone.candidate
            assert st.gain == alone.gain
            assert st.saturated == alone.saturated
            assert st.saturated == (b is blocks[4])
            if st.saturated:
                assert (st.candidate, st.gain) == (None, -np.inf)


@pytest.mark.parametrize("live", [None, 4])
def test_every_panel_is_computed_one_row_at_a_time(rng, monkeypatch, live):
    # _panel is the one routine that computes a block's panel, a channel at
    # a time, at a block's start and at each refresh (every 4th atom here),
    # with every block live and when blocks run ahead past LIVE_BLOCKS
    if live is not None:
        monkeypatch.setattr(pursuit, "LIVE_BLOCKS", live)
    monkeypatch.setattr(pursuit, "REFRESH_INTERVAL", 4)
    shapes = []
    products = TrigDictionary.all_inner_products

    def noting(self, y):
        shapes.append(np.shape(y))
        return products(self, y)

    monkeypatch.setattr(TrigDictionary, "all_inner_products", noting)
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 9, 16, 3)
    assert hbw_pursuit(blocks, d, 60).atom_count == 60
    assert pursuit_to_snr(blocks, d, 25.0).snr_db >= 25.0
    assert len(shapes) > 2 * 9 * 3
    assert set(shapes) == {(16,)}


def test_panel_refresh_keeps_long_runs_healthy(rng):
    # run past the refresh interval on one block
    d = TrigDictionary(64, 128)
    block = rng.normal(size=(64, 2))
    state = init_block_state(block, d, OOMP)
    for _ in range(40):
        if state.saturated:
            break
        accept_candidate(state, d)
    assert state.atom_count >= 40 or state.saturated
    assert_state_invariants(state, d, block)


@pytest.mark.parametrize("bad", ["nan", "inf", "3-D", "short"])
def test_pursuits_refuse_blocks_that_are_not_finite_n_b_by_l(rng, bad):
    # refused at the input check, not deep in the pursuit or the delta search
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 3, 16, 2)
    if bad == "3-D":
        blocks[1] = blocks[1][:, :, None]
    elif bad == "short":
        blocks[1] = blocks[1][:15]
    else:
        blocks[1][7, 1] = float(bad)
    match = "must be finite" if bad in ("nan", "inf") else r"must be \(16, L\)"
    for run in (lambda: hbw_pursuit(blocks, d, 12), lambda: pursuit_to_snr(blocks, d, 20.0),
                lambda: init_block_state(blocks[1], d, OOMP)):
        with pytest.raises(ValueError, match=match):
            run()


def test_a_pursuit_checks_and_initializes_each_block_once(rng, monkeypatch):
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 5, 16, 2)
    calls = []

    def counted(name):
        real = getattr(pursuit, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("_check_block", "init_block_state"):
        monkeypatch.setattr(pursuit, name, counted(name))
    for run in (lambda: hbw_pursuit(blocks, d, 12), lambda: pursuit_to_snr(blocks, d, 20.0)):
        calls.clear()
        run()
        assert sorted(calls) == ["_check_block"] * 5 + ["init_block_state"] * 5


@pytest.mark.parametrize("bad", ["nan", "oomp", "bogus"])
def test_pursuits_refuse_bad_input_before_any_block_is_pursued(rng, monkeypatch, bad):
    # select_candidate would score a criterion that is not a member as MMV-OMP
    def pursued(*args, **kwargs):
        raise AssertionError("pursued")

    monkeypatch.setattr(pursuit, "_pursue_blocks", pursued)
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 4, 16, 2)
    criterion = OOMP
    if bad == "nan":
        blocks[2][5, 0] = math.nan
    else:
        criterion = bad
    match = "must be finite" if bad == "nan" else "is not a SelectionCriterion"
    for run in (lambda: hbw_pursuit(blocks, d, 12, criterion, threads=2),
                lambda: pursuit_to_snr(blocks, d, 20.0, criterion, threads=2),
                lambda: init_block_state(blocks[2], d, criterion)):
        with pytest.raises(ValueError, match=match):
            run()


@pytest.mark.parametrize("channels", [1, 6])
def test_pursuit_leaves_the_callers_blocks_unchanged(rng, channels):
    # the residual is a channel-major copy; a mono (N_b, 1) block is
    # already Fortran-ordered, so a copy-if-needed would alias it
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 3, 16, channels)
    if channels == 1:
        blocks.append(rng.normal(size=16))   # 1-D: pursued as a (16, 1) view
    before = [b.copy() for b in blocks]
    hbw_pursuit(blocks, d, 12)
    pursuit_to_snr(blocks, d, 20.0)
    state = init_block_state(blocks[0], d, OOMP)
    for _ in range(5):
        accept_candidate(state, d)
    assert not np.shares_memory(state.residual, blocks[0])
    for b, want in zip(blocks, before):
        assert np.array_equal(b, want)


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
def test_first_candidate_is_the_argmax_of_the_panel_to_the_bit(rng, criterion):
    # no atom yet: every denominator is exactly 1 and every atom is free, so
    # the first pick is the argmax of the panel's energies (of its absolute
    # sums under SOMP), and its gain is that atom's energy
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 6, 16, 3)
    blocks[1][:, 2] = 0.0                     # one silent channel
    blocks[2] = np.zeros((16, 3))             # a silent block
    blocks[3] = np.column_stack([d.atom(9)] * 3)   # an exact atom: ties across channels
    blocks.append(rng.normal(size=(16, 1)))
    # past 8 channels a contiguous row sum would go pairwise: these pin the
    # channel-major order of select_candidate's sums
    blocks += [rng.normal(size=(16, 9)), rng.normal(size=(16, 17))]
    for b in blocks:
        state = init_block_state(b, d, criterion)
        assert state.saturated == (not b.any())
        if state.saturated:
            assert (state.candidate, state.gain) == (None, -np.inf)
            continue
        # summed channel after channel, as select_candidate does
        panel = [d.all_inner_products(channel) for channel in b.T]
        energies = sum(p * p for p in panel)
        scores = sum(map(np.abs, panel)) if criterion is SelectionCriterion.SOMP else energies
        n0 = int(np.argmax(scores))
        assert state.candidate == n0 + 1
        assert np.array_equal(np.float64(state.gain), energies[n0])


def _assert_holds_its_next_candidate(state, dico):
    """The state's candidate, gain and saturation are those of selecting afresh."""
    import copy

    again = copy.deepcopy(state)
    again.candidate, again.gain = None, -np.inf
    select_candidate(again, dico)
    assert (state.candidate, state.gain, state.saturated) == (
        again.candidate, again.gain, again.saturated)


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
def test_every_accept_leaves_the_next_candidate_in_place(rng, criterion):
    # a full-rank 8x1 run: the accept that fills the block saturates it
    d = TrigDictionary(8, 16)
    state = init_block_state(rng.normal(size=(8, 1)), d, criterion)
    _assert_holds_its_next_candidate(state, d)
    while not state.saturated:
        assert accept_candidate(state, d)
        _assert_holds_its_next_candidate(state, d)
        assert state.saturated == (state.atom_count == 8)
    assert (state.candidate, state.gain) == (None, -np.inf)

    # dependency rejections: an atom already in the span, then one with
    # nothing else left to try
    state = init_block_state(rng.normal(size=(8, 2)), d, criterion)
    assert accept_candidate(state, d)
    first = state.selected[0]
    state.candidate = first
    assert not accept_candidate(state, d)
    _assert_holds_its_next_candidate(state, d)
    assert state.candidate not in (None, first)
    state.s_sums[:] = 1.0
    state.candidate = first
    assert not accept_candidate(state, d)
    _assert_holds_its_next_candidate(state, d)
    assert state.saturated


def _first_pass_norm(state, dico, n):
    """``|w|`` after one Gram-Schmidt pass of atom ``n`` against the state's basis."""
    basis = ortho(state)
    w = dico.atom(n)
    w -= basis.T @ (basis @ w)
    return np.linalg.norm(w)


def _accepted_with(monkeypatch, state, dico, n, reortho_norm):
    """``(w row, r column)`` of accepting atom ``n`` into a copy of ``state``."""
    import copy

    monkeypatch.setattr(pursuit, "REORTHO_NORM", reortho_norm)
    st = copy.deepcopy(state)
    st.candidate = n
    assert accept_candidate(st, dico)
    k = st.atom_count - 1
    return st.w[k].copy(), st.r[: k + 1, k].copy()


def test_reorthogonalization_runs_only_when_the_first_pass_cancels(rng, monkeypatch):
    d = TrigDictionary(32, 64)
    state = init_block_state(rng.normal(size=(32, 2)), d, OOMP)
    for _ in range(4):
        assert accept_candidate(state, d)
    eta = pursuit.REORTHO_NORM
    assert eta == pytest.approx(2**-0.5)
    norms = {n: _first_pass_norm(state, d, n) for n in range(1, d.num_atoms + 1)
             if 1.0 - state.s_sums[n - 1] > pursuit.DEPENDENCY_FLOOR}
    fresh = max(norms, key=norms.get)   # the most orthogonal atom to the span
    near = min(norms, key=norms.get)    # the atom nearest the span
    assert norms[fresh] > eta and norms[near] <= eta
    never, always = 0.0, 2.0           # thresholds that skip / take every second pass
    # a fresh atom: one pass, exactly as if re-orthogonalization were off
    got = _accepted_with(monkeypatch, state, d, fresh, eta)
    want = _accepted_with(monkeypatch, state, d, fresh, never)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # an atom nearly in the span takes the second pass, which changes its bits
    got = _accepted_with(monkeypatch, state, d, near, eta)
    want = _accepted_with(monkeypatch, state, d, near, always)
    once = _accepted_with(monkeypatch, state, d, near, never)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert not all(np.array_equal(g, o) for g, o in zip(got, once))


def _clipped_tones(nb, channels):
    """A block of two tones per channel, clipped to +-1: nearly dependent atoms.

    The tone pairs of ``tools/tdc_digests.py``'s high-atoms clip, with as
    many periods in ``nb`` samples as in its 1024-sample blocks at 44.1 kHz.
    """
    t = np.arange(nb) * (1024 / nb) / 44100
    pairs = ((40.0, 440.0, 660.0), (25.0, 330.0, 550.0))
    tones = []
    for j in range(channels):   # the pairs in turn, each channel at its own phase
        a, f1, f2 = pairs[j % 2]
        tones.append(a * (np.sin(2 * np.pi * f1 * t + j) + np.sin(2 * np.pi * f2 * t + j)))
    return np.clip(np.column_stack(tones), -1.0, 1.0)


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
@pytest.mark.parametrize("source", ["noise", "clipped-tones"])
@pytest.mark.parametrize("nb, channels", [(8, 1), (32, 2), (64, 6)])
def test_invariants_hold_at_full_rank_with_conditional_reorthogonalization(
        rng, nb, channels, source, criterion):
    # near full rank most atoms lie nearly in the span and take the second
    # (and last) pass; the invariants keep their default bounds (1e-10 and 1e-8)
    d = TrigDictionary(nb, 2 * nb)
    if source == "noise":
        block = rng.normal(size=(nb, channels))
    else:
        block = _clipped_tones(nb, channels)
    state = init_block_state(block, d, criterion)
    first_pass = []
    while not state.saturated:
        first_pass.append(_first_pass_norm(state, d, state.candidate))
        accept_candidate(state, d)
    assert state.atom_count == nb
    # OOMP divides by 1 - S_n, so it favours atoms near the span, which
    # take the second pass; SOMP and MMV-OMP need not take one
    if criterion is OOMP:
        assert min(first_pass) <= pursuit.REORTHO_NORM
    assert pursuit.REORTHO_NORM < max(first_pass)
    assert_state_invariants(state, d, block)


def test_pursuits_in_threads_at_once_match_serial_runs(rng):
    # select_candidate keeps nothing between calls: pursuits running in
    # several threads of one process share no arrays
    import threading

    d = TrigDictionary(16, 32)
    inputs = [random_blocks(rng, 4, 16, 2) for _ in range(4)]
    want = [hbw_pursuit(blocks, d, 30) for blocks in inputs]
    got = [[] for _ in inputs]

    def run(i):
        for _ in range(20):
            got[i].append(hbw_pursuit(inputs[i], d, 30))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, w in zip(got, want):
        assert len(runs) == 20
        for g in runs:
            _assert_same_pursuit(g, w)


def test_worker_news_rebuild_the_whole_log_once(rng):
    # a worker sends only each block's entries since its last message
    d = TrigDictionary(16, 32)
    record = pursuit._Record(init_block_state(rng.normal(size=(16, 2)), d, OOMP))
    state, log, sent = record.state, pursuit._Record(), 0
    for picks in (3, 0, 5, 1):
        for _ in range(picks):
            record.step(d)
        news = record.news()
        sent += len(news[0])
        log.add(*news)
        assert (log.gains, log.accepted, log.energies) == (
            record.gains, record.accepted, record.energies)
        assert log.head == state.gain
    assert sent == len(record.gains) == 9


@pytest.mark.parametrize("criterion", list(SelectionCriterion))
def test_a_merge_run_in_rounds_equals_one_uninterrupted_run(rng, criterion):
    # the heap is up to date whenever the stop is asked, so a later run
    # resumes exactly where the last one stopped
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 5, 8, 2) + [np.zeros((8, 2))]

    def live_merge():
        records = [pursuit._Record(init_block_state(b, d, criterion)) for b in blocks]
        return records, pursuit._Merge(records, lambda q: records[q].step(d))

    whole_records, whole = live_merge()
    assert whole.run(pursuit._Budget(math.inf))
    records, merge = live_merge()
    rounds = 1
    while not merge.run(pursuit._Budget(3)):   # a worker's rounds, of 3 atoms
        rounds += 1
    accepted = sum(merge.counts)
    assert accepted == sum(whole.counts)
    assert rounds == accepted // 3 + 1 > 3
    for got, want in zip(records, whole_records):
        assert (got.gains, got.accepted, got.energies) == (
            want.gains, want.accepted, want.energies)
        assert got.head == want.head == -np.inf
    assert merge.counts == whole.counts
    assert merge.taken == whole.taken
    assert merge.last_gain == whole.last_gain


@pytest.mark.parametrize("mode", ["budget", "snr"])
def test_result_carries_each_blocks_factor_and_residual_energy(rng, mode):
    # the encoder's error model reads these instead of rebuilding the atoms
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 4, 16, 2) + [np.zeros((16, 2))]
    if mode == "budget":
        res = hbw_pursuit(blocks, d, 20)
    else:
        res = pursuit_to_snr(blocks, d, 15.0)
    for block, (idx, coef), r, energy in zip(
        blocks, res.atoms, res.factors, res.residual_energies
    ):
        atoms = d.atoms_matrix(idx)
        assert r.shape == (idx.size,) * 2 and np.array_equal(np.triu(r), r)
        assert np.allclose(r.T @ r, atoms @ atoms.T, rtol=0, atol=1e-12)
        residual = block - atoms.T @ coef
        assert energy == pytest.approx(np.sum(residual**2), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("target", [0.0, -10.0])
@_PATHS
def test_snr_target_zero_returns_no_atoms(rng, monkeypatch, threads, capped, target):
    # no atoms leave the residual equal to the signal, at 0 dB
    d = TrigDictionary(8, 16)
    blocks = random_blocks(rng, 3, 8, 2)
    _one_worker_per_thread(monkeypatch)
    if capped:
        monkeypatch.setattr(pursuit, "LIVE_BLOCKS", CAPPED)
    with _deadline(60):
        res = pursuit_to_snr(blocks, d, target, threads=threads)
    _assert_no_atoms(res, blocks)
    assert res.snr_db == 0.0
    assert res.snr_trace.shape == (0,)


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("mode", ["budget", "snr"])
def test_a_stop_done_at_once_computes_no_atoms(rng, monkeypatch, mode, capped):
    # workers would compute their first rounds for a merge that takes none
    d = TrigDictionary(64, 128)
    blocks = random_blocks(rng, 8, 64, 2)
    _one_worker_per_thread(monkeypatch)
    if capped:
        monkeypatch.setattr(pursuit, "LIVE_BLOCKS", CAPPED)
    ahead = []
    monkeypatch.setattr(pursuit, "_finish", _noting_run_ahead(pursuit._finish, ahead))
    with _deadline(60):
        if mode == "budget":
            res = hbw_pursuit(blocks, d, 0, threads=2)
        else:
            res = pursuit_to_snr(blocks, d, 0.0, threads=2)
    _assert_no_atoms(res, blocks)
    assert ahead == [0] * len(blocks)


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
    real_accept = pu.accept_candidate
    calls = {"accepted": 0}

    def exhausted_after_three(state, dico):
        # after the third kept atom every atom is in the span, so each
        # block saturates at its next pick
        if calls["accepted"] >= 3:
            state.s_sums[:] = 1.0
            pu.select_candidate(state, dico)
            return False
        accepted = real_accept(state, dico)
        calls["accepted"] += accepted
        return accepted

    monkeypatch.setattr(pu, "accept_candidate", exhausted_after_three)
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


# --- worker processes --------------------------------------------------------


def test_worker_count_is_bounded_by_cores_and_blocks(monkeypatch):
    import multiprocessing

    # worked out before anything is started, so a huge request starts nothing
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    assert pursuit.worker_count(100_000, 10**9) == cores
    assert pursuit.worker_count(100_000, 3) == min(cores, 3)
    assert pursuit.worker_count(1, 50) == 1
    assert pursuit.worker_count(4, 0) == 1
    # cores outside the process's affinity set (as under taskset) are not usable
    monkeypatch.setattr(pursuit.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(pursuit.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pursuit.worker_count(2, 130) == 1
    monkeypatch.delattr(pursuit.os, "sched_getaffinity")
    assert pursuit.worker_count(2, 130) == 2
    monkeypatch.setattr(pursuit.os, "cpu_count", lambda: None)
    assert pursuit.worker_count(100_000, 50) == 1
    assert multiprocessing.active_children() == []


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


@contextlib.contextmanager
def _worker_thread(shard, rest, dico):
    """``_shard_worker`` run in a thread, so that its lines are traced; yields
    the parent end of its pipe."""
    import multiprocessing
    import threading

    parent, child = multiprocessing.Pipe()
    spare, other = multiprocessing.Pipe()   # the worker closes every end but its own
    worker = threading.Thread(target=pursuit._shard_worker,
                              args=(0, [(spare, child)], shard, rest, dico, OOMP))
    worker.start()
    try:
        with _deadline(60):
            yield parent
    finally:
        parent.close()
        other.close()
        worker.join(timeout=60)
    assert not worker.is_alive()


def test_a_worker_sends_each_log_once_and_its_records_at_the_threshold(rng, monkeypatch):
    monkeypatch.setattr(pursuit, "ROUND", 1)   # one accepted atom a round: one block steps
    d = TrigDictionary(16, 32)
    shard = random_blocks(rng, 3, 16, 2) + [np.zeros((16, 2))]
    rest = random_blocks(rng, 1, 16, 2)
    with _worker_thread(shard, rest, d) as conn:
        messages = [pursuit._receive(conn), pursuit._receive(conn)]   # made unasked
        conn.send(True)
        messages.append(pursuit._receive(conn))
        conn.send(np.inf)   # a threshold no head reaches: the records close as they stand
        kind, records = pursuit._receive(conn)
    assert [kind for kind, _ in messages] == ["logs"] * 3
    first, *later = [news for _, news in messages]
    assert sorted(i for i, _ in first) == list(range(len(shard)))   # the silent block too
    for news in later:
        assert 0 < len(news) < len(shard)
        assert all(gains for _, (gains, *_) in news)   # only blocks whose log grew
    logs = [pursuit._Record() for _ in shard]
    for news in first, *later:
        for i, entry in news:
            logs[i].add(*entry)
    assert sum(sum(log.accepted) for log in logs) == 3
    assert kind == "results" and len(records) == len(shard) + len(rest)
    assert all(rec.state is None for rec in records)
    for log, rec in zip(logs, records):
        assert (log.gains, log.accepted, log.energies, log.head) == (
            rec.gains, rec.accepted, rec.energies, rec.head)
    assert records[-1].gains == [] and records[-1].energies == [np.sum(rest[0] ** 2)]


def test_a_worker_out_of_memory_raises_memory_error_in_the_parent(rng, monkeypatch):
    def exhausted(blocks, dico, criterion):
        raise MemoryError

    monkeypatch.setattr(pursuit, "_init_states", exhausted)
    with _worker_thread(random_blocks(rng, 2, 16, 2), [], TrigDictionary(16, 32)) as conn:
        with pytest.raises(MemoryError, match="ran out of memory"):
            pursuit._receive(conn)


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
        if rule(state, state.candidate):
            tally["rejections"] += 1
            state.s_sums[state.candidate - 1] = 1.0
            pursuit.select_candidate(state, dico)
            return False
        return real(state, dico)

    return accept


def _noting_run_ahead(real, ahead):
    """``real``, a ``_finish``, that also appends to ``ahead`` the atoms its
    block was pursued past its first ``k``; it is called once per block, in
    block order, so ``ahead[q]`` is block ``q``'s."""

    def finish(record, k):
        ahead.append(len(record.selected) - k)
        return real(record, k)

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


def _assert_same_pursuit(got, want):
    """Every field of two pursuit results agrees, the coefficients to the bit."""
    assert got.atom_count == want.atom_count
    assert got.saturated == want.saturated
    assert got.snr_db == want.snr_db
    if want.snr_trace is None:
        assert got.snr_trace is None
    else:
        assert np.array_equal(got.snr_trace, want.snr_trace)
    assert np.array_equal(got.residual_energies, want.residual_energies)
    for name in ("counts", "indices", "values"):
        g, w = getattr(got.atoms, name), getattr(want.atoms, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes(), name
    assert len(got.factors) == len(want.factors)
    for g_r, w_r in zip(got.factors, want.factors):
        assert g_r.shape == w_r.shape and np.array_equal(g_r, w_r)


# LIVE_BLOCKS at which every fixture below pursues a pilot of two blocks
CAPPED = 2


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
    ahead = []
    monkeypatch.setattr(pursuit, "_finish", _noting_run_ahead(pursuit._finish, ahead))

    def run(threads):
        ahead.clear()
        if mode == "budget":
            return hbw_pursuit(blocks, d, budget, criterion, threads=threads)
        return pursuit_to_snr(blocks, d, target, criterion, threads=threads)

    with _deadline(60):   # a deadlocked merge fails instead of hanging
        serial = run(1)
        assert serial.atom_count > 0
        assert serial.saturated == (case == "saturating")
        assert (tally["rejections"] > 0) == (rule is not None)   # counted in process
        live = pursuit.LIVE_BLOCKS
        for cap, threads in [(live, 2), (live, 3), (CAPPED, 1), (CAPPED, 2), (CAPPED, 3)]:
            monkeypatch.setattr(pursuit, "LIVE_BLOCKS", cap)
            res = run(threads)
            _assert_same_pursuit(res, serial)
            assert len(ahead) == len(blocks)
            if case == "loud-block" and cap == live:
                assert ahead[4] > 0


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("mode", ["budget", "snr"])
def test_workers_run_at_most_three_rounds_ahead_of_the_merge(rng, monkeypatch, mode,
                                                              workers):
    # a worker makes two rounds more than the merge has asked for, and the
    # merge asks only once it has used every pick the worker sent; the
    # stop comes inside block 4's opening run, so the other workers' first
    # rounds, always made whole, are computed ahead and never merged
    d, blocks, _, budget, target = _replay_case("loud-block", rng)
    _one_worker_per_thread(monkeypatch)
    monkeypatch.setattr(pursuit, "ROUND", 2)
    ahead = []
    monkeypatch.setattr(pursuit, "_finish", _noting_run_ahead(pursuit._finish, ahead))
    with _deadline(60):
        if mode == "budget":
            hbw_pursuit(blocks, d, budget, threads=workers)
        else:
            pursuit_to_snr(blocks, d, target, threads=workers)
    assert len(ahead) == len(blocks)
    assert 0 < sum(ahead) <= 3 * pursuit.ROUND * workers


def _capped_case(case, rng):
    """``(dico, blocks, rejection rule, budget, SNR target)`` of one fixture.

    Eight blocks: at ``LIVE_BLOCKS = CAPPED`` the pilot is blocks 0 and 4.
    """
    if case == "beyond-capacity":
        return TrigDictionary(4, 8), random_blocks(rng, 8, 4, 2), None, 10**6, 500.0
    blocks = random_blocks(rng, 8, 16, 2)
    rule = None
    if case == "silent-pilot":
        # the pilot alone has no signal, so no SNR, and sets no threshold
        blocks[0] = np.zeros((16, 2))
        blocks[4] = np.zeros((16, 2))
    elif case == "saturating-pilot":
        # the pilot's faint blocks take one atom each, short of either
        # stop scaled to them
        blocks[0] *= 1e-3
        blocks[4] *= 1e-3
        rule = lambda st, n: np.abs(st.residual).max() < 0.1 and st.selected   # noqa: E731
    return TrigDictionary(16, 32), blocks, rule, 30, 15.0


@pytest.mark.parametrize("mode", ["budget", "snr"])
@pytest.mark.parametrize(
    "case", ["stall", "silent-pilot", "saturating-pilot", "beyond-capacity"]
)
def test_a_capped_pursuit_equals_the_all_live_one(rng, monkeypatch, case, mode):
    d, blocks, rule, budget, target = _capped_case(case, rng)
    _one_worker_per_thread(monkeypatch)
    if rule is not None:
        monkeypatch.setattr(pursuit, "accept_candidate", _rejecting(rule, {"rejections": 0}))
    if case == "stall":
        # a threshold far too high: the merge runs past the logs and must
        # lower it and run blocks again
        real_threshold = pursuit._threshold
        monkeypatch.setattr(pursuit, "_threshold",
                            lambda last_gain, rest: real_threshold(10 * last_gain, rest))
    pilots = []
    real_in_process = pursuit._pursue_in_process

    def in_process(pilot, rest, dico, criterion, stop):
        tau, records = real_in_process(pilot, rest, dico, criterion, stop)
        assert len(records) == len(pilot) + len(rest)
        assert all(rec.state is None for rec in records)   # closed, for the final merge
        # the pilot saturated if its merge ended before its stop was done
        pilots.append((len(pilot), not stop.done))   # (pilot blocks, pilot saturated)
        return tau, records

    monkeypatch.setattr(pursuit, "_pursue_in_process", in_process)
    extensions = []
    real_merge = pursuit._Merge

    def merge(records, extend):
        # a live block's next step is not an extension of a finished log
        def counted(q):
            if records[q].state is None:
                extensions.append(q)
            extend(q)

        return real_merge(records, counted)

    monkeypatch.setattr(pursuit, "_Merge", merge)

    def run(threads):
        if mode == "budget":
            return hbw_pursuit(blocks, d, budget, threads=threads)
        return pursuit_to_snr(blocks, d, target, threads=threads)

    with _deadline(60):   # a deadlocked merge fails instead of hanging
        want = run(1)
        assert pilots == [(8, want.saturated)] and not extensions
        assert want.saturated == (case == "beyond-capacity" and mode == "budget")
        monkeypatch.setattr(pursuit, "LIVE_BLOCKS", CAPPED)
        for threads in (1, 2, 3):
            extensions.clear()
            _assert_same_pursuit(run(threads), want)
            if case in ("stall", "silent-pilot"):
                assert extensions
    pilot_size, pilot_saturated = pilots[-1]   # the capped run in process
    assert pilot_size == 2
    if case == "saturating-pilot" or case == "beyond-capacity" and mode == "budget":
        assert pilot_saturated


def test_pursuit_memory_does_not_grow_with_the_block_count(rng, monkeypatch):
    # past LIVE_BLOCKS only the pilot keeps its panels while it runs; the
    # other blocks are pursued one at a time and keep compact records
    import tracemalloc

    monkeypatch.setattr(pursuit, "LIVE_BLOCKS", 32)
    d = TrigDictionary(256, 512)

    def sparse_blocks(count):
        blocks = []
        for _ in range(count):
            atoms = d.atoms_matrix(rng.choice(np.arange(1, 1025), size=3, replace=False))
            noise = 1e-3 * rng.normal(size=(256, 2))
            blocks.append(atoms.T @ rng.normal(size=(3, 2)) + noise)
        return blocks

    pursuit_to_snr(sparse_blocks(4), d, 20.0)   # imports and FFT set-up
    peaks = []
    for count in (64, 256):
        blocks = sparse_blocks(count)
        tracemalloc.start()
        try:
            result = pursuit_to_snr(blocks, d, 20.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.snr_db >= 20.0
    assert peaks[1] <= 1.25 * peaks[0]


def test_truncating_a_block_that_ran_ahead_equals_stopping_it_there(rng):
    d = TrigDictionary(16, 32)
    block = rng.normal(size=(16, 3))

    def run(atoms):
        """The block's closed record after ``atoms`` atoms, and its residual energy."""
        record = pursuit._Record(init_block_state(block, d, OOMP))
        while record.state.atom_count < atoms:
            record.step(d)
        energy = pursuit._energy(record.state)
        return record.close(), energy

    ahead, _ = run(12)
    for k in (0, 1, 7, 12):
        exact, exact_energy = run(k)
        got = pursuit._finish(ahead, k)
        want = pursuit._finish(exact, k)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3] == exact_energy


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


def test_a_worker_out_of_memory_exits_3_and_leaves_no_process(tmp_path, rng, monkeypatch,
                                                              capfd):
    # the exit-3 path of a MemoryError covers the pursuit's forked workers
    import multiprocessing

    from tdcodec import MultichannelSignal, write_wav
    from tdcodec.cli import main

    _one_worker_per_thread(monkeypatch)
    parent, init_states = os.getpid(), pursuit._init_states

    def init_in_parent_only(*args):
        if os.getpid() != parent:
            raise MemoryError
        return init_states(*args)

    monkeypatch.setattr(pursuit, "_init_states", init_in_parent_only)
    wav, out = tmp_path / "in.wav", tmp_path / "out.tdc"
    write_wav(wav, MultichannelSignal(0.3 * rng.normal(size=(8000, 2)), 8000))
    with _deadline(60):
        code = main(["encode", "--in", str(wav), "--out", str(out), "--atoms", "50",
                     "--block", "256", "--threads", "2"])
    err = capfd.readouterr().err
    assert code == 3
    assert "error: not enough memory to encode" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_importing_the_codec_loads_no_process_or_thread_pool():
    # multiprocessing is imported when workers start, not with the package;
    # argparse and csv when the command line or a compare table needs them
    code = (
        "import sys, tdcodec, tdcodec.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'argparse', 'csv') "
        "or m.startswith('concurrent')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
