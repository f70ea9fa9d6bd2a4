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
@pytest.mark.parametrize("threads", [1, 2])
def test_batched_initial_panels_match_one_block_states(rng, monkeypatch, threads,
                                                       chunk_bins):
    # every block's initial panel comes from a chunked batch FFT; it must
    # equal, bit for bit, the panel one block computes on its own, so the
    # first candidates and gains (and every selection after them) match
    from tdcodec import pursuit

    monkeypatch.setattr(pursuit, "FFT_CHUNK_BINS", chunk_bins)
    d = TrigDictionary(16, 32)
    blocks = random_blocks(rng, 9, 16, 3)
    blocks[4] = np.zeros((16, 3))    # silent
    states = pursuit._init_states(blocks, d, OOMP, threads)
    assert len(states) == len(blocks)
    for st, b in zip(states, blocks):
        alone = init_block_state(b, d, OOMP)
        assert np.array_equal(st.res_ip, alone.res_ip)
        assert st.res_ip.flags.f_contiguous
        assert st.candidate == alone.candidate
        assert st.gain == alone.gain
        assert st.saturated == alone.saturated
    assert states[4].saturated


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
