import math
import sys
import threading

import numpy as np
import pytest

from ladderlab import (
    BernoulliPM1,
    Constant,
    Exponential,
    LognormalShifted,
    Pareto,
    QueuePair,
    WalkError,
    replay_path,
    simulate_batch,
)
from ladderlab import rng, walk

from oracles import bernoulli_descent_pmf, lindley_busy_cycles

SEED = 20260810


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(WalkError):
        simulate_batch(Constant(-1.0), seed=1, n_samples=1, step_cap=0)
    with pytest.raises(WalkError):
        simulate_batch(Constant(1.0), seed=1, n_samples=1)  # nonnegative drift
    with pytest.raises(WalkError):
        simulate_batch(BernoulliPM1(0.5), seed=1, n_samples=10)  # zero mean
    with pytest.raises(WalkError):
        simulate_batch(Constant(-1.0), seed=1)  # neither n_samples nor ids


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_samples=0),
        dict(n_samples=-5),
        dict(stream_ids=[]),
    ],
    ids=["no-samples", "negative-samples", "no-stream-ids"],
)
def test_empty_batch_or_chunk_refused(monkeypatch, kwargs):
    # refused before the work area is allocated
    monkeypatch.setattr(walk, "_WorkArea", None)
    with pytest.raises(WalkError):
        simulate_batch(Pareto(2.0, 1.0, shift=-3.0), seed=1, **kwargs)


def test_shift_must_keep_negative_drift():
    with pytest.raises(WalkError):
        simulate_batch(Constant(-1.0), seed=1, n_samples=4, shift=1.5)


# -- deterministic walks --------------------------------------------------------


def test_point_mass_descends_first_step():
    s = simulate_batch(Constant(-1.0), seed=3, stream_ids=[9])
    assert (int(s.tau[0]), float(s.s_tau[0]), float(s.m_tau[0]), bool(s.censored[0])) == (1, -1.0, 0.0, False)


def test_point_mass_shifted():
    s = simulate_batch(Constant(-1.0), seed=3, stream_ids=[0], shift=0.5)
    assert s.tau[0] == 1 and s.s_tau[0] == -1.0
    # compensated partial sum is -0.5; the running max keeps the empty prefix 0
    assert s.psi_max[0] == 0.0


def test_zero_shift_equals_plain_epoch():
    a = simulate_batch(BernoulliPM1(0.25), seed=5, stream_ids=[17])
    b = simulate_batch(BernoulliPM1(0.25), seed=5, stream_ids=[17], shift=0.0)
    assert (a.tau[0], a.s_tau[0], a.m_tau[0]) == (b.tau[0], b.s_tau[0], b.m_tau[0])


def test_compensated_sum_identity_per_sample():
    # sum of compensated increments equals S_tau + tau * shift, path by path
    spec = QueuePair(Exponential(1.0), Constant(2.0))
    shift = 0.25
    batch = simulate_batch(spec, seed=SEED, n_samples=50, shift=shift)
    for i in range(batch.n):
        path = replay_path(spec, SEED, int(batch.stream_ids[i]), shift=shift)
        psi_partial = path["partial_sums"] + shift * np.arange(1, path["tau"] + 1)
        assert max(0.0, float(psi_partial.max())) == pytest.approx(float(batch.psi_max[i]), abs=1e-12)
        assert float(psi_partial[-1]) == pytest.approx(
            float(batch.s_tau[i]) + path["tau"] * shift, abs=1e-12
        )


# -- two-point oracle -------------------------------------------------------------


def test_bernoulli_against_enumeration():
    n = 200_000
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED, n_samples=n)
    assert batch.censored_n == 0
    # mean epoch: overshoot identity gives 1.5 exactly
    se = batch.tau.std(ddof=1) / math.sqrt(n)
    assert abs(batch.tau.mean() - 1.5) <= 4 * se
    # distribution against the exact recursion, first twenty epochs
    pmf = bernoulli_descent_pmf(0.25, 20)
    for k in range(1, 21):
        p_hat = float((batch.tau == k).mean())
        p = float(pmf[k - 1])
        band = 4 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(p_hat - p) <= band, (k, p_hat, p)


def test_bernoulli_first_step_probability():
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED + 1, n_samples=100_000)
    p_hat = float((batch.tau == 1).mean())
    assert abs(p_hat - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / batch.n)


def test_overshoot_values_two_point():
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED, n_samples=10_000)
    # the walk either drops to -1 at the first step or lands exactly on 0
    first = batch.tau == 1
    assert np.all(batch.s_tau[first] == -1.0)
    assert np.all(batch.s_tau[~first] == 0.0)
    assert np.all(batch.m_tau >= 0.0)


# -- determinism & stream keying ----------------------------------------------------


def test_bitwise_determinism():
    a = simulate_batch(BernoulliPM1(0.25), seed=11, n_samples=1000)
    b = simulate_batch(BernoulliPM1(0.25), seed=11, n_samples=1000)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.s_tau, b.s_tau)
    assert np.array_equal(a.m_tau, b.m_tau)


def test_stream_keyed_subsets():
    spec = QueuePair(Exponential(1.0), Constant(2.0))
    full = simulate_batch(spec, seed=11, n_samples=64)
    part = simulate_batch(spec, seed=11, stream_ids=np.arange(20, 40))
    assert np.array_equal(part.tau, full.tau[20:40])
    assert np.array_equal(part.s_tau, full.s_tau[20:40])


def _counted_draws(monkeypatch) -> list:
    """Record the cells of every draw at the tile loop that all of the walk's draws go through."""
    cells = []
    draw = rng._uniforms

    def counting(seed, stream, step, slots, *lent):
        units = draw(seed, stream, step, slots, *lent)
        cells.append(units[0].size)
        return units

    monkeypatch.setattr(rng, "_uniforms", counting)
    return cells


def test_draws_only_cells_it_uses(monkeypatch):
    # E tau = 1.5 for the Bernoulli walk and about 1.44 for the Pareto one; a
    # walk that stops must not draw the rest of its block
    cells = _counted_draws(monkeypatch)
    for spec in (BernoulliPM1(0.25), Pareto(2.0, 1.0, shift=-3.0)):
        cells.clear()
        batch = simulate_batch(spec, 7, n_samples=100_000)
        assert sum(cells) > 0
        assert sum(cells) / batch.tau.sum() <= 1.5


def test_no_draw_scales_with_the_chunk(monkeypatch):
    # every sub-block runs in slices of at most _SLICE_CELLS cells, so neither
    # a draw nor the increments' temporaries grow with the chunk; 3e5 walks
    # span two chunks, and most of them stop at step 1
    cells = _counted_draws(monkeypatch)
    batch = simulate_batch(Pareto(2.0, 1.0, shift=-3.0), 7, n_samples=300_000)
    assert max(cells) <= walk._SLICE_CELLS
    assert sum(cells) / batch.tau.sum() <= 1.5


def test_concurrent_batches_match_serial(monkeypatch):
    # each call owns its work arena, so batches on several threads at once
    # (the CLI runs two) keep the serial bits; the Pareto walk draws slot 0
    # alone, the queue walk both slots
    monkeypatch.setattr(walk, "_CHUNK", 2_000)
    for spec in (QueuePair(Exponential(1.0), Exponential(1.25)), Pareto(2.0, 1.0, shift=-3.0)):
        ids = [np.arange(k * 5_000, (k + 1) * 5_000) for k in range(4)]
        serial = [simulate_batch(spec, 3, stream_ids=i) for i in ids]
        results = [None] * len(ids)

        def run(k):
            results[k] = simulate_batch(spec, 3, stream_ids=ids[k])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(ids))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for a, b in zip(serial, results):
            assert np.array_equal(a.tau, b.tau)
            assert np.array_equal(a.s_tau, b.s_tau) and np.array_equal(a.m_tau, b.m_tau)


# near-zero drift, so that walks run through several blocks and some hit a cap of 12
SCHEDULE_SPECS = {
    "pareto": lambda: Pareto(2.0, 1.0, shift=-2.3),
    "lognormal": lambda: LognormalShifted(0.0, 1.0, shift=-1.8),
    "bernoulli": lambda: BernoulliPM1(0.45),
    "queue": lambda: QueuePair(Exponential(1.0), Exponential(1.25)),
}


def _columns_bytes(batch):
    return [getattr(batch, name).tobytes() for name in walk._COLUMNS]


# each family at the default slice size, then in slices of 2 cells (every
# step of a wide sub-block apart) and of 33 cells (a few walks per slice)
SCHEDULE_CASES = [(name, cells) for cells in (None, 2, 33) for name in sorted(SCHEDULE_SPECS)]


@pytest.mark.parametrize(
    "name, slice_cells", SCHEDULE_CASES, ids=[n if c is None else f"{n}-slice{c}" for n, c in SCHEDULE_CASES]
)
def test_sub_block_schedule_keeps_bits(monkeypatch, name, slice_cells):
    # lazy sub-blocks, the straggler rule and slices of a sub-block against
    # drawing every block whole, with one work area reused across the chunks
    spec = SCHEDULE_SPECS[name]()
    n = 600
    cases = [(shift, cap) for shift in (0.0, -spec.mean / 2) for cap in (1_000, 12)]
    with monkeypatch.context() as m:
        m.setattr(walk, "_sub_blocks", lambda start, length: iter([(start, length)]))
        whole = {case: simulate_batch(spec, SEED, n_samples=n, shift=case[0], step_cap=case[1]) for case in cases}
    assert whole[(0.0, 12)].censored_n > 0
    if slice_cells is not None:
        monkeypatch.setattr(walk, "_SLICE_CELLS", slice_cells)
    for case, ref in whole.items():
        for chunk_size in (1, 7, 250_000):
            monkeypatch.setattr(walk, "_CHUNK", chunk_size)
            got = simulate_batch(spec, SEED, n_samples=n, shift=case[0], step_cap=case[1])
            assert _columns_bytes(got) == _columns_bytes(ref), (case, chunk_size)


def test_chunking_invisible(monkeypatch):
    spec = QueuePair(Exponential(1.0), Constant(2.0))
    monkeypatch.setattr(walk, "_CHUNK", 64)
    a = simulate_batch(spec, seed=11, n_samples=500)
    monkeypatch.setattr(walk, "_CHUNK", 10_000)
    b = simulate_batch(spec, seed=11, n_samples=500)
    assert np.array_equal(a.tau, b.tau) and np.array_equal(a.s_tau, b.s_tau)


def test_seed_changes_everything():
    a = simulate_batch(BernoulliPM1(0.25), seed=1, n_samples=2000)
    b = simulate_batch(BernoulliPM1(0.25), seed=2, n_samples=2000)
    assert not np.array_equal(a.tau, b.tau)


# -- replay -------------------------------------------------------------------------


def test_replay_reproduces_sample():
    spec = QueuePair(Exponential(1.0), Constant(2.0))
    batch = simulate_batch(spec, seed=SEED, n_samples=2000)
    for sid in [0, 7, 1234, 1999]:
        path = replay_path(spec, SEED, sid)
        assert path["tau"] == int(batch.tau[sid])
        assert path["s_tau"] == float(batch.s_tau[sid])
        assert path["m_tau"] == float(batch.m_tau[sid])
        sums = path["partial_sums"]
        assert np.all(sums[:-1] > 0.0)
        assert sums[-1] <= 0.0
        assert path["m_tau"] == pytest.approx(max(0.0, float(sums.max())))


def test_censoring_recorded_not_raised():
    batch = simulate_batch(BernoulliPM1(0.45), seed=SEED, n_samples=4000, step_cap=3)
    assert batch.censored_n > 0
    censored = batch.censored
    assert np.all(batch.tau[censored] == 3)
    # censored excursions still report the running state for accounting
    assert np.all(batch.s_tau[censored] > 0.0)
    path = replay_path(BernoulliPM1(0.45), SEED, int(batch.stream_ids[censored][0]), step_cap=3)
    assert path["censored"] and path["tau"] == 3


def test_censoring_rare_at_default_cap():
    # negative-drift builtin examples should essentially never hit 1e6 steps
    for spec in [BernoulliPM1(0.25), QueuePair(Exponential(1.0), Constant(2.0))]:
        batch = simulate_batch(spec, seed=SEED, n_samples=50_000)
        assert batch.censored_n == 0


# -- pathwise coupling ----------------------------------------------------------------


def test_coupled_partial_sums_dominate(chains):
    # shared uniforms: the spliced walk runs above the base walk path by path,
    # so its descent epoch cannot come earlier
    chain = chains["g2"]
    horizon = 200
    u = rng.uniform_pair(SEED, np.arange(300)[:, None], np.arange(horizon)[None, :])[0]
    inc_base = chain.base.quantile(u)
    inc_tilde = chain.tilde.quantile(u)
    s_base = np.cumsum(inc_base, axis=1)
    s_tilde = np.cumsum(inc_tilde, axis=1)
    assert np.all(s_base <= s_tilde + 1e-12)
    tau_base = np.argmax(s_base <= 0.0, axis=1)
    tau_tilde = np.argmax(s_tilde <= 0.0, axis=1)
    both = (s_base.min(axis=1) <= 0) & (s_tilde.min(axis=1) <= 0)
    assert np.all(tau_base[both] <= tau_tilde[both])


# -- busy cycles ------------------------------------------------------------------------


def test_lindley_deterministic():
    batch = simulate_batch(QueuePair(Constant(1.0), Constant(2.0)), seed=1, n_samples=50)
    assert np.all(batch.tau == 1)
    assert np.all(batch.s_tau == -1.0)


def test_lindley_matches_ladder_sample_for_sample():
    # exponential service against exponential interarrivals: both uniforms of
    # every cell matter, and the recursion uses its own inverse CDFs
    n = 20_000
    walks = simulate_batch(QueuePair(Exponential(1.0), Exponential(2.0)), seed=SEED, n_samples=n)
    served, last = lindley_busy_cycles(
        SEED, n, lambda u: -math.log1p(-u), lambda u: -2.0 * math.log1p(-u)
    )
    assert np.array_equal(served, walks.tau)
    np.testing.assert_allclose(last, walks.s_tau, rtol=0, atol=1e-9)


def test_lindley_requires_stability():
    with pytest.raises(WalkError):
        simulate_batch(QueuePair(Exponential(2.0), Constant(1.0)), seed=1, n_samples=10)


def test_bounded_below_increments_bound_overshoot(chains):
    # walks on the truncated increments never overshoot past the floor
    chain = chains["g2"]
    batch = simulate_batch(chain.trunc, seed=SEED, n_samples=5000)
    keep = ~batch.censored
    assert np.all(batch.s_tau[keep] <= 0.0)
    assert np.all(batch.s_tau[keep] >= -chain.L - 1e-12)


def test_coupled_descent_epochs_ordered_across_chain(chains):
    # shared (seed, stream, step) uniforms couple the walks; dominated
    # increments can only postpone the first descent, path by path
    chain = chains["g2"]
    n = 3000
    b_base = simulate_batch(chain.base, seed=SEED, n_samples=n, step_cap=100_000)
    b_trunc = simulate_batch(chain.trunc, seed=SEED, n_samples=n, step_cap=100_000)
    assert np.all(b_base.tau <= b_trunc.tau)
    # consequently every monotone functional of the epoch is ordered in mean
    from ladderlab import estimate_power_moment

    assert estimate_power_moment(b_base, 1.0).point <= estimate_power_moment(b_trunc, 1.0).point
