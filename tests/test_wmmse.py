"""WMMSE solver properties and the grid oracle."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wmmse_reference
from qgpc import channels as ch
from qgpc import wmmse
from qgpc.wmmse import (
    GRID_POINT_GUARD, InstanceTooLargeError, grid_search_oracle, wmmse_allocate, wmmse_batch,
)


def _channels(G, sigma2, alpha, p_max):
    return ch.ChannelBatch.from_gains(G, sigma2, alpha, p_max)


def _random_instance(rng, m, sigma2=1e-2):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=int(rng.integers(1 << 31)))
    return _channels(ch.realize_channels(sc, seed=int(rng.integers(1 << 31))), sigma2,
                     ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)


def test_single_pair_goes_full_power():
    inst = _channels(G=np.array([[0.7 + 0.2j]]), sigma2=0.1, alpha=1.0, p_max=1.0)
    res = wmmse_allocate(inst)
    assert res.p[0] == pytest.approx(1.0, abs=1e-12)
    assert res.converged
    assert res.objective == pytest.approx(ch.sum_rate(inst, res.p), abs=1e-12)


def test_symmetric_pairs_get_symmetric_power():
    G = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    inst = _channels(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
    res = wmmse_allocate(inst)
    assert res.p[0] == pytest.approx(res.p[1], rel=1e-9)


def test_iterates_feasible_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        inst = _random_instance(rng, m)
        res = wmmse_allocate(inst)
        assert np.all(res.p >= 0.0) and np.all(res.p <= inst.p_max)
        assert np.all(np.diff(res.trace) >= -1e-9)


def test_tracks_grid_oracle_on_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        inst = _random_instance(rng, m)
        _, oracle_obj = grid_search_oracle(inst, levels=33)
        res = wmmse_allocate(inst)
        assert res.objective >= oracle_obj * 0.98


def test_unconverged_run_still_returns_best_iterate(monkeypatch):
    rng = np.random.default_rng(11)
    inst = _random_instance(rng, 4)
    monkeypatch.setattr(wmmse, "MAX_ITER", 1)
    monkeypatch.setattr(wmmse, "TOL", 1e-30)
    res = wmmse_allocate(inst)
    assert not res.converged
    assert res.iterations == 1
    assert res.objective >= res.trace[0]


@st.composite
def _instance_lists(draw, max_m=6, max_count=1):
    """1 to max_count random instances of one M, 1 to max_m, sharing their
    link constants: gains over 1e-4..1e4, per-receiver noise."""
    m = draw(st.integers(1, max_m))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    link = {"sigma2": 10.0 ** arr((m,), -3.0, 0.0), "alpha": arr((m,), 0.1, 2.0),
            "p_max": draw(st.floats(0.1, 10.0))}
    return [_channels(G=np.sqrt(10.0 ** arr((m, m), -4.0, 4.0))
                      * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi)), **link)
            for _ in range(draw(st.integers(1, max_count)))]


def _instances():
    """One random instance of M 1-6."""
    return _instance_lists().map(lambda insts: insts[0])


@settings(max_examples=60)
@given(_instances())
def test_wmmse_stays_feasible_and_monotone_on_random_instances(inst):
    res = wmmse_allocate(inst)
    assert np.all(res.p >= 0.0) and np.all(res.p <= inst.p_max)
    assert np.all(np.diff(res.trace) >= -1e-9)  # acceptance 3's tolerance
    assert res.objective == ch.sum_rate(inst, res.p)


@st.composite
def _extreme_sinr_instances(draw):
    """|G|^2 over 1e-4..1e4, noise down to 1e-12, and one strong pair whose
    corner start (its p_max alone) has an SINR past 1e13."""
    m = draw(st.integers(1, 6))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    gain = 10.0 ** arr((m, m), -4.0, 4.0)
    sigma2 = 10.0 ** arr((m,), -12.0, -3.0)
    strong = draw(st.integers(0, m - 1))
    gain[strong, strong] = 10.0 ** draw(st.floats(1.0, 4.0))
    sigma2[strong] = 1e-12
    G = np.sqrt(gain) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
    return _channels(G=G, sigma2=sigma2, alpha=arr((m,), 0.1, 2.0),
                     p_max=draw(st.floats(1.0, 10.0)))


@settings(max_examples=60, derandomize=True)
@given(_extreme_sinr_instances())
def test_wmmse_stays_feasible_and_monotone_at_extreme_sinr(inst):
    # every start's run, not only the winner's: the strong pair's corner
    # starts at w = 1 + gamma > 1e13
    batch = ch.ChannelBatch.stack([inst])
    starts = wmmse._starts(batch)
    p, _, trace, _, iterations = wmmse._sweep_rows(batch, np.zeros(len(starts), int), starts)
    assert np.all(p >= 0.0) and np.all(p <= inst.p_max)
    for row, n in zip(trace, iterations):
        assert np.all(np.diff(row[:n + 1]) >= -1e-9)  # acceptance 3's tolerance
    res = wmmse_allocate(inst)
    assert res.objective == ch.sum_rate(inst, res.p)


def test_sweep_blocks_match_the_textbook_complex_form():
    # u = g_mm v / t, w = 1 / (1 - Re(conj(u) g_mm v)), the numerator
    # alpha w Re(conj(u) g_mm) and the coefficient alpha w |u|^2, t the total
    # received power, from the complex G; SINRs below 1e3 keep the
    # cancellation in w's denominator far below the tolerance
    rng = np.random.default_rng(37)
    for m in (1, 2, 5, 8):
        link = {"sigma2": 10.0 ** rng.uniform(-1.0, 0.0, m), "alpha": rng.uniform(0.1, 2.0, m),
                "p_max": rng.uniform(0.5, 3.0)}
        insts, drawn = [], []
        for _ in range(20):
            drawn.append(np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, (m, m)))
                         * np.exp(2j * np.pi * rng.random((m, m))))
            insts.append(_channels(G=drawn[-1], **link))
        batch = ch.ChannelBatch.stack(insts)
        v = rng.random((20, m)) * batch.p_max
        gamma, numer, coeff = wmmse._mmse_blocks(batch, v)
        G = np.stack(drawn)
        g = np.diagonal(G, axis1=1, axis2=2)
        t = np.einsum("bk,bkm->bm", v ** 2, np.abs(G) ** 2) + batch.sigma2
        u = g * v / t
        w = 1.0 / (1.0 - np.real(np.conj(u) * g * v))
        np.testing.assert_allclose(1.0 + gamma, w, rtol=1e-12)
        np.testing.assert_allclose(numer, batch.alpha * w * np.real(np.conj(u) * g), rtol=1e-12)
        np.testing.assert_allclose(coeff, batch.alpha * w * np.abs(u) ** 2, rtol=1e-12)


def _same_result(got, want):
    return (np.array_equal(got.p, want.p) and got.objective == want.objective
            and np.array_equal(got.trace, want.trace) and got.converged == want.converged
            and got.iterations == want.iterations and got.start == want.start)


def _one_size_lists():
    """1-8 instances of one size M of 1-10 and one set of link constants."""
    return _instance_lists(max_m=10, max_count=8)


@settings(max_examples=40)
@given(insts=_one_size_lists(), budget=st.integers(1, 64) | st.just(ch.BLOCK_BYTES // 8),
       per_block=st.sampled_from([None, 2, 3]))
def test_wmmse_batch_matches_the_per_start_reference(insts, budget, per_block):
    # a block holds whole instances, S starts of M^2 gains each: a budget of
    # 1-64 elements puts one instance of M >= 3 in a block, and per_block
    # sizes the budget to put that many in one
    if per_block:
        m = insts[0].M
        budget = per_block * wmmse._start_count(m) * m * m
    with mock.patch.object(ch, "BLOCK_BYTES", 8 * budget):  # one float per row gain
        got = wmmse_batch(ch.ChannelBatch.stack(insts))
    want = [wmmse_reference.wmmse_allocate(inst) for inst in insts]
    assert all(_same_result(g, w) for g, w in zip(got, want))


def test_wmmse_batch_matches_the_reference_on_unconverged_starts(monkeypatch):
    rng = np.random.default_rng(13)
    insts = [_channels(G=np.sqrt(10.0 ** rng.uniform(-2.0, 2.0, (m, m))),
                       sigma2=0.1, alpha=1.0, p_max=1.0) for m in (3, 3, 3, 3)]
    monkeypatch.setattr(wmmse, "MAX_ITER", 2)
    monkeypatch.setattr(wmmse, "TOL", 1e-30)
    got = wmmse_batch(ch.ChannelBatch.stack(insts))
    assert {res.converged for res in got} == {True, False}  # both ways a row stops
    assert all(_same_result(g, wmmse_reference.wmmse_allocate(inst))
               for g, inst in zip(got, insts))


def test_wmmse_batch_memory_is_bounded_by_a_block():
    rng = np.random.default_rng(31)
    # 100 instances of M = 16: 1,900 rows of 256 gains
    stack = ch.ChannelBatch.stack([_random_instance(rng, 16) for _ in range(100)])
    tracemalloc.start()
    try:
        wmmse_batch(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_a_corner_start_wins_under_strong_interference():
    # pair 1 alone beats full power, where each pair drowns in the other's signal
    G = np.array([[1.0, 3.0], [3.0, 2.0]], dtype=complex)
    inst = _channels(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
    res = wmmse_allocate(inst)
    assert res.start == 2  # 0 full power, 1 and 2 the corners of pairs 0 and 1
    assert np.array_equal(res.p, [0.0, 1.0])


def test_tied_starts_resolve_to_the_earliest():
    # both corners of a symmetric pair reach the same objective, bit for bit
    G = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)
    inst = _channels(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
    corners = [wmmse_reference.wmmse_sweeps(inst, v0) for v0 in np.eye(2)]
    assert corners[0].objective == corners[1].objective
    res = wmmse_allocate(inst)
    assert res.start == 1
    assert res.objective == corners[0].objective


def test_grid_oracle_single_pair_matches_scan():
    inst = _channels(G=np.array([[0.9]]), sigma2=0.2, alpha=1.0, p_max=1.0)
    p, obj = grid_search_oracle(inst, levels=101)
    axis = np.linspace(0.0, 1.0, 101)
    objs = [ch.sum_rate(inst, np.array([x])) for x in axis]
    assert obj == max(objs)
    assert p[0] == axis[int(np.argmax(objs))]


def test_grid_oracle_refinement_never_worse():
    # the 65-level grid contains every 33-level point, so it can only improve
    rng = np.random.default_rng(17)
    inst = _random_instance(rng, 3)
    _, coarse = grid_search_oracle(inst, levels=33)
    _, fine = grid_search_oracle(inst, levels=65)
    assert fine >= coarse - 1e-12


def test_grid_oracle_guards():
    rng = np.random.default_rng(19)
    inst = _random_instance(rng, 6)
    assert 33 ** 6 > GRID_POINT_GUARD
    with pytest.raises(InstanceTooLargeError):
        grid_search_oracle(inst, levels=33)
    with pytest.raises(ValueError):
        grid_search_oracle(inst, levels=1)


def _one_rates(inst, axis, idx, own):
    """wmmse._rates on one realization: a stack of one."""
    where = np.zeros((1,) * len(idx), dtype=int)
    return wmmse._rates(ch.ChannelBatch.stack([inst]), axis, where, idx, own)


def _scan(inst, levels):
    """Reference: every grid point in lexicographic order, and sum_rate at
    each point, scored one by one."""
    axis = np.linspace(0.0, inst.p_max, levels)
    points = np.array(list(itertools.product(axis, repeat=inst.M)))
    return points, np.array([ch.sum_rate(inst, point) for point in points])


def _oracle_rows(data, m, count):
    """count realizations of M = m pairs for the grid oracle, sharing link
    constants that may hold an alpha = 0 link: log-uniform gains, maybe with
    a transmitter whose gains are all 0."""
    alpha = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m),
                               label="alpha"))
    silent = data.draw(st.none() | st.integers(0, m - 1), label="alpha=0 link")
    if silent is not None:
        alpha[silent] = 0.0
    sigma2 = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m), label="sigma2")
    p_max = data.draw(st.floats(0.1, 10.0), label="p_max")
    gains = st.lists(st.floats(-6.0, 3.0), min_size=m * m, max_size=m * m)
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=m * m, max_size=m * m)
    rows = []
    for _ in range(count):
        G = (np.exp(np.array(data.draw(gains, label="log |g|")))
             * np.exp(1j * np.array(data.draw(phases, label="phase")))).reshape(m, m)
        dead = data.draw(st.none() | st.integers(0, m - 1), label="zero gain row")
        if dead is not None:
            G[dead, :] = 0.0  # every level of this transmitter ties
        rows.append(_channels(G=G, sigma2=sigma2, alpha=alpha, p_max=p_max))
    return rows


@settings(max_examples=120)
@given(data=st.data())
def test_grid_oracle_matches_a_per_point_scan(data):
    m = data.draw(st.integers(1, 5), label="M")
    levels = data.draw(st.integers(2, 6), label="levels")
    inst, = _oracle_rows(data, m, 1)
    # slabs of a handful of points put slab boundaries inside small grids
    slab = data.draw(st.integers(1, 64) | st.just(wmmse.SLAB_POINTS), label="slab points")
    with mock.patch.object(wmmse, "SLAB_POINTS", slab):
        p, obj = grid_search_oracle(inst, levels)
    points, objs = _scan(inst, levels)
    first_max = int(np.argmax(objs))
    assert np.array_equal(p, points[first_max])
    assert obj == objs[first_max]
    # below 8 receivers every in-grid value is bit-equal to sum_rate
    idx = list(np.indices((levels,) * m, sparse=True))
    whole = _one_rates(inst, np.linspace(0.0, inst.p_max, levels), idx, idx)
    assert np.array_equal(whole.ravel(), objs)


@settings(max_examples=60)
@given(data=st.data())
def test_grid_oracle_on_a_stack_matches_a_per_point_scan_row_by_row(data):
    m = data.draw(st.integers(1, 4), label="M")
    levels = data.draw(st.integers(2, 5), label="levels")
    rows = _oracle_rows(data, m, data.draw(st.integers(1, 5), label="rows"))
    slab = data.draw(st.integers(1, 64) | st.just(wmmse.SLAB_POINTS), label="slab points")
    # a budget of a few bytes runs each realization in a row block of its own
    budget = data.draw(st.integers(1, 4096) | st.just(ch.BLOCK_BYTES), label="block bytes")
    with mock.patch.object(wmmse, "SLAB_POINTS", slab), \
            mock.patch.object(ch, "BLOCK_BYTES", budget):
        P, objs = grid_search_oracle(ch.ChannelBatch.stack(rows), levels)
    assert P.shape == (len(rows), m) and objs.shape == (len(rows),)
    for inst, p, obj in zip(rows, P, objs):
        points, scan = _scan(inst, levels)
        first_max = int(np.argmax(scan))
        assert np.array_equal(p, points[first_max])
        assert obj == scan[first_max]


def test_grid_oracle_on_an_empty_stack_gives_empty_arrays():
    empty = _channels(G=np.zeros((0, 3, 3)), sigma2=0.1, alpha=1.0, p_max=1.0)
    P, objs = grid_search_oracle(empty, 5)
    assert P.shape == (0, 3) and objs.shape == (0,)


def test_grid_oracle_matches_a_per_point_scan_at_sixteen_pairs():
    # From 8 receivers on, numpy's pairwise sum over receivers may round an
    # in-grid value otherwise than sum_rate; the point and the returned
    # objective must still be those of the per-point scan.
    rng = np.random.default_rng(29)
    for _ in range(2):
        inst = _random_instance(rng, 16)
        p, obj = grid_search_oracle(inst, levels=2)
        points, objs = _scan(inst, 2)
        first_max = int(np.argmax(objs))
        assert np.array_equal(p, points[first_max])
        assert obj == objs[first_max] == ch.sum_rate(inst, p)


def test_grid_oracle_memory_is_bounded_by_a_slab():
    rng = np.random.default_rng(23)
    inst = _random_instance(rng, 6)
    tracemalloc.start()
    try:
        grid_search_oracle(inst, levels=10)  # 10**6 points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("drops", [100, 1000])
def test_grid_oracle_memory_on_a_stack_is_bounded_by_a_row_block(drops):
    # the desk eval's oracle: a whole test stack at 17 levels in one call
    seeds = np.arange(drops)
    sc = ch.generate_scenario(4, ch.DEFAULT_AREA_SIDE, ch.DEFAULT_MIN_RANGE,
                              ch.DEFAULT_MAX_RANGE, seeds)
    stack = _channels(ch.realize_channels(sc, seed=seeds + 100_000), ch.DEFAULT_NOISE_POWER,
                      ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
    tracemalloc.start()
    try:
        grid_search_oracle(stack, levels=17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@settings(max_examples=200)
@given(data=st.data())
def test_block_bound_is_at_least_every_rate_in_its_block(data):
    m = data.draw(st.integers(1, 5), label="M")
    levels = data.draw(st.integers(2, 5), label="levels")
    lead = data.draw(st.integers(0, m), label="fixed leading axes")
    # |g|^2 from 1e-40 to 1e20 and noise down to 1e-300: some SINRs overflow to inf
    gains = st.lists(st.floats(-46.0, 23.0), min_size=m * m, max_size=m * m)
    G = np.exp(np.array(data.draw(gains, label="log |g|"))).reshape(m, m).astype(complex)
    alpha = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m),
                               label="alpha"))
    silent = data.draw(st.none() | st.integers(0, m - 1), label="alpha=0 link")
    if silent is not None:
        alpha[silent] = 0.0
    dead = data.draw(st.none() | st.integers(0, m - 1), label="zero gain row")
    if dead is not None:
        G[dead, :] = 0.0
    log_noise = st.lists(st.floats(-300.0, 0.0), min_size=m, max_size=m)
    sigma2 = 10.0 ** np.array(data.draw(log_noise, label="log10 sigma2"))
    p_max = data.draw(st.floats(0.1, 10.0), label="p_max")
    inst = _channels(G=G, sigma2=sigma2, alpha=alpha, p_max=p_max)
    axis = np.linspace(0.0, p_max, levels)
    bounds = wmmse._block_bounds(ch.ChannelBatch.stack([inst]), axis, lead)[0]
    idx = list(np.indices((levels,) * m, sparse=True))
    rates = _one_rates(inst, axis, idx, idx).reshape(len(bounds), -1)
    # a NaN bound (0 * inf at an alpha = 0 link) is never used to skip a
    # block; a NaN rate occurs only in such a block
    usable = ~np.isnan(bounds)
    assert not np.isnan(rates[usable]).any()
    assert np.all(rates[usable] <= bounds[usable, None] * (1.0 + wmmse.BOUND_MARGIN))


def _full_scan(inst, levels):
    """Reference: every grid value at once, its first maximum, and sum_rate there."""
    axis = np.linspace(0.0, inst.p_max, levels)
    idx = list(np.indices((levels,) * inst.M, sparse=True))
    rates = _one_rates(inst, axis, idx, idx)
    p = axis[np.array(np.unravel_index(int(np.argmax(rates)), rates.shape))]
    return p, ch.sum_rate(inst, p)


@pytest.mark.parametrize("m, d, levels, count", [
    (4, 100.0, 17, 12),  # the desk grid, where the bound prunes most blocks
    (4, 20.0, 17, 12),   # dense drops: little can be pruned
    (12, 20.0, 2, 3),
    (16, 20.0, 2, 2),
])
def test_grid_oracle_is_bit_equal_to_a_full_scan(m, d, levels, count):
    rng = np.random.default_rng(31)
    rates_fn, evaluated = wmmse._rates, []

    def counted(*args):
        rates = rates_fn(*args)
        evaluated.append(rates.size)
        return rates

    for _ in range(count):
        sc = ch.generate_scenario(m, d, 2.0, 10.0, seed=int(rng.integers(1 << 31)))
        inst = _channels(ch.realize_channels(sc, seed=int(rng.integers(1 << 31))),
                         ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
        with mock.patch.object(wmmse, "_rates", counted):
            p, obj = grid_search_oracle(inst, levels)
        want_p, want_obj = _full_scan(inst, levels)
        assert np.array_equal(p, want_p)
        assert obj == want_obj
    if d == 100.0:  # the search covers the grid but evaluates a small part of it
        assert sum(evaluated) < 0.1 * count * levels ** m


def test_grid_oracle_ties_across_chunks_go_to_the_first_point():
    # Pair 1's rate at full power ignores pair 0 (a tiny gain, absorbed by the
    # noise), and pair 0's rate is exactly 0 whenever pair 1 transmits at
    # full power (a huge cross gain), so every (p0, p_max) point ties; only
    # at p1 = 0 does pair 0 raise its block's bound. The search meets the
    # block p0 = p_max first, and must still return p0 = 0.
    G = np.array([[1.0, 1e-10], [1e15, 1e3]], dtype=complex)
    inst = _channels(G=G, sigma2=1.0, alpha=1.0, p_max=1.0)
    with mock.patch.object(wmmse, "BLOCK_POINTS", 2):  # one block per level of p0
        p, obj = grid_search_oracle(inst, 5)
    assert np.array_equal(p, [0.0, 1.0])
    assert obj == ch.sum_rate(inst, p) == ch.sum_rate(inst, np.array([1.0, 1.0]))


def test_grid_oracle_ties_across_chunks_go_to_the_first_point_inside_a_stack():
    # the instance above, searched beside other realizations in one call
    G = np.array([[1.0, 1e-10], [1e15, 1e3]], dtype=complex)
    tied = _channels(G=G, sigma2=1.0, alpha=1.0, p_max=1.0)
    rng = np.random.default_rng(37)
    rows = [_random_instance(rng, 2, sigma2=1.0), tied, _random_instance(rng, 2, sigma2=1.0),
            _random_instance(rng, 2, sigma2=1.0)]
    with mock.patch.object(wmmse, "BLOCK_POINTS", 2):  # one block per level of p0
        P, objs = grid_search_oracle(ch.ChannelBatch.stack(rows), 5)
        alone = [grid_search_oracle(inst, 5) for inst in rows]
    assert np.array_equal(P[1], [0.0, 1.0])
    assert objs[1] == ch.sum_rate(tied, P[1]) == ch.sum_rate(tied, np.array([1.0, 1.0]))
    assert all(np.array_equal(p, q) and obj == o for (p, obj), q, o in zip(alone, P, objs))
