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


def _random_instance(rng, m, sigma2=1e-2):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=int(rng.integers(1 << 31)))
    return ch.realize_channels(sc, sigma2=sigma2, seed=int(rng.integers(1 << 31)))


def test_single_pair_goes_full_power():
    inst = ch.ChannelRealization(G=np.array([[0.7 + 0.2j]]), sigma2=0.1, alpha=1.0, p_max=1.0)
    res = wmmse_allocate(inst)
    assert res.p[0] == pytest.approx(1.0, abs=1e-12)
    assert res.converged
    assert res.objective == pytest.approx(ch.sum_rate(inst, res.p), abs=1e-12)


def test_symmetric_pairs_get_symmetric_power():
    G = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    inst = ch.ChannelRealization(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
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
def _instances(draw, max_m=6):
    """Random instances: M 1-max_m, gains over 1e-4..1e4, per-receiver noise."""
    m = draw(st.integers(1, max_m))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    G = np.sqrt(10.0 ** arr((m, m), -4.0, 4.0)) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
    return ch.ChannelRealization(G=G, sigma2=10.0 ** arr((m,), -3.0, 0.0),
                                 alpha=arr((m,), 0.1, 2.0), p_max=draw(st.floats(0.1, 10.0)))


@settings(max_examples=60)
@given(_instances())
def test_wmmse_stays_feasible_and_monotone_on_random_instances(inst):
    res = wmmse_allocate(inst)
    assert np.all(res.p >= 0.0) and np.all(res.p <= inst.p_max)
    assert np.all(np.diff(res.trace) >= -1e-9)  # acceptance 3's tolerance
    assert res.objective == ch.sum_rate(inst, res.p)


def _same_result(got, want):
    return (np.array_equal(got.p, want.p) and got.objective == want.objective
            and np.array_equal(got.trace, want.trace) and got.converged == want.converged
            and got.iterations == want.iterations and got.start == want.start)


@settings(max_examples=40)
@given(insts=st.lists(_instances(max_m=10), min_size=1, max_size=6),
       budget=st.integers(1, 64) | st.just(wmmse.ROW_BLOCK_ELEMENTS))
def test_wmmse_batch_matches_the_per_start_reference(insts, budget):
    # budgets of a few elements split an instance's starts over several blocks
    with mock.patch.object(wmmse, "ROW_BLOCK_ELEMENTS", budget):
        got = wmmse_batch(insts)
    want = [wmmse_reference.wmmse_allocate(inst) for inst in insts]
    assert all(_same_result(g, w) for g, w in zip(got, want))


def test_wmmse_batch_matches_the_reference_on_unconverged_starts(monkeypatch):
    rng = np.random.default_rng(13)
    insts = [ch.ChannelRealization(G=np.sqrt(10.0 ** rng.uniform(-2.0, 2.0, (m, m))),
                                   sigma2=0.1, alpha=1.0, p_max=1.0) for m in (3, 1, 5, 3)]
    monkeypatch.setattr(wmmse, "MAX_ITER", 2)
    monkeypatch.setattr(wmmse, "TOL", 1e-30)
    got = wmmse_batch(insts)
    assert {res.converged for res in got} == {True, False}  # both ways a row stops
    assert all(_same_result(g, wmmse_reference.wmmse_allocate(inst))
               for g, inst in zip(got, insts))


def test_wmmse_batch_memory_is_bounded_by_a_block():
    rng = np.random.default_rng(31)
    insts = [_random_instance(rng, 16) for _ in range(100)]  # 1,900 rows of 256 gains
    tracemalloc.start()
    try:
        wmmse_batch(insts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_a_corner_start_wins_under_strong_interference():
    # pair 1 alone beats full power, where each pair drowns in the other's signal
    G = np.array([[1.0, 3.0], [3.0, 2.0]], dtype=complex)
    inst = ch.ChannelRealization(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
    res = wmmse_allocate(inst)
    assert res.start == 2  # 0 full power, 1 and 2 the corners of pairs 0 and 1
    assert np.array_equal(res.p, [0.0, 1.0])


def test_tied_starts_resolve_to_the_earliest():
    # both corners of a symmetric pair reach the same objective, bit for bit
    G = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)
    inst = ch.ChannelRealization(G=G, sigma2=0.1, alpha=1.0, p_max=1.0)
    corners = [wmmse_reference.wmmse_sweeps(inst, v0) for v0 in np.eye(2)]
    assert corners[0].objective == corners[1].objective
    res = wmmse_allocate(inst)
    assert res.start == 1
    assert res.objective == corners[0].objective


def test_grid_oracle_single_pair_matches_scan():
    inst = ch.ChannelRealization(G=np.array([[0.9]]), sigma2=0.2, alpha=1.0, p_max=1.0)
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


def _scan(inst, levels):
    """Reference: every grid point in lexicographic order, and sum_rate at
    each point, scored one by one."""
    axis = np.linspace(0.0, inst.p_max, levels)
    points = np.array(list(itertools.product(axis, repeat=inst.M)))
    return points, np.array([ch.sum_rate(inst, point) for point in points])


@settings(max_examples=120)
@given(data=st.data())
def test_grid_oracle_matches_a_per_point_scan(data):
    m = data.draw(st.integers(1, 5), label="M")
    levels = data.draw(st.integers(2, 6), label="levels")
    gains = st.lists(st.floats(-6.0, 3.0), min_size=m * m, max_size=m * m)
    phases = st.lists(st.floats(0.0, 2 * np.pi), min_size=m * m, max_size=m * m)
    G = (np.exp(np.array(data.draw(gains, label="log |g|")))
         * np.exp(1j * np.array(data.draw(phases, label="phase")))).reshape(m, m)
    alpha = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m),
                               label="alpha"))
    silent = data.draw(st.none() | st.integers(0, m - 1), label="alpha=0 link")
    if silent is not None:
        alpha[silent] = 0.0
    dead = data.draw(st.none() | st.integers(0, m - 1), label="zero gain row")
    if dead is not None:
        G[dead, :] = 0.0  # every level of this transmitter ties
    sigma2 = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m), label="sigma2")
    p_max = data.draw(st.floats(0.1, 10.0), label="p_max")
    inst = ch.ChannelRealization(G=G, sigma2=sigma2, alpha=alpha, p_max=p_max)
    # slabs of a handful of points put slab boundaries inside small grids
    slab = data.draw(st.integers(1, 64) | st.just(wmmse.SLAB_POINTS), label="slab points")
    with mock.patch.object(wmmse, "SLAB_POINTS", slab):
        p, obj = grid_search_oracle(inst, levels)
    points, objs = _scan(inst, levels)
    first_max = int(np.argmax(objs))
    assert np.array_equal(p, points[first_max])
    assert obj == objs[first_max]
    # below 8 receivers every in-grid value is bit-equal to sum_rate
    whole = wmmse._slab_sum_rate(inst, np.linspace(0.0, inst.p_max, levels), (slice(None),) * m)
    assert np.array_equal(whole.ravel(), objs)


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
