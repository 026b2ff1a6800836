"""Channel generation, SINR, objective, and dataset round trips."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgpc import channels as ch


def _instance(G, sigma2=0.1, alpha=1.0, p_max=1.0):
    return ch.ChannelRealization(G=np.asarray(G, dtype=complex), sigma2=sigma2,
                                 alpha=alpha, p_max=p_max)


def test_generate_scenario_geometry_and_determinism():
    a = ch.generate_scenario(6, 100.0, 2.0, 10.0, seed=5)
    b = ch.generate_scenario(6, 100.0, 2.0, 10.0, seed=5)
    assert np.array_equal(a.tx_pos, b.tx_pos)
    assert np.array_equal(a.rx_pos, b.rx_pos)
    for pos in (a.tx_pos, a.rx_pos):
        assert np.all(pos >= 0.0) and np.all(pos <= 100.0)
    dist = np.linalg.norm(a.tx_pos - a.rx_pos, axis=1)
    assert np.all(dist >= 2.0 - 1e-12) and np.all(dist <= 10.0 + 1e-12)
    c = ch.generate_scenario(6, 100.0, 2.0, 10.0, seed=6)
    assert not np.array_equal(a.tx_pos, c.tx_pos)


def test_generate_scenario_rejects_bad_geometry():
    with pytest.raises(ch.GeometryError):
        ch.generate_scenario(4, 100.0, 10.0, 2.0, seed=0)
    with pytest.raises(ch.GeometryError):
        ch.generate_scenario(4, 5.0, 2.0, 10.0, seed=0)
    with pytest.raises(ch.GeometryError):
        ch.generate_scenario(0, 100.0, 2.0, 10.0, seed=0)


def test_pathloss_unit_at_zero_distance():
    assert ch.pathloss(0.0, 3.0) == 1.0
    assert ch.pathloss(1.0, 3.0) == pytest.approx(0.125)


def test_realize_channels_no_fading_no_pathloss_gives_unit_gains():
    sc = ch.generate_scenario(5, 100.0, 2.0, 10.0, seed=1)
    inst = ch.realize_channels(sc, pathloss_exp=0.0, fading=False)
    assert np.allclose(np.abs(inst.G), 1.0, atol=0.0)


def test_realize_channels_deterministic_per_seed():
    sc = ch.generate_scenario(4, 100.0, 2.0, 10.0, seed=2)
    a = ch.realize_channels(sc, seed=9)
    b = ch.realize_channels(sc, seed=9)
    c = ch.realize_channels(sc, seed=10)
    assert np.array_equal(a.G, b.G)
    assert not np.array_equal(a.G, c.G)


def test_fading_power_is_unit_mean():
    # |g|^2 / pathloss should average to 1; 1e5 draws keeps the error ~0.3%.
    sc = ch.generate_scenario(1, 100.0, 2.0, 10.0, seed=3)
    dist = float(np.linalg.norm(sc.tx_pos[0] - sc.rx_pos[0]))
    draws = np.array([
        np.abs(ch.realize_channels(sc, seed=s).G[0, 0]) ** 2
        for s in range(200)
    ])
    # cheaper equivalent of many realizations: draw the fading directly
    rng = np.random.default_rng(12)
    fade = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / np.sqrt(2)
    assert abs(np.mean(np.abs(fade) ** 2) - 1.0) < 0.02
    assert abs(np.mean(draws) / ch.pathloss(dist, 3.0) - 1.0) < 0.25


def test_sinr_two_pair_worked_example():
    inst = _instance([[1.0, 0.5], [0.5, 1.0]], sigma2=0.1)
    gamma = ch.sinr(inst, np.array([1.0, 1.0]))
    assert gamma == pytest.approx([1.0 / 0.35, 1.0 / 0.35], rel=1e-12)


def test_sinr_scale_covariance():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = rng.uniform(0.1, 1.0, 4)
    base = ch.sinr(_instance(G, sigma2=0.05), p)
    scale = 7.3
    scaled = ch.sinr(_instance(scale * G, sigma2=0.05 * scale ** 2), p)
    assert np.allclose(scaled, base, rtol=1e-12, atol=0.0)


def test_sinr_monotone_single_pair():
    inst = _instance([[0.8 + 0.1j]], sigma2=0.3)
    values = [ch.sinr(inst, np.array([p]))[0] for p in np.linspace(0.05, 1.0, 12)]
    assert np.all(np.diff(values) > 0)


def test_sinr_pure_and_shape_checked():
    inst = _instance([[1.0, 0.2], [0.3, 1.0]])
    p = np.array([0.5, 0.7])
    before = p.copy()
    a = ch.sinr(inst, p)
    b = ch.sinr(inst, p)
    assert np.array_equal(a, b)
    assert np.array_equal(p, before)
    with pytest.raises(ch.DimensionError):
        ch.sinr(inst, np.ones(3))


def test_weighted_sum_rate_values():
    assert ch.weighted_sum_rate([3.0, 1.0], [0.5, 2.0]) == pytest.approx(3.0, abs=1e-12)
    assert ch.weighted_sum_rate([5.0, 2.0], [0.0, 0.0]) == 0.0
    with pytest.raises(ch.DimensionError):
        ch.weighted_sum_rate([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ch.weighted_sum_rate([-0.1], [1.0])


def test_sum_rate_batch_matches_scalar_path():
    rng = np.random.default_rng(8)
    for m, alpha in [(3, np.array([1.0, 0.5, 2.0])), (9, rng.uniform(0.5, 2.0, 9))]:
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        inst = _instance(G, sigma2=0.2, alpha=alpha)
        P = rng.uniform(0.0, 1.0, (20, m))
        batch = ch.sum_rate_batch(inst, P)
        assert batch.shape == (20,)
        for i, p in enumerate(P):
            assert batch[i] == ch.sum_rate(inst, p)  # bit for bit
    with pytest.raises(ch.DimensionError):
        ch.sum_rate_batch(inst, P[0])


@st.composite
def _grad_cases(draw):
    """Random instances with gains over eight decades and one silent pair."""
    m = draw(st.integers(1, 6))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    gains = 10.0 ** arr((m, m), -4.0, 4.0)  # |g_km|^2
    G = np.sqrt(gains) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
    inst = _instance(G, sigma2=10.0 ** arr((m,), -2.0, 0.0), alpha=arr((m,), 0.0, 2.0))
    p = arr((m,), 0.05, 1.0)
    p[draw(st.integers(0, m - 1))] = 0.0
    return inst, p


@settings(max_examples=80)
@given(_grad_cases())
def test_weighted_sum_rate_grad_property_matches_central_differences(case):
    inst, p = case
    grad = ch.weighted_sum_rate_grad(inst, p)
    h = 1e-6
    fd = np.array([
        (ch.sum_rate(inst, p + h * e) - ch.sum_rate(inst, p - h * e)) / (2 * h)
        for e in np.eye(inst.M)
    ])
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)
    assert np.all(grad[p == 0.0] == 0.0)  # the objective is even in each p_m


@st.composite
def _mixed_size_cases(draw):
    """Realizations of mixed M (1-10) with gains over eight decades, and one
    power vector each, every power 0 or in [1e-3, 1] p_max (a power near 1e-156
    squares into the subnormal range, where products lose bits)."""
    insts, powers = [], []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, 10))

        def arr(shape, lo, hi):
            return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

        G = np.sqrt(10.0 ** arr((m, m), -4.0, 4.0)) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
        inst = _instance(G, sigma2=10.0 ** arr((m,), -3.0, 0.0), alpha=arr((m,), 0.0, 2.0),
                         p_max=draw(st.floats(0.1, 10.0)))
        insts.append(inst)
        powers.append(inst.p_max * draw(hnp.arrays(
            float, (m,), elements=st.just(0.0) | st.floats(1e-3, 1.0))))
    return insts, powers


def _both_paths(insts, powers, fn):
    """fn on each realization alone, and fn on each same-size ChannelBatch,
    the batch rows put back in input order."""
    alone = [fn(inst, p) for inst, p in zip(insts, powers)]
    batched = [None] * len(insts)
    for idx, batch in ch.stack_by_size(insts):
        out = fn(batch, np.stack([powers[i] for i in idx]))
        for row, i in enumerate(idx):
            batched[i] = out[row]
    return alone, batched


@settings(max_examples=80)
@given(_mixed_size_cases())
def test_batch_sum_rate_and_gradient_match_single_instance_calls(case):
    for fn in (ch.sum_rate, ch.weighted_sum_rate_grad, ch.sinr):
        alone, batched = _both_paths(*case, fn)
        assert all(np.array_equal(a, b) for a, b in zip(alone, batched))  # bit for bit


@settings(max_examples=60)
@given(_mixed_size_cases(), st.integers(-8, 8))
def test_sinr_is_unchanged_when_gains_scale_by_c_and_noise_by_c_squared(case, k):
    # c a power of two scales every term exactly, so the SINR keeps its bits
    insts, powers = case
    c = 2.0 ** k
    scaled = [_instance(c * inst.G, sigma2=c ** 2 * inst.sigma2, alpha=inst.alpha,
                        p_max=inst.p_max) for inst in insts]
    base, base_batched = _both_paths(insts, powers, ch.sinr)
    got, got_batched = _both_paths(scaled, powers, ch.sinr)
    assert all(np.array_equal(a, b) for a, b in zip(base + base_batched, got + got_batched))


@settings(max_examples=60)
@given(_mixed_size_cases(), st.data())
def test_a_silent_transmitter_adds_no_interference_and_has_rate_zero(case, data):
    insts, powers = case
    silent = [data.draw(st.integers(0, inst.M - 1)) for inst in insts]
    for p, k in zip(powers, silent):
        p[k] = 0.0
    # the same network with transmitter k's gains to every receiver removed
    cut = []
    for inst, k in zip(insts, silent):
        G = inst.G.copy()
        G[k, :] = 0.0
        cut.append(_instance(G, sigma2=inst.sigma2, alpha=inst.alpha, p_max=inst.p_max))
    for gamma, gamma_cut in zip(_both_paths(insts, powers, ch.sinr),
                                _both_paths(cut, powers, ch.sinr)):
        for g, g_cut, k in zip(gamma, gamma_cut, silent):
            assert g[k] == 0.0  # so its term alpha_k log2(1 + gamma_k) is 0
            assert np.array_equal(g, g_cut)


def test_sigmoid_is_stable_at_extreme_scores():
    z = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
    with np.errstate(all="raise"):
        got = ch.sigmoid(z)
    want = [float(1 / (1 + Decimal(-v).exp())) for v in z]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert got[0] == 0.0 and got[2] == 0.5 and got[-1] == 1.0


def test_weighted_sum_rate_grad_matches_finite_differences():
    rng = np.random.default_rng(15)
    for trial in range(5):
        m = int(rng.integers(2, 5))
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        inst = _instance(G, sigma2=0.1, alpha=rng.uniform(0.5, 2.0, m))
        p = rng.uniform(0.2, 0.9, m)
        grad = ch.weighted_sum_rate_grad(inst, p)
        h = 1e-6
        fd = np.zeros(m)
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd[j] = (ch.sum_rate(inst, p + e) - ch.sum_rate(inst, p - e)) / (2 * h)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_channel_realization_validation():
    with pytest.raises(ValueError):
        _instance([[1.0]], sigma2=0.0)
    with pytest.raises(ValueError):
        _instance([[1.0]], p_max=0.0)
    with pytest.raises(ValueError):
        _instance([[1.0]], alpha=-1.0)
    with pytest.raises(ch.DimensionError):
        ch.ChannelRealization(G=np.ones((2, 3)), sigma2=0.1, alpha=1.0, p_max=1.0)


def test_dataset_round_trip(tmp_path):
    sc = ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=21)
    train = [ch.realize_channels(sc, seed=s) for s in range(4)]
    test = [ch.realize_channels(sc, seed=100 + s) for s in range(2)]
    path = tmp_path / "data.jsonl"
    ch.save_dataset(path, train, test, meta={"seed": 21})
    loaded_train, loaded_test, header = ch.load_dataset(path)
    assert header["M"] == 3 and header["train"] == 4 and header["test"] == 2
    assert header["seed"] == 21 and header["version"] == ch.DATASET_VERSION
    for orig, back in zip(train + test, loaded_train + loaded_test):
        assert np.array_equal(orig.G, back.G)
        assert np.array_equal(orig.sigma2, back.sigma2)
        assert np.array_equal(orig.alpha, back.alpha)
        assert orig.p_max == back.p_max
    first = path.read_bytes()
    ch.save_dataset(path, train, test, meta={"seed": 21})
    assert path.read_bytes() == first


def test_dataset_rejects_mixed_constants(tmp_path):
    sc = ch.generate_scenario(2, 100.0, 2.0, 10.0, seed=1)
    a = ch.realize_channels(sc, sigma2=0.01, seed=0)
    b = ch.realize_channels(sc, sigma2=0.02, seed=1)
    with pytest.raises(ValueError):
        ch.save_dataset(tmp_path / "bad.jsonl", [a], [b])
