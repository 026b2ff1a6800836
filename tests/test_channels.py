"""Channel generation, SINR, objective, and dataset round trips."""

import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgpc import channels as ch


def _instance(G, sigma2=0.1, alpha=1.0, p_max=1.0):
    return ch.ChannelBatch.from_gains(G, sigma2, alpha, p_max)


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


def _reference_drop(M, d, d_min, d_max, seed, fade_seed):
    """One drop and its gains as a per-instance loop draws them, one scalar
    range and bearing per attempt: the reference for the batched draw.
    Returns the positions, G and the attempts each pair took."""
    rng = np.random.default_rng(seed)
    tx = rng.uniform(0.0, d, size=(M, 2))
    rx = np.empty((M, 2))
    tries = []
    for i in range(M):
        tries.append(0)
        while True:
            tries[-1] += 1
            r = rng.uniform(d_min, d_max)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            cand = tx[i] + r * np.array([np.cos(phi), np.sin(phi)])
            if 0.0 <= cand[0] <= d and 0.0 <= cand[1] <= d:
                rx[i] = cand
                break
    diff = tx[:, None, :] - rx[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    amp = np.sqrt(ch.pathloss(dist, ch.DEFAULT_PATHLOSS_EXP))
    rng = np.random.default_rng(fade_seed)
    fade = (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / np.sqrt(2.0)
    return tx, rx, amp * fade, tries


@pytest.mark.parametrize("M", [1, 2, 4, 16])
@pytest.mark.parametrize("d", [100.0, 20.0, 10.0])  # the desk square, a dense one, d = d_max
def test_batched_draw_gives_the_bits_of_a_per_instance_draw(M, d):
    seeds = np.array([2 ** 64 - 1 - s if s % 2 else s for s in range(24)], dtype=np.uint64)
    fade_seeds = seeds ^ np.uint64(0xFADE)
    scen = ch.generate_scenario(M, d, 2.0, 10.0, seed=seeds)
    batch = ch.realize_channels(scen, seed=fade_seeds)
    assert scen.tx_pos.shape == scen.rx_pos.shape == (24, M, 2) and len(batch) == 24
    used = []
    for b, (seed, fade_seed) in enumerate(zip(seeds.tolist(), fade_seeds.tolist())):
        tx, rx, G, tries = _reference_drop(M, d, 2.0, 10.0, seed, fade_seed)
        assert np.array_equal(scen.tx_pos[b].view(np.uint8), tx.view(np.uint8))
        assert np.array_equal(scen.rx_pos[b].view(np.uint8), rx.view(np.uint8))
        assert np.array_equal(batch[b].view(np.uint8), G.view(np.uint8))
        used.append(sum(tries))
    one = ch.realize_channels(ch.generate_scenario(M, d, 2.0, 10.0, seed=seed), seed=fade_seed)
    assert np.array_equal(one.view(np.uint8), G.view(np.uint8))  # a scalar seed: B = 1
    if d == 10.0:  # some instance spent its first pool and drew another
        assert max(used) > ch.POOL_PER_PAIR * M


# numpy hashes a part below 2^32 as one word and a larger one as two
_SEED_PARTS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]),
                        st.integers(0, 2 ** 64 - 1))


@settings(max_examples=150)
@given(head=st.lists(_SEED_PARTS, max_size=5), index=st.lists(_SEED_PARTS, max_size=6),
       n_words=st.integers(1, 5))
def test_seed_state_gives_the_bits_of_seed_sequence(head, index, n_words):
    index = np.array(index, dtype=np.uint64)
    got = ch.seed_state(*head, index, n_words=n_words)
    assert got.dtype == np.uint64 and got.shape == (len(index), n_words)
    for i, row in zip(index.tolist(), got):
        want = np.random.SeedSequence([*head, i]).generate_state(n_words, np.uint64)
        assert np.array_equal(row, want)
        assert np.array_equal(ch.seed_state(*head, i, n_words=n_words), want)  # a scalar


@settings(max_examples=60)
@given(st.lists(_SEED_PARTS, max_size=6))
def test_generators_carry_the_state_of_default_rng(seeds):
    rngs = ch.generators(np.array(seeds, dtype=np.uint64))
    assert len(rngs) == len(seeds)
    for rng, seed in zip(rngs, seeds):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))


def test_a_pair_that_finds_no_receiver_position_stops_at_the_attempt_cap():
    # d_min = d_max = d = 10: a receiver fits only where a corner of the square
    # is more than 10 m from the transmitter; pick drops by that distance
    def corner(seed):
        tx = np.random.default_rng(seed).uniform(0.0, 10.0, size=2)
        return np.hypot(*np.maximum(tx, 10.0 - tx))
    easy = [s for s in range(40) if corner(s) > 12.0][:3]
    never = next(s for s in range(40) if corner(s) < 9.5)
    seeds = np.array(easy[:2] + [never] + easy[2:], dtype=np.uint64)
    assert len(ch.generate_scenario(1, 10.0, 10.0, 10.0, seed=seeds[:2]).rx_pos) == 2
    for seed, index in ((seeds, 2), (never, 0)):
        with pytest.raises(ch.GeometryError) as info:
            ch.generate_scenario(1, 10.0, 10.0, 10.0, seed=seed)
        assert info.value.index == index
        assert str(info.value) == ("pair 0: no receiver position in the 10.0 m square at "
                                   "10.0 to 10.0 m from its transmitter in "
                                   f"{ch.MAX_ATTEMPTS} attempts")


def test_a_square_of_infinite_side_is_refused_before_any_draw():
    # the draws map u to d * u, which would make every point of it infinite
    with pytest.raises(ch.GeometryError, match=r"^d must be finite, got inf$"):
        ch.generate_scenario(4, np.inf, 2.0, 10.0, seed=0)


def test_pathloss_unit_at_zero_distance():
    assert ch.pathloss(0.0, 3.0) == 1.0
    assert ch.pathloss(1.0, 3.0) == pytest.approx(0.125)
    assert ch.pathloss(7.5, 0.0) == 1.0  # exponent 0: no distance loss


def test_realize_channels_deterministic_per_seed():
    sc = ch.generate_scenario(4, 100.0, 2.0, 10.0, seed=2)
    a = ch.realize_channels(sc, seed=9)
    b = ch.realize_channels(sc, seed=9)
    c = ch.realize_channels(sc, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fading_power_is_unit_mean():
    # |g|^2 / pathloss should average to 1; 1e5 draws keeps the error ~0.3%.
    sc = ch.generate_scenario(1, 100.0, 2.0, 10.0, seed=3)
    dist = float(np.linalg.norm(sc.tx_pos[0] - sc.rx_pos[0]))
    draws = np.array([
        np.abs(ch.realize_channels(sc, seed=s)[0, 0]) ** 2
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
def _extreme_grad_cases(draw):
    """Random instances with gains over eighteen decades and noise down to
    1e-12, where the direct power can dwarf interference plus noise, and
    powers in [0.05, 1] p_max."""
    m = draw(st.integers(1, 6))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    G = np.sqrt(10.0 ** arr((m, m), -12.0, 6.0)) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
    inst = _instance(G, sigma2=10.0 ** arr((m,), -12.0, 0.0), alpha=arr((m,), 0.1, 2.0),
                     p_max=draw(st.floats(0.1, 10.0)))
    return inst, inst.p_max * arr((m,), 0.05, 1.0)


@settings(max_examples=200)
@given(_extreme_grad_cases())
def test_weighted_sum_rate_grad_matches_central_differences_at_extreme_gains(case):
    inst, p = case
    grad = ch.weighted_sum_rate_grad(inst, p)
    h = 1e-6 * p
    fd = np.array([(ch.sum_rate(inst, p + hk * e) - ch.sum_rate(inst, p - hk * e)) / (2 * hk)
                   for hk, e in zip(h, np.eye(inst.M))])
    # sum_m alpha_m 2 / (p_k ln 2) bounds |d obj / d p_k|, so it sets the scale of an error
    scale = inst.alpha.sum() * 2.0 / (p * np.log(2.0))
    assert np.max(np.abs(grad - fd) / scale) < 1e-6


def test_sinr_keeps_its_precision_when_the_direct_power_dwarfs_the_rest():
    inst = _instance([[1e3, 1e-6], [1e-6, 1e3]], sigma2=1e-12)
    p = np.array([0.7, 0.3])
    want = [0.49e6 / (0.09e-12 + 1e-12), 0.09e6 / (0.49e-12 + 1e-12)]  # 4.50e17, 6.04e16
    for gamma in (ch.sinr(inst, p), ch.sinr(ch.ChannelBatch.stack([inst]), p[None])[0]):
        np.testing.assert_allclose(gamma, want, rtol=1e-13)


@st.composite
def _one_size_cases(draw):
    """Realizations of one M (1-10) and one set of link constants with gains
    over eight decades, one power vector each, every power 0 or in [1e-3, 1]
    p_max (a power near 1e-156 squares into the subnormal range, where
    products lose bits), and the (G, sigma2, alpha, p_max) each was built from."""
    insts, powers, drawn = [], [], []
    m = draw(st.integers(1, 10))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    link = 10.0 ** arr((m,), -3.0, 0.0), arr((m,), 0.0, 2.0), draw(st.floats(0.1, 10.0))
    for _ in range(draw(st.integers(1, 8))):
        G = np.sqrt(10.0 ** arr((m, m), -4.0, 4.0)) * np.exp(1j * arr((m, m), 0.0, 2.0 * np.pi))
        drawn.append((G, *link))
        inst = _instance(*drawn[-1])
        insts.append(inst)
        powers.append(inst.p_max * draw(hnp.arrays(
            float, (m,), elements=st.just(0.0) | st.floats(1e-3, 1.0))))
    return insts, powers, drawn


def _both_paths(insts, powers, fn):
    """fn on each realization alone, and fn on the ChannelBatch of each
    row_blocks block of three, the batch rows in input order."""
    alone = [fn(inst, p) for inst, p in zip(insts, powers)]
    batched = []
    for block in ch.row_blocks(len(insts), ch.BLOCK_BYTES // 3):
        batched.extend(fn(ch.ChannelBatch.stack(insts[block]), np.stack(powers[block])))
    return alone, batched


@settings(max_examples=80)
@given(_one_size_cases())
def test_batch_sum_rate_and_gradient_match_single_instance_calls(case):
    insts, powers, _ = case
    for fn in (ch.sum_rate, ch.weighted_sum_rate_grad, ch.sinr):
        alone, batched = _both_paths(insts, powers, fn)
        assert all(np.array_equal(a, b) for a, b in zip(alone, batched))  # bit for bit


@settings(max_examples=60)
@given(_one_size_cases(), st.integers(-8, 8))
def test_sinr_is_unchanged_when_gains_scale_by_c_and_noise_by_c_squared(case, k):
    # c a power of two scales every term exactly, so the SINR keeps its bits
    insts, powers, drawn = case
    c = 2.0 ** k
    scaled = [_instance(c * G, sigma2=c ** 2 * inst.sigma2, alpha=inst.alpha,
                        p_max=inst.p_max) for inst, (G, *_) in zip(insts, drawn)]
    base, base_batched = _both_paths(insts, powers, ch.sinr)
    got, got_batched = _both_paths(scaled, powers, ch.sinr)
    assert all(np.array_equal(a, b) for a, b in zip(base + base_batched, got + got_batched))


@settings(max_examples=60)
@given(_one_size_cases(), st.data())
def test_a_silent_transmitter_adds_no_interference_and_has_rate_zero(case, data):
    insts, powers, drawn = case
    silent = [data.draw(st.integers(0, inst.M - 1)) for inst in insts]
    for p, k in zip(powers, silent):
        p[k] = 0.0
    # the same network with transmitter k's gains to every receiver removed
    cut = []
    for inst, k, (G, *_) in zip(insts, silent, drawn):
        G = G.copy()
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


def test_weighted_sum_rate_grad_stays_finite_when_gains_and_noise_are_tiny():
    # |g|^2 near 1e-310 and sigma^2 = 1e-300: denom^2 would underflow to 0.
    # Gains times c and noise times c^2 leave the SINR, so the gradient, as it was
    rng = np.random.default_rng(46)
    G = 1e-155 * (rng.uniform(0.5, 2.0, (3, 3)) * np.exp(2j * np.pi * rng.uniform(size=(3, 3))))
    p = np.array([0.9, 0.4, 0.7])
    grad = ch.weighted_sum_rate_grad(_instance(G, sigma2=1e-300), p)
    assert np.all(np.isfinite(grad))
    want = ch.weighted_sum_rate_grad(_instance(G * 1e150, sigma2=1.0), p)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)


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
        _instance(np.ones((2, 3)))
    # finite entries whose |G|^2 overflows are refused too, without a warning
    for G in ([[1e308 + 1e308j]], [[1.0, 1e155], [0.0, 1.0]], [[np.nan]], [[np.inf]]):
        with pytest.raises(ValueError, match=r"\|G\|\^2 must be finite"):
            _instance(G)
    assert _instance([[1e153 + 1e153j]]).M == 1  # |G|^2 = 2e306
    # so is a receiver's power at p_max plus noise that overflows, or that the
    # kernel's p^2 |g|^2 terms make NaN; every |g|^2 = 1e308 alone is a float
    for kwargs in ({"G": [[1e154, 0.0], [1e154, 1.0]]}, {"G": [[1e154]], "p_max": 2.0},
                   {"G": [[1e154]], "sigma2": 1e308}, {"G": [[0.0]], "p_max": 1e200}):
        with pytest.raises(ValueError, match="the power received at p_max must be finite"):
            _instance(**kwargs)
    assert _instance([[1e154, 0.0], [1e153, 1.0]]).M == 2  # the sum is 1.01e308


def test_a_batch_carries_its_zero_diagonal_gains_and_the_sinr_reads_them():
    insts = [_instance(ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=s),
                                           seed=s), sigma2=ch.DEFAULT_NOISE_POWER)
             for s in range(4)]
    batch = ch.ChannelBatch.stack(insts)
    assert np.array_equal(batch.cross, batch.gain * (1.0 - np.eye(3)))
    assert np.array_equal(batch[[2, 0]].cross, batch.cross[[2, 0]])
    p = np.full((4, 3), 0.5)
    batch.cross = np.zeros_like(batch.cross)  # no interference left: the SINR is direct / noise
    direct = 0.25 * np.diagonal(batch.gain, axis1=1, axis2=2)
    assert np.array_equal(ch.sinr(batch, p), direct / batch.sigma2)


def test_dataset_round_trip(tmp_path):
    sc = ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=21)
    train = np.stack([ch.realize_channels(sc, seed=s) for s in range(4)])
    test = np.stack([ch.realize_channels(sc, seed=100 + s) for s in range(2)])
    link = (ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
    path = tmp_path / "data.npz"
    ch.save_dataset(path, train, test, *link, meta={"seed": 21})
    loaded_train, loaded_test, header = ch.load_dataset(path)
    assert header["M"] == 3 and header["train"] == 4 and header["test"] == 2
    assert header["seed"] == 21 and header["version"] == ch.DATASET_VERSION
    with np.load(path) as npz:
        stored = np.concatenate([npz["G_train"], npz["G_test"]])
    drawn = np.concatenate([train, test])
    for G, member, orig, back in zip(drawn, stored, _instance(drawn, *link),
                                     [*loaded_train, *loaded_test]):
        assert np.array_equal(G, member)
        assert np.array_equal(orig.sigma2, back.sigma2)
        assert np.array_equal(orig.alpha, back.alpha)
        assert orig.p_max == back.p_max
    first = path.read_bytes()
    ch.save_dataset(path, train, test, *link, meta={"seed": 21})
    assert path.read_bytes() == first


def test_dataset_rejects_splits_of_two_sizes(tmp_path):
    a = ch.realize_channels(ch.generate_scenario(2, 100.0, 2.0, 10.0, seed=1), seed=0)
    b = ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=1), seed=1)
    with pytest.raises(ValueError):
        ch.save_dataset(tmp_path / "bad.npz", a[None], b[None], 0.01, 1.0, 1.0)
    assert not (tmp_path / "bad.npz").exists()


def test_each_loaded_split_is_one_stack_whose_rows_are_views_with_its_bits(tmp_path):
    seeds = np.arange(7)
    G = ch.realize_channels(ch.generate_scenario(4, 100.0, 2.0, 10.0, seed=seeds), seed=seeds)
    path = tmp_path / "data.npz"
    ch.save_dataset(path, G[:4], G[4:], 0.01, [1.0, 0.5, 2.0, 1.0], 1.0)
    train, test, _ = ch.load_dataset(path)
    rng = np.random.default_rng(5)
    for split in (train, test):
        assert type(split) is ch.ChannelBatch and split.gain.shape == (len(split), 4, 4)
        p = rng.uniform(0.0, 1.0, (len(split), 4))
        rates, grads = ch.sum_rate(split, p), ch.weighted_sum_rate_grad(split, p)
        for b, row in enumerate(split):
            for one in (row, split[b]):
                for name in ("gain", "cross", "sigma2", "alpha"):
                    assert np.shares_memory(getattr(one, name), getattr(split, name))
                assert one.p_max == split.p_max
                assert ch.sum_rate(one, p[b]) == rates[b]  # bit for bit
                assert np.array_equal(ch.weighted_sum_rate_grad(one, p[b]), grads[b])


def test_stack_refuses_realizations_of_two_sizes_or_other_link_constants():
    G = ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=1), seed=2)
    link = {"sigma2": 0.01, "alpha": 1.0, "p_max": 1.0}
    base = _instance(G, **link)
    others = [_instance(G, **{**link, key: value}) for key, value in (
        ("sigma2", [0.01, 0.02, 0.01]), ("alpha", [1.0, 0.0, 1.0]), ("p_max", 2.0))]
    for other in [*others, _instance(G[:2, :2], **link)]:
        for rows in ([base, other], [other, base], [base, base, other]):
            with pytest.raises(ValueError, match="link constants"):
                ch.ChannelBatch.stack(rows)
    with pytest.raises(ValueError, match="link constants"):
        ch.ChannelBatch.stack([])  # no realization to take them from
    assert ch.ChannelBatch.stack([base, _instance(2.0 * G, **link)]).p_max == 1.0


def test_every_row_of_a_stack_carries_its_read_only_link_constants():
    seeds = np.arange(5)
    G = ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=seeds), seed=seeds)
    built = _instance(G, sigma2=[0.01, 0.02, 0.03], alpha=[1.0, 0.5, 2.0], p_max=1.5)
    stacked = ch.ChannelBatch.stack(list(built))
    assert stacked.sigma2 is built.sigma2 and stacked.alpha is built.alpha
    for stack in (built, stacked):
        assert stack.sigma2.shape == stack.alpha.shape == (3,) and type(stack.p_max) is float
        rows = [*stack, stack[1], stack[-1], stack[[2, 0]], stack[1:3],
                stack[np.array([True, False, True, False, True])]]
        for row in rows:
            assert row.sigma2 is stack.sigma2 and row.alpha is stack.alpha
            assert row.p_max == stack.p_max
        for constants in (stack.sigma2, stack.alpha):
            with pytest.raises(ValueError, match="read-only"):
                constants[0] = 1.0


@pytest.mark.parametrize("split, index, value, words", [
    ("train", 0, 1e154, "the power received at p_max must be finite"),
    ("test", 1, 1e154, "the power received at p_max must be finite"),
    ("train", 2, 1e308 + 1e308j, "|G|^2 must be finite"),
    ("test", 0, np.nan, "|G|^2 must be finite"),
])
def test_save_refuses_the_gains_load_refuses_with_its_message(tmp_path, split, index, value,
                                                              words):
    seeds = np.arange(5)
    G = ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=seeds), seed=seeds)
    gains = {"train": G[:3], "test": G[3:]}
    path = tmp_path / "data.npz"
    ch.save_dataset(path, gains["train"], gains["test"], 0.01, 1.0, 1.0)
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    members[f"G_{split}"][index, :2, 0] = value  # two gains into receiver 0
    with open(path, "wb") as f:
        np.savez(f, **members)
    with pytest.raises(ValueError) as loaded:
        ch.load_dataset(path)
    assert str(loaded.value) == f"{path} G_{split}[{index}]: {words}"
    path.unlink()
    gains[split][index, :2, 0] = value
    with pytest.raises(ch.SplitError) as saved:
        ch.save_dataset(path, gains["train"], gains["test"], 0.01, 1.0, 1.0)
    assert str(saved.value) == str(loaded.value)
    assert (saved.value.split, saved.value.index) == (split, index)
    assert not path.exists()


def test_one_realization_has_no_len_and_is_not_iterable():
    stack = _instance(np.ones((3, 2, 2)))
    assert len(stack) == 3 and len(list(stack)) == 3 and len(stack[[0, 2]]) == 2
    for one in (_instance(np.ones((2, 2))), stack[1], next(iter(stack))):
        assert one.gain.shape == (2, 2)
        for use in (len, iter, list, lambda row: row[0]):
            with pytest.raises(TypeError):
                use(one)


def test_a_realization_keeps_the_bits_of_its_squared_gain_magnitudes():
    for s in range(5):
        G = ch.realize_channels(ch.generate_scenario(6, 100.0, 2.0, 10.0, seed=s), seed=s)
        c = _instance(G, sigma2=ch.DEFAULT_NOISE_POWER)
        assert np.array_equal(c.gain, np.abs(G) ** 2)
    G = np.array([[1e-200 + 1e-200j]])
    tiny = _instance(G)  # |G|^2 underflows to 0 quietly
    assert np.array_equal(tiny.gain, np.abs(G) ** 2)


_PROTO = {"n": 0, "x": 0.0, "each": [0.0], "list": [], "name": "", "sub": {"k": 0}}
_GOOD = {"n": 3, "x": 2, "each": 0.5, "list": [1, 2.5], "name": "a", "sub": {"k": -1}, "more": None}


@pytest.mark.parametrize("key, value, words", [
    ("n", True, "n must be a JSON integer, got non-integer True"),
    ("n", 1.5, "n must be a JSON integer, got non-integer 1.5"),
    ("n", 4.0, "n must be a JSON integer, got non-integer 4.0"),
    ("x", float("nan"), "x must be a finite number, got nan"),
    ("x", 10 ** 400, "x must be a finite number, got"),
    ("x", [1.0], "x must be a finite number, got [1.0]"),
    ("x", False, "x must be a finite number, got False"),
    ("each", "1", "each must be a finite number or a list of finite numbers, got '1'"),
    ("each", [1.0, float("inf")], "each must be a list of finite numbers"),
    ("list", 1.0, "list must be a list of finite numbers, got 1.0"),
    ("list", [True], "list must be a list of finite numbers"),
    ("name", 3, "name must be a JSON string, got non-string 3"),
    ("sub", [["k", 1]], "sub is not a JSON object: [['k', 1]]"),
    ("sub", {}, "missing key 'sub.k'"),
    ("sub", {"k": "1"}, "sub.k must be a JSON integer"),
])
def test_check_json_refuses_a_value_of_another_type(key, value, words):
    ch.check_json(_GOOD, _PROTO)
    with pytest.raises(ValueError, match="^" + re.escape(words)):
        ch.check_json({**_GOOD, key: value}, _PROTO)
    with pytest.raises(ValueError, match=f"^missing key '{key}'$"):
        ch.check_json({name: val for name, val in _GOOD.items() if name != key}, _PROTO)
    with pytest.raises(ValueError, match=r"^the document is not a JSON object: \[\]$"):
        ch.check_json([], _PROTO)
