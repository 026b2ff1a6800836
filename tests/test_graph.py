"""Graph construction, feature scaling, and star decomposition."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgpc import channels as ch
from qgpc.graph import FeatureScaler, build_graph, decompose_stars, fit_feature_scaler, mix64


def _realization(m=4, seed=0):
    """The complex gains of one drop."""
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    return ch.realize_channels(sc, seed=seed + 1000)


def _channels(G):
    """The checked stack of (B, M, M) drawn gains, at the default link constants."""
    return ch.ChannelBatch.from_gains(G, ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT,
                                      ch.DEFAULT_P_MAX)


@pytest.fixture(scope="module")
def graph4():
    insts = _channels(np.stack([_realization(4, seed=s) for s in range(10)]))
    scaler = fit_feature_scaler(insts)
    return build_graph(insts[0], scaler), insts[0], scaler


def test_scaler_maps_into_angle_range_and_is_monotone():
    drawn = np.stack([_realization(4, seed=s) for s in range(5)])
    scaler = fit_feature_scaler(_channels(drawn))
    gains = np.abs(drawn[0]) ** 2
    angles = scaler.angle(gains)
    assert np.all(angles >= 0.0) and np.all(angles <= np.pi)
    xs = np.logspace(-9, 0, 40)
    ys = scaler.angle(xs)
    assert np.all(np.diff(ys) >= 0.0)


def test_scaler_degenerate_training_set_centers_angles():
    # all gains equal: standardization collapses, every angle sits at pi/2
    insts = _channels(np.ones((1, 3, 3), dtype=complex))
    scaler = fit_feature_scaler(insts)
    assert scaler.angle(np.array([1.0]))[0] == pytest.approx(np.pi / 2)
    g = build_graph(insts[0], scaler)
    assert np.allclose(g.node_features, g.node_features[0])


def test_scaler_requires_training_data():
    with pytest.raises(ValueError):
        fit_feature_scaler([])


def test_build_graph_shapes_and_adjacency(graph4):
    g, inst, scaler = graph4
    assert g.node_features.shape == (4, 2)
    assert np.all(g.node_features[:, 0] >= 0.0) and np.all(g.node_features[:, 0] <= np.pi)
    assert np.array_equal(g.node_features[:, 1], inst.alpha)
    # ordered edge (k, m) carries the scaled cross gain tx k -> rx m
    gains = np.abs(_realization(4, seed=0)) ** 2  # the gains graph4's first drop drew
    for k in range(4):
        for m in range(4):
            if k != m:
                assert g.edge_angle[k, m] == pytest.approx(
                    float(scaler.angle(gains[k, m])), abs=0.0
                )


def test_build_graph_single_node():
    insts = _channels(_realization(1, seed=5)[None])
    g = build_graph(insts[0], fit_feature_scaler(insts))
    assert g.N == 1
    assert g.edge_angle.shape == (1, 1)


def test_decompose_stars_coverage_and_validity(graph4):
    g, _, _ = graph4
    leaves = decompose_stars(g.N, k=2, seeds=123)
    assert leaves.shape == (4, 2)  # row i is the star centered on node i
    for center, row in enumerate(leaves):
        assert center not in row
        assert len(set(row)) == len(row)
        assert all(0 <= leaf < 4 for leaf in row)


def test_decompose_stars_deterministic(graph4):
    g, _, _ = graph4
    a = decompose_stars(g.N, k=2, seeds=7)
    b = decompose_stars(g.N, k=2, seeds=7)
    c = decompose_stars(g.N, k=2, seeds=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_decompose_stars_k_at_least_degree_takes_whole_neighborhood(graph4):
    g, _, _ = graph4
    for seed in range(5):
        leaves = decompose_stars(g.N, k=3, seeds=seed)
        for center, row in enumerate(leaves):
            assert sorted(row) == [j for j in range(4) if j != center]
    assert decompose_stars(g.N, k=10, seeds=0).shape == (4, 3)


def test_decompose_stars_k_zero_and_single_node():
    assert decompose_stars(1, k=3, seeds=0).shape == (1, 0)
    assert decompose_stars(4, k=0, seeds=0).shape == (4, 0)
    with pytest.raises(ValueError):
        decompose_stars(4, k=-1, seeds=0)


def test_leaf_sampling_is_uniform(graph4):
    # on a complete 4-node graph with k=2 each neighbor is a leaf w.p. 2/3
    g, _, _ = graph4
    hits = 0
    trials = 10_000
    for seed in range(trials):
        hits += 1 in decompose_stars(g.N, k=2, seeds=seed)[0]
    assert abs(hits / trials - 2.0 / 3.0) < 0.02


# Leaves of every star of a 5-node graph, recorded from the keyed sampler
# (splitmix64 keys, the s smallest win, ascending). A change of the star
# stream shows up here.
PINNED_DRAWS = {
    (0, 1): [[2], [0], [4], [1], [2]],
    (0, 2): [[1, 2], [0, 2], [1, 4], [1, 4], [1, 2]],
    (0, 3): [[1, 2, 4], [0, 2, 4], [1, 3, 4], [0, 1, 4], [0, 1, 2]],
    (0, 4): [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]],
    (2024, 1): [[2], [3], [1], [1], [2]],
    (2024, 2): [[2, 3], [2, 3], [1, 3], [1, 4], [2, 3]],
    (2024, 3): [[1, 2, 3], [0, 2, 3], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
    (2024, 4): [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]],
}


@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 9])
def test_star_draws_are_pinned(k, seed):
    want = PINNED_DRAWS[seed, min(k, 4)] if k else [[]] * 5
    assert decompose_stars(5, k, seed).tolist() == want


def test_mix64_is_splitmix64():
    # the splitmix64 output function, in Python integers mod 2^64
    def f(x):
        x = (x + 0x9E3779B97F4A7C15) % 2 ** 64
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB % 2 ** 64
        return x ^ (x >> 31)

    for a, b in [(0, 0), (1, 7), (2 ** 64 - 1, 2 ** 64 - 1), (12345678901234567, 3)]:
        assert mix64(a) == f(a) and isinstance(mix64(a), np.uint64)
        assert mix64(a, b) == f(f(a) ^ b)
    grid = mix64(np.arange(3, dtype=np.uint64)[:, None], np.arange(4))
    assert grid.shape == (3, 4) and grid.dtype == np.uint64
    assert grid.tolist() == [[f(f(a) ^ b) for b in range(4)] for a in range(3)]


def test_batched_draw_rows_match_scalar_draws():
    seeds = np.array([0, 1, 2024, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    for n, k in [(1, 2), (2, 1), (5, 2), (7, 3), (6, 9), (4, 0)]:
        leaves = decompose_stars(n, k, seeds)
        assert leaves.shape == (len(seeds), n, min(k, n - 1))
        for b, seed in enumerate(seeds):
            assert np.array_equal(leaves[b], decompose_stars(n, k, seed))


def test_every_leaf_subset_is_equally_likely():
    # n=6, s=2: each star's leaves are one of C(5, 2) = 10 subsets of the
    # other nodes; over 20,000 graphs x 6 stars each subset should come up
    # 12,000 times. Chi-square over 9 degrees of freedom: the 0.1% tail
    # starts at 27.9.
    leaves = decompose_stars(6, 2, np.arange(20_000, dtype=np.uint64))
    j = leaves - (leaves > np.arange(6)[:, None])  # leaf -> candidate index 0..4
    counts = np.bincount((j[..., 0] * 5 + j[..., 1]).ravel(), minlength=25)
    subsets = [a * 5 + b for a, b in itertools.combinations(range(5), 2)]
    assert counts.sum() == counts[subsets].sum() == 120_000
    chi2 = np.sum((counts[subsets] - 12_000) ** 2 / 12_000)
    assert chi2 < 27.9


def test_adjacent_seeds_draw_unrelated_stars():
    # layer ell of a graph uses seed + ell, so seed and seed + 1 must not
    # share stars beyond chance: at n=12, s=2 two stars agree w.p. 1/55
    seeds = mix64(5, np.arange(2000))
    a = decompose_stars(12, 2, seeds)
    b = decompose_stars(12, 2, seeds + np.uint64(1))
    same = np.all(a == b, axis=2).mean()
    assert same < 2.0 / 55.0


@given(n=st.integers(1, 12), k=st.integers(0, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_leaf_array_contract(n, k, seed):
    leaves = decompose_stars(n, k, seed)
    assert leaves.shape == (n, min(k, n - 1))
    assert np.issubdtype(leaves.dtype, np.integer)
    for center, row in enumerate(leaves):
        assert center not in row
        assert len(set(row.tolist())) == row.size
        assert np.all((row >= 0) & (row < n))


@st.composite
def _stacks(draw):
    """A stack of 0-6 realizations at M = 1-6, weights given per pair, with
    |G|^2 from 0 to 1e30 (far past the clip either way), and a scaler, fitted
    or drawn, whose sigma may be the subnormal 1e-320."""
    m, rows = draw(st.integers(1, 6), label="M"), draw(st.integers(0, 6), label="rows")
    exps = draw(st.lists(st.none() | st.floats(-30.0, 30.0), min_size=rows * m * m,
                         max_size=rows * m * m), label="log10 |G|^2")
    gain = np.array([0.0 if e is None else 10.0 ** e for e in exps]).reshape(rows, m, m)
    alpha = draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m), label="alpha")
    stack = ch.ChannelBatch.from_gains(np.sqrt(gain), 1e-2, alpha, 1.0)
    sigma = draw(st.sampled_from([None, 1e-320, 1e-3, 1.0, 40.0]), label="sigma")
    scaler = (fit_feature_scaler(stack) if sigma is None and rows else
              FeatureScaler(mu=draw(st.floats(-20.0, 20.0), label="mu"), sigma=sigma or 1.0))
    return stack, scaler


@given(_stacks())
def test_a_stack_builds_each_row_graph_bit_for_bit(case):
    stack, scaler = case
    rows, m = stack.gain.shape[:2]
    gain = stack.gain.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a saturated or subnormal-sigma clip warns nothing
        g = build_graph(stack, scaler)
        alone = [build_graph(c, scaler) for c in stack]
    assert stack.gain.tobytes() == gain.tobytes()  # the angles are built in their own array
    assert g.node_features.shape == (rows, m, 2) and g.edge_angle.shape == (rows, m, m)
    assert g.N == m and not np.diagonal(g.edge_angle, axis1=-2, axis2=-1).any()
    for i, r in enumerate(alone):
        assert g.node_features[i].tobytes() == r.node_features.tobytes()
        assert g.edge_angle[i].tobytes() == r.edge_angle.tobytes()


def _angle_reference(scaler, x):
    """FeatureScaler.angle as one expression over temporaries: the in-place
    steps must give its bits."""
    x = np.maximum(np.asarray(x, dtype=float), 1e-300)
    with np.errstate(over="ignore"):
        z = (np.log10(x) - scaler.mu) / scaler.sigma
    z = np.clip(z, -scaler.z_clip, scaler.z_clip)
    return (z + scaler.z_clip) / (2.0 * scaler.z_clip) * np.pi


_VALUES = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-300, 1.0, 1e300, 1e308]))


@st.composite
def _angle_inputs(draw):
    """A scaler, its sigma possibly the subnormal 1e-320, and a float64 value
    to scale: a Python float, a 0-d array, an (M, M) array or a stack."""
    scaler = FeatureScaler(mu=draw(st.floats(-20.0, 20.0), label="mu"),
                           sigma=draw(st.sampled_from([1e-320, 1e-3, 1.0, 40.0]), label="sigma"),
                           z_clip=draw(st.sampled_from([3.0, 0.5, 10.0]), label="z_clip"))
    shape = draw(st.sampled_from([None, (), (3, 3), (4, 2, 2), (0, 2, 2)]), label="shape")
    if shape is None:
        return scaler, draw(_VALUES, label="x")
    values = draw(st.lists(_VALUES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))), label="x")
    return scaler, np.array(values, dtype=float).reshape(shape)


@given(_angle_inputs())
def test_angle_keeps_its_argument_and_the_bits_of_one_expression(case):
    scaler, x = case
    before = np.array(x, copy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither the subnormal sigma nor a NaN warns
        got = scaler.angle(x)
    want = _angle_reference(scaler, before)
    assert np.asarray(x).tobytes() == before.tobytes()
    assert type(got) is type(want)  # a scalar or a 0-d array gives a scalar
    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()
