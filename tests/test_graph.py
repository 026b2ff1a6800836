"""Graph construction, feature scaling, and star decomposition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgpc import channels as ch
from qgpc.graph import build_graph, decompose_stars, fit_feature_scaler


def _realization(m=4, seed=0, **kw):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    return ch.realize_channels(sc, seed=seed + 1000, **kw)


@pytest.fixture(scope="module")
def graph4():
    insts = [_realization(4, seed=s) for s in range(10)]
    scaler = fit_feature_scaler(insts)
    return build_graph(insts[0], scaler), insts[0], scaler


def test_scaler_maps_into_angle_range_and_is_monotone():
    insts = [_realization(4, seed=s) for s in range(5)]
    scaler = fit_feature_scaler(insts)
    gains = np.abs(insts[0].G) ** 2
    angles = scaler.angle(gains)
    assert np.all(angles >= 0.0) and np.all(angles <= np.pi)
    xs = np.logspace(-9, 0, 40)
    ys = scaler.angle(xs)
    assert np.all(np.diff(ys) >= 0.0)


def test_scaler_degenerate_training_set_centers_angles():
    # all gains equal: standardization collapses, every angle sits at pi/2
    inst = _realization(3, seed=2, pathloss_exp=0.0, fading=False)
    scaler = fit_feature_scaler([inst])
    assert scaler.angle(np.array([1.0]))[0] == pytest.approx(np.pi / 2)
    g = build_graph(inst, scaler)
    assert np.allclose(g.node_features, g.node_features[0])


def test_scaler_requires_training_data():
    with pytest.raises(ValueError):
        fit_feature_scaler([])


def test_build_graph_shapes_and_adjacency(graph4):
    g, inst, scaler = graph4
    assert g.N == 4 and g.feature_dim == 2
    assert np.all(g.node_features[:, 0] >= 0.0) and np.all(g.node_features[:, 0] <= np.pi)
    assert np.array_equal(g.node_features[:, 1], inst.alpha)
    # ordered edge (k, m) carries the scaled cross gain tx k -> rx m
    gains = np.abs(inst.G) ** 2
    for k in range(4):
        for m in range(4):
            if k != m:
                assert g.edge_angle[k, m] == pytest.approx(
                    float(scaler.angle(gains[k, m])), abs=0.0
                )
    assert g.p_max == inst.p_max


def test_build_graph_single_node():
    inst = _realization(1, seed=5)
    g = build_graph(inst, fit_feature_scaler([inst]))
    assert g.N == 1
    assert g.edge_angle.shape == (1, 1)


def test_decompose_stars_coverage_and_validity(graph4):
    g, _, _ = graph4
    leaves = decompose_stars(g.N, k=2, seed=123)
    assert leaves.shape == (4, 2)  # row i is the star centered on node i
    for center, row in enumerate(leaves):
        assert center not in row
        assert len(set(row)) == len(row)
        assert all(0 <= leaf < 4 for leaf in row)


def test_decompose_stars_deterministic(graph4):
    g, _, _ = graph4
    a = decompose_stars(g.N, k=2, seed=7)
    b = decompose_stars(g.N, k=2, seed=7)
    c = decompose_stars(g.N, k=2, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_decompose_stars_k_at_least_degree_takes_whole_neighborhood(graph4):
    g, _, _ = graph4
    for seed in range(5):
        leaves = decompose_stars(g.N, k=3, seed=seed)
        for center, row in enumerate(leaves):
            assert sorted(row) == [j for j in range(4) if j != center]
    assert decompose_stars(g.N, k=10, seed=0).shape == (4, 3)


def test_decompose_stars_k_zero_and_single_node():
    assert decompose_stars(1, k=3, seed=0).shape == (1, 0)
    assert decompose_stars(4, k=0, seed=0).shape == (4, 0)
    with pytest.raises(ValueError):
        decompose_stars(4, k=-1, seed=0)


def test_leaf_sampling_is_uniform(graph4):
    # on a complete 4-node graph with k=2 each neighbor is a leaf w.p. 2/3
    g, _, _ = graph4
    hits = 0
    trials = 10_000
    for seed in range(trials):
        hits += 1 in decompose_stars(g.N, k=2, seed=seed)[0]
    assert abs(hits / trials - 2.0 / 3.0) < 0.02


# Leaves of every star of a 5-node graph in draw order, recorded from the
# per-star sampler the leaf arrays replaced. A change of the star stream
# shows up here.
PINNED_DRAWS = {
    (0, 1): [[4], [3], [3], [1], [1]],
    (0, 2): [[3, 4], [2, 0], [4, 0], [2, 4], [1, 2]],
    (0, 4): [[4, 3, 1, 2], [0, 3, 2, 4], [0, 4, 1, 3], [1, 0, 2, 4], [3, 1, 2, 0]],
    (2024, 1): [[1], [3], [0], [0], [1]],
    (2024, 2): [[3, 1], [2, 0], [3, 4], [0, 2], [0, 2]],
    (2024, 4): [[2, 3, 4, 1], [2, 3, 0, 4], [1, 4, 3, 0], [0, 1, 4, 2], [1, 0, 3, 2]],
}


@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize("k", [0, 1, 2, 4, 9])
def test_star_draws_are_pinned(k, seed):
    want = PINNED_DRAWS[seed, min(k, 4)] if k else [[]] * 5
    assert decompose_stars(5, k, seed).tolist() == want


@given(n=st.integers(1, 12), k=st.integers(0, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_leaf_array_contract(n, k, seed):
    leaves = decompose_stars(n, k, seed)
    assert leaves.shape == (n, min(k, n - 1))
    assert np.issubdtype(leaves.dtype, np.integer)
    for center, row in enumerate(leaves):
        assert center not in row
        assert len(set(row.tolist())) == row.size
        assert np.all((row >= 0) & (row < n))
