"""Classical GCN baseline: shapes, equivariance, hand-written backprop."""

import numpy as np
import pytest

from qgpc import channels as ch
from qgpc.channels import sinr, weighted_sum_rate
from qgpc import gcn
from qgpc.gcn import GcnModel, GcnParams, gcn_forward, gcn_loss_and_grad
from qgpc.graph import InterferenceGraph, build_graph, fit_feature_scaler


def _instance(m=4, seed=0):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    inst = ch.realize_channels(sc, seed=seed + 500)
    graph = build_graph(inst, fit_feature_scaler([inst]))
    return inst, graph


def _random_params(feature_dim, hidden, layers, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-scale, scale, GcnParams.param_count(feature_dim, hidden, layers))
    return GcnParams.from_flat(flat, feature_dim, hidden, layers)


def test_param_count_matches_flatten():
    for fd, hd, nl in [(2, 4, 1), (2, 16, 2), (3, 8, 3)]:
        params = _random_params(fd, hd, nl, seed=fd + hd + nl)
        assert params.flatten().shape == (GcnParams.param_count(fd, hd, nl),)


def test_flat_round_trip():
    params = _random_params(2, 5, 2, seed=1)
    flat = params.flatten()
    back = GcnParams.from_flat(flat, 2, 5, 2)
    assert np.array_equal(back.flatten(), flat)
    assert back.head_b == params.head_b
    with pytest.raises(ValueError):
        GcnParams.from_flat(flat[:-1], 2, 5, 2)


def test_forward_shapes_feasible_and_deterministic():
    inst, graph = _instance(4, seed=2)
    params = _random_params(2, 8, 2, seed=2)
    p1 = gcn_forward(graph, params)
    p2 = gcn_forward(graph, params)
    assert p1.shape == (4,)
    assert np.array_equal(p1, p2)
    assert np.all(p1 > 0.0) and np.all(p1 < inst.p_max)


def test_forward_single_node_uses_empty_aggregation():
    inst, graph = _instance(1, seed=3)
    params = _random_params(2, 6, 2, seed=3)
    p = gcn_forward(graph, params)
    assert p.shape == (1,)
    assert 0.0 < p[0] < inst.p_max


def test_forward_equivariant_under_node_relabeling():
    _, graph = _instance(5, seed=4)
    params = _random_params(2, 8, 2, seed=4)
    p = gcn_forward(graph, params)
    perm = np.array([3, 0, 4, 1, 2])  # old index i becomes new index perm[i]
    n = graph.N
    ea = np.empty_like(graph.edge_angle)
    for a in range(n):
        for b in range(n):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
        adjacency=tuple(tuple(j for j in range(n) if j != i) for i in range(n)),
        alpha=np.asarray(graph.alpha)[np.argsort(perm)],
        p_max=graph.p_max,
    )
    pp = gcn_forward(pg, params)
    assert np.array_equal(pp[perm], p)


def test_loss_matches_forward_and_gradient_matches_finite_differences():
    inst, graph = _instance(3, seed=5)
    params = _random_params(2, 4, 2, seed=5)
    flat0 = params.flatten()
    loss, grad = gcn_loss_and_grad(graph, inst, params)
    p = gcn_forward(graph, params)
    assert loss == pytest.approx(-weighted_sum_rate(sinr(inst, p), inst.alpha), rel=1e-12)

    def f(flat):
        q = GcnParams.from_flat(flat, 2, 4, 2)
        pw = gcn_forward(graph, q)
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = np.zeros_like(flat0)
    for i in range(flat0.size):
        e = np.zeros_like(flat0)
        e[i] = 1e-5
        fd[i] = (f(flat0 + e) - f(flat0 - e)) / 2e-5
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


def test_gradient_is_deterministic():
    inst, graph = _instance(3, seed=6)
    params = _random_params(2, 4, 1, seed=6)
    l1, g1 = gcn_loss_and_grad(graph, inst, params)
    l2, g2 = gcn_loss_and_grad(graph, inst, params)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_model_adapter():
    model = GcnModel(hidden=16, layers=2)
    rng = np.random.default_rng(8)
    flat = model.init_params(rng)
    assert flat.shape == (model.param_count(),)
    inst, graph = _instance(4, seed=8)
    p = model.forward(inst, graph, flat, star_seed=99)
    assert np.array_equal(p, model.forward(inst, graph, flat, star_seed=0))
    loss, grad = model.loss_and_grad(inst, graph, flat, star_seed=0)
    assert np.isfinite(loss) and grad.shape == flat.shape
    assert model.arch_dict() == {"hidden": 16, "layers": 2}


def test_max_aggregation_matches_per_node_loop():
    _, graph = _instance(5, seed=9)
    params = _random_params(2, 6, 2, seed=9)
    params.layers[0].msg_w2[:, 0] = 0.0  # column 0 ties across every edge
    _, (_, _, src, caches) = gcn._forward(graph, params)
    n = graph.N
    assert src.tolist() == [u for v in range(n) for u in graph.adjacency[v]]
    dst = np.array([v for v in range(n) for _ in graph.adjacency[v]])
    for h_in, _, _, _, msgs, amax, u, _, _ in caches:
        cols = np.arange(msgs.shape[1])
        for v in range(n):
            rows = np.nonzero(dst == v)[0]
            top = np.argmax(msgs[rows], axis=0)  # first index wins a tie
            assert np.array_equal(u[v, h_in.shape[1]:], msgs[rows][top, cols])
            assert np.array_equal(amax[v], rows[top])
