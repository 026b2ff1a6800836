"""Quantum GNN: circuit layout, message passing, decoding, exact gradients."""

import numpy as np
import pytest

from qgpc import channels as ch
from qgpc.graph import StarSubgraph, InterferenceGraph, build_graph, fit_feature_scaler
from qgpc.qgnn import (
    QgclLayerParams, QgnnModel, QgnnParams, build_qgcl_circuit, embedding_to_angle,
    initial_embeddings, input_slot_count, node_input_angles, qgcl_forward,
    qgnn_forward, qgnn_loss_and_grad, slots_per_layer,
)
from qgpc.channels import sinr, weighted_sum_rate


def _instance(m=4, seed=0):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    inst = ch.realize_channels(sc, seed=seed + 500)
    graph = build_graph(inst, fit_feature_scaler([inst]))
    return inst, graph


def _random_params(feature_dim, n_layers, depth, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-scale, scale, QgnnParams.param_count(feature_dim, n_layers, depth))
    return QgnnParams.from_flat(flat, feature_dim, n_layers, depth)


def _fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def test_circuit_layout_counts():
    spec = build_qgcl_circuit(2, 1)
    assert spec.n == 5
    assert input_slot_count(2) == 5
    assert slots_per_layer(2, 1) == 10
    assert spec.angle_slots == 15
    # the input slots come first: slot q feeds the encoding RY on qubit q
    assert [(g.kind, g.targets, g.angle_slot) for g in spec.gates[:5]] == [
        ("RY", (q,), q) for q in range(5)
    ]
    assert all(g.angle_slot is None or g.angle_slot >= 5 for g in spec.gates[5:])
    assert build_qgcl_circuit(1, 1).n == 3
    assert build_qgcl_circuit(3, 1).n == 7
    assert slots_per_layer(2, 3) == 30
    with pytest.raises(ValueError):
        build_qgcl_circuit(0, 1)
    with pytest.raises(ValueError):
        build_qgcl_circuit(2, 0)


def test_circuit_each_slot_feeds_exactly_one_gate():
    # the slot-level parameter-shift jacobian relies on this
    for feature_dim, depth in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        spec = build_qgcl_circuit(feature_dim, depth)
        used = [g.angle_slot for g in spec.gates if g.angle_slot is not None]
        assert sorted(used) == list(range(spec.angle_slots))
        ring = [g for g in spec.gates if g.kind == "CNOT"]
        assert len(ring) == depth * spec.n


def test_param_count_independent_of_graph_size_and_fanout():
    assert QgnnParams.param_count(2, 2, 1) == 22
    assert QgnnParams.param_count(2, 2, 2) == 42
    counts = {QgnnModel(2, 1, k).param_count() for k in (1, 2, 3, 7)}
    assert counts == {22}
    model = QgnnModel(2, 1, 2)
    rng = np.random.default_rng(0)
    flat = model.init_params(rng)
    for m in (2, 5):
        inst, graph = _instance(m, seed=m)
        p = model.forward(inst, graph, flat, star_seed=3)
        assert p.shape == (m,)


def test_params_flatten_round_trip():
    params = _random_params(2, 2, 1, seed=4)
    flat = params.flatten()
    assert flat.shape == (22,)
    back = QgnnParams.from_flat(flat, 2, 2, 1)
    assert all(np.array_equal(a.theta, b.theta) for a, b in zip(params.layers, back.layers))
    assert back.decode_scale == params.decode_scale
    assert back.decode_bias == params.decode_bias
    with pytest.raises(ValueError):
        QgnnParams.from_flat(flat[:-1], 2, 2, 1)


def test_message_from_vacuum_is_all_ones():
    # zero angles leave every qubit in |0>, so every Z expectation is +1;
    # a one-leaf star's update is that leaf's message
    spec = build_qgcl_circuit(2, 1)
    layer = QgclLayerParams(np.zeros(10))
    h = np.full((2, 2), -1.0)  # embedding -1 encodes as angle 0
    msg = qgcl_forward(StarSubgraph(0, (1,), np.zeros(1)), h, layer, spec)
    assert np.allclose(msg, 1.0, atol=1e-12)


def test_messages_stay_in_expectation_range():
    spec = build_qgcl_circuit(2, 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        layer = QgclLayerParams(rng.uniform(-np.pi, np.pi, 20))
        h = rng.uniform(-1, 1, (2, 2))
        star = StarSubgraph(0, (1,), rng.uniform(0, np.pi, 1))
        msg = qgcl_forward(star, h, layer, spec)
        assert msg.shape == (2,)
        assert np.all(np.abs(msg) <= 1.0 + 1e-12)


def test_forward_star_without_leaves_passes_embedding_through():
    spec = build_qgcl_circuit(2, 1)
    layer = QgclLayerParams(np.full(10, 0.3))
    h = np.array([[0.2, -0.4], [0.9, 0.1]])
    star = StarSubgraph(center=0, leaves=(), edge_feats=np.zeros(0))
    out = qgcl_forward(star, h, layer, spec)
    assert np.array_equal(out, h[0])
    out[0] = 99.0
    assert h[0, 0] == 0.2


def test_forward_duplicate_leaf_embedding_matches_single_leaf():
    spec = build_qgcl_circuit(2, 1)
    layer = QgclLayerParams(np.linspace(-0.5, 0.5, 10))
    h = np.array([[0.1, 0.2], [-0.3, 0.7], [-0.3, 0.7]])
    one = qgcl_forward(StarSubgraph(0, (1,), np.array([0.4])), h, layer, spec)
    two = qgcl_forward(StarSubgraph(0, (1, 2), np.array([0.4, 0.4])), h, layer, spec)
    # batch sizes 1 and 2 may take different matmul paths, hence the tiny atol
    assert np.allclose(one, two, rtol=0.0, atol=1e-13)


def test_forward_is_exactly_leaf_order_invariant():
    spec = build_qgcl_circuit(2, 1)
    rng = np.random.default_rng(21)
    layer = QgclLayerParams(rng.uniform(-1, 1, 10))
    h = rng.uniform(-1, 1, (4, 2))
    feats = rng.uniform(0, np.pi, 3)
    base = qgcl_forward(StarSubgraph(0, (1, 2, 3), feats), h, layer, spec)
    for order in [(2, 0, 1), (1, 0, 2), (2, 1, 0)]:
        leaves = tuple((1, 2, 3)[i] for i in order)
        star = StarSubgraph(0, leaves, feats[list(order)])
        assert np.array_equal(qgcl_forward(star, h, layer, spec), base)


def test_forward_single_node_keeps_initial_embedding():
    inst, graph = _instance(1, seed=6)
    params = _random_params(2, 2, 1, seed=6)
    p, h = qgnn_forward(graph, params, k=2, star_seed=0)
    assert np.array_equal(h, initial_embeddings(graph))
    want = inst.p_max / (1.0 + np.exp(-(params.decode_scale * h[0, 0] + params.decode_bias)))
    assert p[0] == pytest.approx(want, rel=1e-12)


def test_forward_powers_feasible_and_deterministic():
    inst, graph = _instance(4, seed=7)
    params = _random_params(2, 2, 1, seed=7, scale=2.0)
    p1, h1 = qgnn_forward(graph, params, k=2, star_seed=5)
    p2, h2 = qgnn_forward(graph, params, k=2, star_seed=5)
    assert np.array_equal(p1, p2) and np.array_equal(h1, h2)
    assert np.all(p1 > 0.0) and np.all(p1 < inst.p_max)
    assert np.all(np.abs(h1) <= 1.0 + 1e-12)
    p3, _ = qgnn_forward(graph, params, k=2, star_seed=6)
    assert not np.array_equal(p1, p3)


def test_forward_equivariant_under_node_relabeling():
    inst, graph = _instance(4, seed=8)
    params = _random_params(2, 2, 1, seed=8)
    stars = [
        [StarSubgraph(0, (1, 3), graph.edge_angle[[1, 3], 0]),
         StarSubgraph(1, (2, 0), graph.edge_angle[[2, 0], 1]),
         StarSubgraph(2, (3, 1), graph.edge_angle[[3, 1], 2]),
         StarSubgraph(3, (0, 2), graph.edge_angle[[0, 2], 3])]
        for _ in range(2)
    ]
    p, h = qgnn_forward(graph, params, k=2, star_seed=0, stars_by_layer=stars)

    perm = np.array([2, 0, 3, 1])  # old index i becomes new index perm[i]
    ea = np.empty_like(graph.edge_angle)
    for a in range(4):
        for b in range(4):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
        adjacency=tuple(tuple(j for j in range(4) if j != i) for i in range(4)),
        alpha=np.asarray(graph.alpha)[np.argsort(perm)],
        p_max=graph.p_max,
    )
    pstars = [
        [StarSubgraph(int(perm[s.center]), tuple(int(perm[l]) for l in s.leaves),
                      np.array(s.edge_feats, copy=True))
         for s in layer]
        for layer in stars
    ]
    pp, ph = qgnn_forward(pg, params, k=2, star_seed=0, stars_by_layer=pstars)
    assert np.array_equal(pp[perm], p)
    assert np.array_equal(ph[perm], h)


def test_loss_matches_forward_and_gradient_matches_finite_differences():
    inst, graph = _instance(3, seed=9)
    params = _random_params(2, 2, 1, seed=9)
    flat0 = params.flatten()
    loss, grad = qgnn_loss_and_grad(graph, inst, params, k=2, star_seed=11)
    p, _ = qgnn_forward(graph, params, k=2, star_seed=11)
    assert loss == pytest.approx(-weighted_sum_rate(sinr(inst, p), inst.alpha), rel=1e-12)

    def f(flat):
        q = QgnnParams.from_flat(flat, 2, 2, 1)
        pw, _ = qgnn_forward(graph, q, k=2, star_seed=11)
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = _fd_grad(f, flat0)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


def test_gradient_single_node_touches_only_decode_params():
    inst, graph = _instance(1, seed=13)
    params = _random_params(2, 1, 1, seed=13)
    loss, grad = qgnn_loss_and_grad(graph, inst, params, k=2, star_seed=0)
    assert np.array_equal(grad[:10], np.zeros(10))

    def f(flat):
        q = QgnnParams.from_flat(flat, 2, 1, 1)
        pw, _ = qgnn_forward(graph, q, k=2, star_seed=0)
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = _fd_grad(f, params.flatten())
    assert np.allclose(grad[-2:], fd[-2:], atol=1e-7)


def test_gradient_zero_decode_scale_blocks_circuit_gradients():
    inst, graph = _instance(3, seed=14)
    params = _random_params(2, 2, 1, seed=14)
    params.decode_scale = 0.0
    _, grad = qgnn_loss_and_grad(graph, inst, params, k=2, star_seed=3)
    assert np.array_equal(grad[:20], np.zeros(20))
    assert grad[-1] != 0.0  # bias still learns


def test_model_adapter_round_trip():
    model = QgnnModel(layers=2, depth=1, k=2)
    rng = np.random.default_rng(15)
    flat = model.init_params(rng)
    assert flat.shape == (22,)
    assert np.all(np.abs(flat) <= 0.1)
    inst, graph = _instance(4, seed=15)
    loss, grad = model.loss_and_grad(inst, graph, flat, star_seed=2)
    assert np.isfinite(loss) and grad.shape == flat.shape
    assert model.arch_dict() == {"layers": 2, "depth": 1, "k": 2}


def test_input_angle_scaling():
    inst, graph = _instance(3, seed=16)
    ang = node_input_angles(graph)
    nf = np.asarray(graph.node_features)
    assert np.array_equal(ang[:, 0], nf[:, 0])
    assert np.allclose(ang[:, 1], np.pi / 2.0)  # unit weights
    h0 = initial_embeddings(graph)
    assert np.allclose(embedding_to_angle(h0), ang)
    assert np.all(h0 >= -1.0) and np.all(h0 <= 1.0)

