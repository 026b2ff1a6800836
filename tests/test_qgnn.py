"""Quantum GNN: circuit layout, message passing, decoding, exact gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgpc import channels as ch
from qgpc import qgnn
from qgpc.graph import InterferenceGraph, build_graph, decompose_stars, fit_feature_scaler
from qgpc.qgnn import (
    QgnnModel, QgnnParams, _Kernel, _forward_tape, _layer_forward, _layer_rows,
    build_qgcl_circuit, embedding_to_angle, initial_embeddings, input_slot_count,
    node_input_angles, slots_per_layer,
)
from qgpc.channels import sinr, weighted_sum_rate
from qgpc.qsim import expectations_z, run_batch
from qgpc.trainer import Instance


def _instance(m=4, seed=0):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    inst = ch.realize_channels(sc, seed=seed + 500)
    graph = build_graph(inst, fit_feature_scaler([inst]))
    return inst, graph


def _random_params(feature_dim, n_layers, depth, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-scale, scale, QgnnParams.param_count(feature_dim, n_layers, depth))
    return QgnnParams.from_flat(flat, feature_dim, n_layers, depth)


def _graph(edge_angle):
    """A graph carrying only the given edge angles, for hand-made stars."""
    n = len(edge_angle)
    return InterferenceGraph(np.zeros((n, 2)), np.asarray(edge_angle, dtype=float),
                             np.ones(n), 1.0)


def _one(inst, graph):
    return [Instance("i", inst, graph)]


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
    assert all(np.array_equal(a, b) for a, b in zip(params.layers, back.layers))
    assert back.decode_scale == params.decode_scale
    assert back.decode_bias == params.decode_bias
    with pytest.raises(ValueError):
        QgnnParams.from_flat(flat[:-1], 2, 2, 1)


def test_message_from_vacuum_is_all_ones():
    # zero angles leave every qubit in |0>, so every Z expectation is +1;
    # a one-leaf star's update is that leaf's message
    h = np.full((2, 2), -1.0)  # embedding -1 encodes as angle 0
    rows = _layer_rows([_graph(np.zeros((2, 2)))], [np.array([[1], [0]])], np.array([0]))
    msg = _layer_forward(build_qgcl_circuit(2, 1), np.zeros(10), h, rows)
    assert np.allclose(msg, 1.0, atol=1e-12)


def test_messages_stay_in_expectation_range():
    spec = build_qgcl_circuit(2, 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, 20)
        h = rng.uniform(-1, 1, (2, 2))
        graph = _graph(rng.uniform(0, np.pi, (2, 2)))
        msg = _layer_forward(spec, theta, h,
                             _layer_rows([graph], [np.array([[1], [0]])], np.array([0])))
        assert msg.shape == (2, 2)
        assert np.all(np.abs(msg) <= 1.0 + 1e-12)


def test_forward_star_without_leaves_passes_embedding_through():
    h = np.array([[0.2, -0.4], [0.9, 0.1]])
    rows = _layer_rows([_graph(np.zeros((2, 2)))], [np.empty((2, 0), dtype=int)], np.array([0]))
    out = _layer_forward(build_qgcl_circuit(2, 1), np.full(10, 0.3), h, rows)
    assert np.array_equal(out, h)
    out[0, 0] = 99.0
    assert h[0, 0] == 0.2


def test_forward_duplicate_leaf_embedding_matches_single_leaf():
    spec = build_qgcl_circuit(2, 1)
    theta = np.linspace(-0.5, 0.5, 10)
    h = np.array([[0.1, 0.2], [-0.3, 0.7], [-0.3, 0.7]])
    rows1 = _layer_rows([_graph(np.full((2, 2), 0.4))], [np.array([[1], [0]])], np.array([0]))
    rows2 = _layer_rows([_graph(np.full((3, 3), 0.4))], [np.array([[1, 2], [0, 2], [0, 1]])],
                        np.array([0]))
    one = _layer_forward(spec, theta, h[:2], rows1)[0]
    two = _layer_forward(spec, theta, h, rows2)[0]
    # batch sizes 1 and 2 may take different matmul paths, hence the tiny atol
    assert np.allclose(one, two, rtol=0.0, atol=1e-13)


def test_forward_is_exactly_leaf_order_invariant():
    spec = build_qgcl_circuit(2, 1)
    rng = np.random.default_rng(21)
    theta = rng.uniform(-1, 1, 10)
    h = rng.uniform(-1, 1, (4, 2))
    graph = _graph(rng.uniform(0, np.pi, (4, 4)))
    others = [[0, 2, 3], [0, 1, 3], [0, 1, 2]]
    base = _layer_forward(spec, theta, h,
                          _layer_rows([graph], [np.array([[1, 2, 3]] + others)], np.array([0])))
    for order in [(2, 0, 1), (1, 0, 2), (2, 1, 0)]:
        leaves = np.array([[(1, 2, 3)[i] for i in order]] + others)
        rows = _layer_rows([graph], [leaves], np.array([0]))
        assert np.array_equal(_layer_forward(spec, theta, h, rows), base)


def test_forward_single_node_keeps_initial_embedding():
    inst, graph = _instance(1, seed=6)
    params = _random_params(2, 2, 1, seed=6)
    tape = _forward_tape([graph], params, 2, [0])
    h = tape.h[-1]
    assert np.array_equal(h, initial_embeddings(graph))
    want = inst.p_max / (1.0 + np.exp(-(params.decode_scale * h[0, 0] + params.decode_bias)))
    assert tape.p_max[0] * tape.sig[0] == pytest.approx(want, rel=1e-12)


def test_forward_powers_feasible_and_deterministic():
    inst, graph = _instance(4, seed=7)
    params = _random_params(2, 2, 1, seed=7, scale=2.0)
    t1, t2, t3 = (_forward_tape([graph], params, 2, [seed]) for seed in (5, 5, 6))
    p1, h1 = t1.p_max * t1.sig, t1.h[-1]
    assert np.array_equal(p1, t2.p_max * t2.sig) and np.array_equal(h1, t2.h[-1])
    assert np.all(p1 > 0.0) and np.all(p1 < inst.p_max)
    assert np.all(np.abs(h1) <= 1.0 + 1e-12)
    assert not np.array_equal(p1, t3.p_max * t3.sig)


def test_forward_equivariant_under_node_relabeling(monkeypatch):
    inst, graph = _instance(4, seed=8)
    params = _random_params(2, 2, 1, seed=8)
    leaves = np.array([[1, 3], [2, 0], [3, 1], [0, 2]])  # every layer's stars
    monkeypatch.setattr(qgnn, "decompose_stars", lambda n, k, seed: leaves)
    tape = _forward_tape([graph], params, 2, [0])

    perm = np.array([2, 0, 3, 1])  # old index i becomes new index perm[i]
    ea = np.empty_like(graph.edge_angle)
    for a in range(4):
        for b in range(4):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
        alpha=np.asarray(graph.alpha)[np.argsort(perm)],
        p_max=graph.p_max,
    )
    pleaves = np.empty_like(leaves)
    pleaves[perm] = perm[leaves]  # star of old center i, relabeled, is row perm[i]
    monkeypatch.setattr(qgnn, "decompose_stars", lambda n, k, seed: pleaves)
    ptape = _forward_tape([pg], params, 2, [0])
    assert np.array_equal((ptape.p_max * ptape.sig)[perm], tape.p_max * tape.sig)
    assert np.array_equal(ptape.h[-1][perm], tape.h[-1])


def test_loss_matches_forward_and_gradient_matches_finite_differences():
    inst, graph = _instance(3, seed=9)
    model = QgnnModel(layers=2, depth=1, k=2)
    flat0 = _random_params(2, 2, 1, seed=9).flatten()
    losses, grads = model.loss_and_grad_batch(_one(inst, graph), flat0, [11])
    p = model.forward_batch(_one(inst, graph), flat0, [11])[0]
    assert losses[0] == pytest.approx(-weighted_sum_rate(sinr(inst, p), inst.alpha), rel=1e-12)

    def f(flat):
        pw = model.forward_batch(_one(inst, graph), flat, [11])[0]
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = _fd_grad(f, flat0)
    assert np.linalg.norm(grads[0] - fd) / np.linalg.norm(fd) < 1e-6


def test_gradient_single_node_touches_only_decode_params():
    inst, graph = _instance(1, seed=13)
    model = QgnnModel(layers=1, depth=1, k=2)
    flat0 = _random_params(2, 1, 1, seed=13).flatten()
    _, grads = model.loss_and_grad_batch(_one(inst, graph), flat0, [0])
    assert np.array_equal(grads[0, :10], np.zeros(10))

    def f(flat):
        pw = model.forward_batch(_one(inst, graph), flat, [0])[0]
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = _fd_grad(f, flat0)
    assert np.allclose(grads[0, -2:], fd[-2:], atol=1e-7)


def test_gradient_zero_decode_scale_blocks_circuit_gradients():
    inst, graph = _instance(3, seed=14)
    flat = _random_params(2, 2, 1, seed=14).flatten()
    flat[-2] = 0.0  # decode_scale
    _, grads = QgnnModel(layers=2, depth=1, k=2).loss_and_grad_batch(_one(inst, graph), flat, [3])
    assert np.array_equal(grads[0, :20], np.zeros(20))
    assert grads[0, -1] != 0.0  # bias still learns


def test_model_adapter_round_trip():
    model = QgnnModel(layers=2, depth=1, k=2)
    rng = np.random.default_rng(15)
    flat = model.init_params(rng)
    assert flat.shape == (22,)
    assert np.all(np.abs(flat) <= 0.1)
    inst, graph = _instance(4, seed=15)
    losses, grads = model.loss_and_grad_batch(_one(inst, graph), flat, [2])
    assert np.isfinite(losses[0]) and grads.shape == (1, flat.size)
    p = model.forward(inst, graph, flat, star_seed=2)
    assert np.array_equal(p, model.forward_batch(_one(inst, graph), flat, [2])[0])
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


@pytest.mark.parametrize("feature_dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
@settings(max_examples=4)
@given(data=st.data())
def test_kernel_matches_gate_level_simulator(feature_dim, depth, data):
    # messages and the full slot Jacobian of the closed-form kernel against
    # qsim.run_batch on the whole circuit, parameter shift on every slot
    spec = build_qgcl_circuit(feature_dim, depth)
    n_rows = data.draw(st.integers(1, 3))
    rows = data.draw(hnp.arrays(float, (n_rows, spec.angle_slots), fill=st.nothing(),
                                elements=st.floats(-2 * np.pi, 2 * np.pi)))
    angles, theta = rows[:, :spec.n], rows[0, spec.n:]
    rows[:, spec.n:] = theta  # every message of a layer shares its trainable angles

    def gate_level(batch):
        return expectations_z(run_batch(spec, batch), spec.n, range(feature_dim))

    shifted = np.repeat(rows[:, None, :], spec.angle_slots, axis=1)
    eye = np.eye(spec.angle_slots) * (np.pi / 2)
    jac = 0.5 * (gate_level((shifted + eye).reshape(-1, spec.angle_slots))
                 - gate_level((shifted - eye).reshape(-1, spec.angle_slots)))
    jac = jac.reshape(n_rows, spec.angle_slots, feature_dim)

    kernel = _Kernel(spec, theta, shifted=True)
    np.testing.assert_allclose(kernel.messages(angles), gate_level(rows), rtol=0, atol=1e-12)
    for f in range(feature_dim):
        w = np.zeros((n_rows, feature_dim))
        w[:, f] = 1.0
        np.testing.assert_allclose(kernel.vjp(angles, w), jac[:, :, f], rtol=0, atol=1e-12)


def _split(m, count, seed0):
    insts = []
    for i in range(count):
        sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed0 + i)
        insts.append(ch.realize_channels(sc, seed=seed0 + 1000 + i))
    scaler = fit_feature_scaler(insts)
    return [Instance(f"test/{i}", c, build_graph(c, scaler)) for i, c in enumerate(insts)]


def test_layer_rows_match_a_per_star_loop():
    graphs = [inst.graph for inst in _split(4, 3, 300) + _split(1, 2, 400) + _split(3, 2, 500)]
    offsets = np.cumsum([0] + [g.N for g in graphs[:-1]])
    for k in (0, 1, 2, 5):
        leaves = [decompose_stars(g.N, k, 7 + b) for b, g in enumerate(graphs)]
        rows = _layer_rows(graphs, leaves, offsets)
        center, leaf, edge, fan, first = [], [], [], [], []
        for graph, lv, off in zip(graphs, leaves, offsets):
            for i, star in enumerate(lv.tolist()):
                first += [len(center)] if star else []
                for j in sorted(star):
                    center.append(off + i)
                    leaf.append(off + j)
                    edge.append(graph.edge_angle[j, i])
                    fan.append(len(star))
        assert rows.center.tolist() == center and rows.leaf.tolist() == leaf
        assert rows.edge.tolist() == edge
        assert rows.fan.tolist() == fan and rows.first.tolist() == first


def test_batch_calls_match_single_instance_calls():
    split = _split(4, 24, seed0=300) + _split(1, 2, seed0=400) + _split(3, 3, seed0=500)
    model = QgnnModel(layers=2, depth=2, k=2)
    flat = np.random.default_rng(17).uniform(-1.0, 1.0, model.param_count())
    seeds = [1000 + 7 * i for i in range(len(split))]
    powers = model.forward_batch(split, flat, seeds)
    losses, grads = model.loss_and_grad_batch(split, flat, seeds)
    assert len(powers) == len(split) and grads.shape == (len(split), flat.size)
    for i, inst in enumerate(split):
        p = model.forward_batch([inst], flat, [seeds[i]])[0]
        np.testing.assert_allclose(powers[i], p, rtol=1e-13, atol=0)
        (loss,), (grad,) = model.loss_and_grad_batch([inst], flat, [seeds[i]])
        assert losses[i] == pytest.approx(loss, rel=1e-13)
        np.testing.assert_allclose(grads[i], grad, rtol=0, atol=1e-13 * np.abs(grad).max())
