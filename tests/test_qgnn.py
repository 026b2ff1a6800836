"""Quantum GNN: circuit layout, message passing, decoding, exact gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgpc import channels as ch
from qgpc import qgnn, qsim
from qgpc.graph import InterferenceGraph, build_graph, decompose_stars, fit_feature_scaler
from qgpc.qgnn import (
    QgnnModel, _Kernel, _layer_forward, _row_angles, embedding_to_angle,
    initial_embeddings, input_slot_count, node_input_angles, slots_per_layer,
)
from qgpc.channels import sinr, weighted_sum_rate
from qgpc.qsim import CircuitSpec, Gate, _apply_gates, expectations_z, run_batch
from qgpc.trainer import Instance


def build_qgcl_circuit(feature_dim, depth):
    """The model's message circuit gate by gate, for the gate-level oracle:
    RY input encoding on all 2F+1 qubits, then ``depth`` blocks of per-qubit
    trainable RY+RZ followed by a CNOT ring; the model runs it in closed form."""
    nq = 2 * feature_dim + 1
    gates = [Gate("RY", (q,), q) for q in range(nq)]
    slot = nq
    for _ in range(depth):
        for q in range(nq):
            gates.append(Gate("RY", (q,), slot))
            slot += 1
            gates.append(Gate("RZ", (q,), slot))
            slot += 1
        for q in range(nq):
            gates.append(Gate("CNOT", (q, (q + 1) % nq)))
    return CircuitSpec(n=nq, gates=tuple(gates), angle_slots=slot)


def _channels(G):
    """The checked channels of drawn gains, (M, M) or a (B, M, M) stack, at
    the default link constants."""
    return ch.ChannelBatch.from_gains(G, ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT,
                                      ch.DEFAULT_P_MAX)


def _instance(m=4, seed=0):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    insts = _channels(ch.realize_channels(sc, seed=seed + 500)[None])
    graph = build_graph(insts[0], fit_feature_scaler(insts))
    return insts[0], graph


def _random_params(n_layers, depth, seed, scale=0.5):
    """A flat parameter vector: each layer's trainable angles, then the decode scale and bias."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, QgnnModel(n_layers, depth).param_count())


def _layer(depth, theta, h, edge_angle, leaves):
    """One layer of F = 2 over one graph with hand-made stars, each ascending."""
    edge = np.asarray(edge_angle, dtype=float)
    return _layer_forward(_Kernel(2, depth, theta), h[None], edge[None],
                          np.asarray(leaves)[None])[0][0]


def _model(flat, k):
    """The depth-1 model that flat parameterizes."""
    return QgnnModel((flat.size - 2) // slots_per_layer(2, 1), 1, k)


def _tape(graph, flat, k, seed):
    """The forward tape over one graph of a depth-1 model, with its own star draw."""
    model = _model(flat, k)
    return model._forward(graph.node_features[None], graph.edge_angle[None],
                          model._prepare(flat, grad=True),
                          model._stars(graph.N, np.array([seed], dtype=np.uint64)))[1]


def _inject(monkeypatch, leaves):
    """Make every star draw return ``leaves`` (n, s) for each graph of the
    block; returns the list of (n, k, seeds) calls the patch saw."""
    calls = []

    def draw(n, k, seeds):
        calls.append((n, k, seeds))
        return np.broadcast_to(leaves, seeds.shape + np.shape(leaves))

    monkeypatch.setattr(qgnn, "decompose_stars", draw)
    return calls


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


def test_circuit_each_slot_feeds_exactly_one_gate():
    # the slot-level parameter-shift jacobian relies on this
    for feature_dim, depth in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        spec = build_qgcl_circuit(feature_dim, depth)
        used = [g.angle_slot for g in spec.gates if g.angle_slot is not None]
        assert sorted(used) == list(range(spec.angle_slots))
        ring = [g for g in spec.gates if g.kind == "CNOT"]
        assert len(ring) == depth * spec.n


def test_param_count_independent_of_graph_size_and_fanout():
    assert QgnnModel(layers=2, depth=1).param_count() == 22
    assert QgnnModel(layers=2, depth=2).param_count() == 42
    counts = {QgnnModel(2, 1, k).param_count() for k in (1, 2, 3, 7)}
    assert counts == {22}
    model = QgnnModel(2, 1, 2)
    rng = np.random.default_rng(0)
    flat = model.init_params(rng)
    for m in (2, 5):
        inst, graph = _instance(m, seed=m)
        p = model.forward(inst, graph, flat, star_seed=3)
        assert p.shape == (m,)


def test_params_unflatten_layout():
    model = QgnnModel(layers=2, depth=1)
    flat = _random_params(2, 1, seed=4)
    assert flat.shape == (22,)
    back = model.unflatten(flat)
    spl = slots_per_layer(2, 1)
    assert [a.shape for a in back] == [(spl,), (spl,), (), ()]
    assert all(np.array_equal(a, flat[spl * i:spl * (i + 1)]) for i, a in enumerate(back[:-2]))
    assert back[-2] == flat[-2]  # decode scale
    assert back[-1] == flat[-1]  # decode bias
    # unflatten of 0..n-1 shows where each entry lands: every one exactly once, in order
    order = model.unflatten(np.arange(22.0))
    assert np.array_equal(np.concatenate([a.ravel() for a in order]), np.arange(22.0))
    with pytest.raises(ValueError):
        model.unflatten(flat[:-1])


def test_message_from_vacuum_is_all_ones():
    # zero angles leave every qubit in |0>, so every Z expectation is +1;
    # a one-leaf star's update is that leaf's message
    h = np.full((2, 2), -1.0)  # embedding -1 encodes as angle 0
    msg = _layer(1, np.zeros(10), h, np.zeros((2, 2)), [[1], [0]])
    assert np.allclose(msg, 1.0, atol=1e-12)


def test_messages_stay_in_expectation_range():
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, 20)
        h = rng.uniform(-1, 1, (2, 2))
        msg = _layer(2, theta, h, rng.uniform(0, np.pi, (2, 2)), [[1], [0]])
        assert msg.shape == (2, 2)
        assert np.all(np.abs(msg) <= 1.0 + 1e-12)


def test_forward_star_without_leaves_passes_embedding_through():
    h = np.array([[0.2, -0.4], [0.9, 0.1]])
    out = _layer(1, np.full(10, 0.3), h, np.zeros((2, 2)),
                 np.empty((2, 0), dtype=int))
    assert np.array_equal(out, h)
    out[0, 0] = 99.0
    assert h[0, 0] == 0.2


def test_forward_duplicate_leaf_embedding_matches_single_leaf():
    theta = np.linspace(-0.5, 0.5, 10)
    h = np.array([[0.1, 0.2], [-0.3, 0.7], [-0.3, 0.7]])
    one = _layer(1, theta, h[:2], np.full((2, 2), 0.4), [[1], [0]])[0]
    two = _layer(1, theta, h, np.full((3, 3), 0.4), [[1, 2], [0, 2], [0, 1]])[0]
    # batch sizes 1 and 2 may take different matmul paths, hence the tiny atol
    assert np.allclose(one, two, rtol=0.0, atol=1e-13)


def test_forward_is_exactly_leaf_order_invariant(monkeypatch):
    rng = np.random.default_rng(21)
    flat = _random_params(1, 1, seed=21)
    graph = InterferenceGraph(rng.uniform(0, np.pi, (7, 2)), rng.uniform(0, np.pi, (7, 7)))
    others = [[j for j in range(7) if j != i] for i in range(1, 7)]

    def embeddings(first_star):
        calls = _inject(monkeypatch, np.array([first_star] + others))
        h = _tape(graph, flat, 6, 0).h[-1]
        assert len(calls) == 1  # one layer, one draw
        return h

    base = embeddings([1, 2, 3, 4, 5, 6])
    for _ in range(4):
        assert np.array_equal(embeddings(list(rng.permutation([1, 2, 3, 4, 5, 6]))), base)


def test_forward_single_node_keeps_initial_embedding():
    inst, graph = _instance(1, seed=6)
    flat = _random_params(2, 1, seed=6)
    h = _tape(graph, flat, 2, 0).h[-1][0]
    assert np.array_equal(h, initial_embeddings(graph.node_features))
    want = inst.p_max / (1.0 + np.exp(-(flat[-2] * h[0, 0] + flat[-1])))  # decode scale, bias
    assert _model(flat, 2).forward(inst, graph, flat, 0)[0] == pytest.approx(want, rel=1e-12)


def test_forward_powers_feasible_and_deterministic():
    inst, graph = _instance(4, seed=7)
    flat = _random_params(2, 1, seed=7, scale=2.0)
    p1, p2, p3 = (_model(flat, 2).forward(inst, graph, flat, seed) for seed in (5, 5, 6))
    h1, h2 = (_tape(graph, flat, 2, seed).h[-1] for seed in (5, 5))
    assert np.array_equal(p1, p2) and np.array_equal(h1, h2)
    assert np.all(p1 > 0.0) and np.all(p1 < inst.p_max)
    assert np.all(np.abs(h1) <= 1.0 + 1e-12)
    assert not np.array_equal(p1, p3)


def test_forward_equivariant_under_node_relabeling(monkeypatch):
    inst, graph = _instance(4, seed=8)
    flat = _random_params(2, 1, seed=8)
    leaves = np.array([[1, 3], [2, 0], [3, 1], [0, 2]])  # every layer's stars
    calls = _inject(monkeypatch, leaves)
    tape = _tape(graph, flat, 2, 0)
    p = _model(flat, 2).forward(inst, graph, flat, 0)
    assert len(calls) == 4  # two layers, two forwards

    perm = np.array([2, 0, 3, 1])  # old index i becomes new index perm[i]
    ea = np.empty_like(graph.edge_angle)
    for a in range(4):
        for b in range(4):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
    )
    pleaves = np.empty_like(leaves)
    pleaves[perm] = perm[leaves]  # star of old center i, relabeled, is row perm[i]
    calls = _inject(monkeypatch, pleaves)
    ptape = _tape(pg, flat, 2, 0)
    assert np.array_equal(_model(flat, 2).forward(inst, pg, flat, 0)[perm], p)
    assert len(calls) == 4
    assert np.array_equal(ptape.h[-1][0][perm], tape.h[-1][0])


@settings(max_examples=10, deadline=None)
@example(seed=2 ** 64 - 1)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_layer_star_seeds_wrap_at_two_to_the_64(seed):
    # layer ell draws with seed + ell mod 2^64, and mixed seeds reach 2^64 - 1
    inst, graph = _instance(4, seed=18)
    flat = _random_params(2, 1, seed=18)
    model = _model(flat, 2)
    tape = _tape(graph, flat, 2, seed)
    for ell, leaves in enumerate(tape.leaves):
        assert np.array_equal(leaves[0], decompose_stars(4, 2, (seed + ell) % 2 ** 64))
    losses, grads = model.loss_and_grad_batch(_one(inst, graph), flat, [seed])
    assert np.isfinite(losses[0]) and np.all(np.isfinite(grads))


def test_loss_matches_forward_and_gradient_matches_finite_differences():
    inst, graph = _instance(3, seed=9)
    model = QgnnModel(layers=2, depth=1, k=2)
    flat0 = _random_params(2, 1, seed=9)
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
    flat0 = _random_params(1, 1, seed=13)
    _, grads = model.loss_and_grad_batch(_one(inst, graph), flat0, [0])
    assert np.array_equal(grads[0, :10], np.zeros(10))

    def f(flat):
        pw = model.forward_batch(_one(inst, graph), flat, [0])[0]
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = _fd_grad(f, flat0)
    assert np.allclose(grads[0, -2:], fd[-2:], atol=1e-7)


def test_gradient_zero_decode_scale_blocks_circuit_gradients():
    inst, graph = _instance(3, seed=14)
    flat = _random_params(2, 1, seed=14)
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
    nf = graph.node_features
    ang = node_input_angles(nf)
    assert np.array_equal(ang[:, 0], nf[:, 0])
    assert np.allclose(ang[:, 1], np.pi / 2.0)  # unit weights
    # any leading dims: a stack of graphs gives each graph its own angles
    assert np.array_equal(node_input_angles(np.stack([nf, nf[::-1]])), np.stack([ang, ang[::-1]]))
    h0 = initial_embeddings(nf)
    assert np.allclose(embedding_to_angle(h0), ang)
    assert np.all(h0 >= -1.0) and np.all(h0 <= 1.0)


@pytest.mark.parametrize("feature_dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
@settings(max_examples=4)
@given(data=st.data())
def test_kernel_matches_gate_level_simulator(feature_dim, depth, data):
    # messages and the full slot Jacobian of the kernel against
    # qsim.run_batch on the whole circuit, parameter shift on every slot;
    # the trainable slots come summed over each graph's run of rows
    spec = build_qgcl_circuit(feature_dim, depth)
    n_rows = data.draw(st.integers(1, 4))
    graphs = data.draw(st.sampled_from([g for g in (1, 2, 3, 4) if n_rows % g == 0]))
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

    kernel = _Kernel(feature_dim, depth, theta, grad=True)
    np.testing.assert_allclose(kernel.messages(angles, graphs)[0], gate_level(rows),
                               rtol=0, atol=1e-12)
    for f in range(feature_dim):
        w = np.zeros((n_rows, feature_dim))
        w[:, f] = 1.0
        inputs, trainable = kernel.vjp(kernel.messages(angles, graphs)[1], w, graphs)
        np.testing.assert_allclose(inputs, jac[:, :spec.n, f], rtol=0, atol=1e-12)
        per_graph = jac[:, spec.n:, f].reshape(graphs, -1, theta.size).sum(axis=1)
        np.testing.assert_allclose(trainable, per_graph, rtol=0, atol=1e-12)


def _gate_level_unitaries(spec, thetas):
    """The blocks U at each row of thetas as [Re U | Im U], built by the
    gate-level simulator: one run over the basis states, encoding angles at 0."""
    dim = 2 ** spec.n
    angles = np.zeros((len(thetas) * dim, spec.angle_slots))
    angles[:, spec.n:] = np.repeat(thetas, dim, axis=0)
    u = _apply_gates(np.tile(np.eye(dim, dtype=complex), (len(thetas), 1)), spec, angles)
    return np.concatenate([u.real, u.imag], axis=1).reshape(-1, dim, 2 * dim)


@pytest.mark.parametrize("feature_dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_closed_form_blocks_match_gate_level_build(feature_dim, depth):
    # the kernel's block at theta and at every theta + pi e_s
    spec = build_qgcl_circuit(feature_dim, depth)
    theta = np.random.default_rng(10 * feature_dim + depth).uniform(-2 * np.pi, 2 * np.pi,
                                                                    spec.angle_slots - spec.n)
    kernel = _Kernel(feature_dim, depth, theta, grad=True)
    want = _gate_level_unitaries(spec, np.vstack([theta, theta + np.pi * np.eye(theta.size)]))
    np.testing.assert_allclose(kernel.block, want[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(kernel.grad_blocks, want[1:].reshape(theta.size, -1).T,
                               rtol=0, atol=1e-13)


def test_prepare_builds_one_block_per_trainable_slot(monkeypatch):
    # a gradient prepare holds 1 + S blocks per layer, a forward prepare one,
    # and neither they nor a forward run the gate-level simulator
    def refuse(*args):
        raise AssertionError("the model ran the gate-level simulator")

    assert not hasattr(qgnn, "_apply_gates")  # no binding of its own to call instead
    monkeypatch.setattr(qsim, "_apply_gates", refuse)
    model = QgnnModel(layers=2, depth=2)
    flat = _random_params(2, 2, seed=5)
    inst, graph = _instance(4, seed=5)
    for grad, slots in [(False, 0), (True, slots_per_layer(2, 2))]:
        _, kernels, _ = prepared = model._prepare(flat, grad)
        assert len(kernels) == model.layers
        assert all(k.grad_blocks.shape == (k.block.size, slots) for k in kernels)
        z, _ = model._forward(graph.node_features[None], graph.edge_angle[None], prepared,
                              model._stars(graph.N, np.array([3], dtype=np.uint64)))
        assert np.all(np.isfinite(z))
    losses, grads = model.loss_and_grad_batch(_one(inst, graph), flat, [3])
    assert np.isfinite(losses[0]) and np.all(np.isfinite(grads))


_HALF_TURNS = st.sampled_from([0.0, np.pi, -np.pi, 2 * np.pi])


@pytest.mark.parametrize("feature_dim", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_input_slot_contraction_matches_shifted_states(feature_dim, data):
    # vjp's input slots against psi(a + pi e_q) . Re(U y) with the shifted
    # states formed explicitly; angles may sit at 0, +-pi or 2 pi, where the
    # cosine or sine of the half-angle vanishes
    spec = build_qgcl_circuit(feature_dim, 1)
    n, n_rows = spec.n, data.draw(st.integers(1, 6))
    angles = data.draw(hnp.arrays(float, (n_rows, n), elements=st.floats(-2 * np.pi, 2 * np.pi)
                                  | _HALF_TURNS))
    theta = data.draw(hnp.arrays(float, spec.angle_slots - n, elements=st.floats(-np.pi, np.pi)))
    w = data.draw(hnp.arrays(float, (n_rows, feature_dim), elements=st.floats(-2.0, 2.0)))
    kernel = _Kernel(feature_dim, 1, theta)
    psi = qgnn._product_state(np.cos(0.5 * angles), np.sin(0.5 * angles))
    y = np.tile(w @ kernel.signs.T, 2) * (psi @ kernel.block)
    half = 0.5 * (angles[:, None] + np.pi * np.eye(n)).reshape(-1, n)
    shifted = qgnn._product_state(np.cos(half), np.sin(half))
    want = np.einsum("rqi,ri->rq", shifted.reshape(n_rows, n, -1), y @ kernel.block.T)
    inputs, _ = kernel.vjp(kernel.messages(angles, 1)[1], w, 1)
    np.testing.assert_allclose(inputs, want, rtol=0, atol=1e-13)


def _split(m, count, seed0):
    drawn = []
    for i in range(count):
        sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed0 + i)
        drawn.append(ch.realize_channels(sc, seed=seed0 + 1000 + i))
    insts = _channels(np.stack(drawn))
    scaler = fit_feature_scaler(insts)
    return [Instance(f"test/{i}", c, build_graph(c, scaler)) for i, c in enumerate(insts)]


def test_layer_rows_match_a_per_star_loop():
    # a block's message rows, star by star: center, leaf, edge leaf -> center
    for m, k in [(4, 0), (4, 1), (4, 2), (3, 5), (1, 2)]:
        graphs = [inst.graph for inst in _split(m, 3, 300 + m)]
        h = np.stack([initial_embeddings(g.node_features) for g in graphs])
        leaves = decompose_stars(m, k, np.arange(7, 10, dtype=np.uint64))
        rows = _row_angles(h, np.stack([g.edge_angle for g in graphs]), leaves)
        want = [np.concatenate([embedding_to_angle(h[b, i]), embedding_to_angle(h[b, j]),
                                [graph.edge_angle[j, i]]])
                for b, graph in enumerate(graphs) for i in range(m) for j in leaves[b, i]]
        assert rows.tolist() == np.reshape(want, (-1, 5)).tolist()


def test_batch_calls_match_single_instance_calls(monkeypatch):
    split = _split(4, 24, seed0=300)
    model = QgnnModel(layers=2, depth=2, k=2)
    flat = np.random.default_rng(17).uniform(-1.0, 1.0, model.param_count())
    seeds = [1000 + 7 * i for i in range(len(split))]
    monkeypatch.setattr(ch, "BLOCK_BYTES", 2 * model._item_bytes(4))  # 16 rows: 2 graphs a block
    assert len(list(ch.row_blocks(len(split), model._item_bytes(4)))) == 12
    powers = model.forward_batch(split, flat, seeds)
    losses, grads = model.loss_and_grad_batch(split, flat, seeds)
    assert len(powers) == len(split) and grads.shape == (len(split), flat.size)
    for i, inst in enumerate(split):
        assert np.array_equal(powers[i], model.forward_batch([inst], flat, [seeds[i]])[0])
        (loss,), (grad,) = model.loss_and_grad_batch([inst], flat, [seeds[i]])
        assert losses[i] == loss and np.array_equal(grads[i], grad)
