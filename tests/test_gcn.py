"""Classical GCN baseline: shapes, equivariance, hand-written backprop."""

import numpy as np
import pytest

from qgpc import channels as ch
from qgpc.channels import sinr, weighted_sum_rate
from qgpc import gcn
from qgpc.gcn import GcnModel
from qgpc.graph import InterferenceGraph, build_graph, fit_feature_scaler
from qgpc.trainer import Instance


def _channels(G):
    """The checked channels of drawn gains, (M, M) or a (B, M, M) stack, at
    the default link constants."""
    return ch.ChannelBatch.from_gains(G, ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT,
                                      ch.DEFAULT_P_MAX)


def _pooled(drawn):
    """Every gain of drawn (M, M) arrays of mixed M, as a stack of 1 x 1
    gains: a scaler fit on it pools them as one fit over the list did."""
    return np.concatenate([G.ravel() for G in drawn])[:, None, None]


def _instance(m=4, seed=0):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    insts = _channels(ch.realize_channels(sc, seed=seed + 500)[None])
    graph = build_graph(insts[0], fit_feature_scaler(insts))
    return insts[0], graph


def _random_params(hidden, layers, seed, scale=0.5):
    """A GCN and a flat parameter vector drawn for it."""
    model = GcnModel(hidden=hidden, layers=layers)
    return model, np.random.default_rng(seed).uniform(-scale, scale, model.param_count())


def _powers(inst, graph, model, flat):
    return model.forward(inst, graph, flat, 0)


def _loss_and_grad(inst, graph, model, flat):
    (loss,), (grad,) = model.loss_and_grad_batch([Instance("i", inst, graph)], flat, [0])
    return loss, grad


def _stacked(graphs):
    """A block's stacked node features and edge angles, as _forward takes them."""
    return np.stack([g.node_features for g in graphs]), np.stack([g.edge_angle for g in graphs])


def test_param_count_matches_unflatten():
    for hd, nl in [(4, 1), (16, 2), (8, 3)]:
        model = GcnModel(hidden=hd, layers=nl)
        count = model.param_count()
        arrays = model.unflatten(np.zeros(count))
        assert [a.shape for a in arrays] == model._shapes()
        assert sum(a.size for a in arrays) == count


def test_flat_round_trip():
    # unflatten of 0..n-1 shows where each entry lands: every one exactly once, in order
    model = GcnModel(hidden=5, layers=2)
    n = model.param_count()
    back = model.unflatten(np.arange(n, dtype=float))
    assert np.array_equal(np.concatenate([a.ravel() for a in back]), np.arange(n))
    assert back[-1] == n - 1  # the head bias
    assert not any(a.flags.writeable for a in back)
    with pytest.raises(ValueError):
        model.unflatten(np.zeros(n - 1))


def test_forward_shapes_feasible_and_deterministic():
    inst, graph = _instance(4, seed=2)
    model, flat = _random_params(8, 2, seed=2)
    p1 = _powers(inst, graph, model, flat)
    p2 = _powers(inst, graph, model, flat)
    assert p1.shape == (4,)
    assert np.array_equal(p1, p2)
    assert np.all(p1 > 0.0) and np.all(p1 < inst.p_max)


def test_forward_single_node_uses_empty_aggregation():
    inst, graph = _instance(1, seed=3)
    model, flat = _random_params(6, 2, seed=3)
    p = _powers(inst, graph, model, flat)
    assert p.shape == (1,)
    assert 0.0 < p[0] < inst.p_max


def test_forward_equivariant_under_node_relabeling():
    inst, graph = _instance(5, seed=4)
    model, flat = _random_params(8, 2, seed=4)
    p = _powers(inst, graph, model, flat)
    perm = np.array([3, 0, 4, 1, 2])  # old index i becomes new index perm[i]
    n = graph.N
    ea = np.empty_like(graph.edge_angle)
    for a in range(n):
        for b in range(n):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
    )
    pp = _powers(inst, pg, model, flat)
    assert np.array_equal(pp[perm], p)


def test_loss_matches_forward_and_gradient_matches_finite_differences():
    inst, graph = _instance(3, seed=5)
    model, flat0 = _random_params(4, 2, seed=5)
    loss, grad = _loss_and_grad(inst, graph, model, flat0)
    p = _powers(inst, graph, model, flat0)
    assert loss == pytest.approx(-weighted_sum_rate(sinr(inst, p), inst.alpha), rel=1e-12)

    def f(flat):
        pw = _powers(inst, graph, model, flat)
        return -weighted_sum_rate(sinr(inst, pw), inst.alpha)

    fd = np.zeros_like(flat0)
    for i in range(flat0.size):
        e = np.zeros_like(flat0)
        e[i] = 1e-5
        fd[i] = (f(flat0 + e) - f(flat0 - e)) / 2e-5
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("layers", [1, 3])
def test_gradient_matches_finite_differences_across_sizes_and_depths(n, layers):
    inst, graph = _instance(n, seed=60 + n)
    model, flat0 = _random_params(5, layers, seed=60 + layers)
    _, grad = _loss_and_grad(inst, graph, model, flat0)

    def f(flat):
        return -weighted_sum_rate(sinr(inst, _powers(inst, graph, model, flat)), inst.alpha)

    fd = np.zeros_like(flat0)
    for i in range(flat0.size):
        e = np.zeros_like(flat0)
        e[i] = 1e-5
        fd[i] = (f(flat0 + e) - f(flat0 - e)) / 2e-5
    assert np.linalg.norm(fd) > 0
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


def test_gradient_is_deterministic():
    inst, graph = _instance(3, seed=6)
    model, flat = _random_params(4, 1, seed=6)
    l1, g1 = _loss_and_grad(inst, graph, model, flat)
    l2, g2 = _loss_and_grad(inst, graph, model, flat)
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
    losses, grads = model.loss_and_grad_batch([Instance("i", inst, graph)], flat, [0])
    assert np.isfinite(losses[0]) and grads.shape == (1, flat.size)
    assert model.arch_dict() == {"hidden": 16, "layers": 2}


def test_max_aggregation_matches_per_node_loop():
    graphs = [_instance(5, seed=9)[1], _instance(5, seed=10)[1]]
    model, flat = _random_params(6, 2, seed=9)
    where = model.unflatten(np.arange(flat.size))[2][:, 0]  # flat positions of layer 0's msg_w2
    flat[where.astype(int)] = 0.0  # column 0 ties across every edge
    prepared = model._prepare(flat, grad=True)
    params = prepared[0]
    z, tape = model._forward(*_stacked(graphs), prepared, None)
    n = graphs[0].N
    # edge j * n + v is the j-th edge into v, the sources into v ascending in j
    src, dst = gcn._complete_edges(n)
    assert src.tolist() == [j + (j >= v) for j in range(n - 1) for v in range(n)]
    assert dst.tolist() == [v for j in range(n - 1) for v in range(n)]
    assert gcn._complete_edges(n)[0] is src and not (src.flags.writeable or dst.flags.writeable)
    for ell, (h_in, (a1, won, u, _)) in enumerate(zip(tape.h, tape.caches)):
        msg_w2, msg_b2 = params[8 * ell + 2:8 * ell + 4]
        # the tape keeps the messages before their bias, which joins after the max
        msgs = (a1 @ msg_w2).reshape(len(graphs), dst.size, -1)
        u = u.reshape(len(graphs), n, -1)
        cols = np.arange(msgs.shape[2])
        for b in range(len(graphs)):
            for v in range(n):
                rows = np.nonzero(dst == v)[0]
                top = np.argmax(msgs[b, rows], axis=0)  # first index wins a tie
                assert np.array_equal(u[b, v, h_in.shape[2]:], msgs[b, rows][top, cols] + msg_b2)
                assert np.array_equal(won[b, :, v], np.arange(n - 1)[:, None] == top)
    assert not np.array_equal(z[0], z[1])


def test_batch_calls_match_single_instance_calls(monkeypatch):
    sizes = [4] * 24
    drawn = [ch.realize_channels(ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=40 + i),
                                 seed=540 + i) for i, m in enumerate(sizes)]
    insts = _channels(np.stack(drawn))
    scaler = fit_feature_scaler(insts)
    split = [Instance(f"i{i}", c, build_graph(c, scaler)) for i, c in enumerate(insts)]
    model = GcnModel(hidden=16, layers=2)
    _, flat = _random_params(16, 2, seed=21)
    where = model.unflatten(np.arange(flat.size))[8 + 2][:, 2]  # flat positions of layer 1's msg_w2
    flat[where.astype(int)] = 0.0  # column 2 ties across every edge
    # 30 edge rows: 2 graphs of 4 nodes per block
    monkeypatch.setattr(ch, "BLOCK_BYTES", model._item_bytes(6))
    assert len(list(ch.row_blocks(len(sizes), model._item_bytes(4)))) > len(set(sizes))
    seeds = list(range(len(split)))
    powers = model.forward_batch(split, flat, seeds)
    losses, grads = model.loss_and_grad_batch(split, flat, seeds)
    assert len(powers) == len(split) and grads.shape == (len(split), flat.size)
    for i, inst in enumerate(split):
        assert np.array_equal(powers[i], model.forward_batch([inst], flat, [0])[0])
        (loss,), (grad,) = model.loss_and_grad_batch([inst], flat, [0])
        assert losses[i] == pytest.approx(loss, rel=1e-13)
        np.testing.assert_allclose(grads[i], grad, rtol=0, atol=1e-13 * np.abs(grad).max())


@pytest.mark.parametrize("edge_rows", [30, 2048])
def test_forward_only_scores_equal_the_gradient_paths_bit_for_bit(monkeypatch, edge_rows):
    rng = np.random.default_rng(77)
    sizes = [1, 6] + rng.integers(1, 7, 28).tolist()
    drawn = [ch.realize_channels(ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=80 + i),
                                 seed=580 + i) for i, m in enumerate(sizes)]
    insts = [_channels(G) for G in drawn]
    scaler = fit_feature_scaler(_channels(_pooled(drawn)))
    graphs = [build_graph(c, scaler) for c in insts]
    model, flat = _random_params(6, 2, seed=77)
    where = model.unflatten(np.arange(flat.size))[2][:, 1]  # flat positions of layer 0's msg_w2
    flat[where.astype(int)] = 0.0  # column 1 ties across every edge
    monkeypatch.setattr(ch, "BLOCK_BYTES", edge_rows * model._item_bytes(2) // 2)
    # the row_blocks blocks of each size's graphs, smallest size first
    blocks = [np.flatnonzero(np.array(sizes) == n)[block] for n in sorted(set(sizes))
              for block in ch.row_blocks(sizes.count(n), model._item_bytes(n))]
    sixes = [idx for idx in blocks if sizes[idx[0]] == 6]  # 30 edge rows each
    assert len(sixes) == (sizes.count(6) if edge_rows == 30 else 1)
    for idx in blocks:
        block = _stacked([graphs[i] for i in idx])
        z, tape = model._forward(*block, model._prepare(flat, grad=False), None)
        z_grad, tape_grad = model._forward(*block, model._prepare(flat, grad=True), None)
        assert tape is None and tape_grad is not None
        assert np.array_equal(z, z_grad)
