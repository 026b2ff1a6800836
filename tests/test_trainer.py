"""Optimizer, seed plumbing, and the unsupervised training loop."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgpc.qgnn as qgnn_mod
import qgpc.qsim as qsim_mod
import qgpc.trainer as trainer_mod
import seed_reference
from qgpc import channels as ch
from qgpc.gcn import GcnModel
from qgpc.graph import build_graph, fit_feature_scaler, mix64
from qgpc.qgnn import QgnnModel
from qgpc.trainer import (
    AdamState, BatchModel, Instance, NonFiniteLossError, NonFinitePowerError, SeedConfig,
    TrainConfig, TrainReport, adam_step, eval_star_seed, evaluate_mean, mix_seed, train,
    train_star_seed, wmmse_mean,
)


def _instances(m, count, seed0, prefix="train"):
    """Realizations sharing one feature scaler, as the trainer consumes them."""
    drawn = []
    for i in range(count):
        sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed0 + i)
        drawn.append(ch.realize_channels(sc, seed=seed0 + 1000 + i))
    insts = ch.ChannelBatch.from_gains(np.stack(drawn), ch.DEFAULT_NOISE_POWER,
                                       ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
    scaler = fit_feature_scaler(insts)
    return [
        Instance(f"{prefix}-{i}", inst, build_graph(inst, scaler))
        for i, inst in enumerate(insts)
    ]


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([0.3, -1.2, 4.0])
    new, state = adam_step(params, np.zeros(3), AdamState.zeros(3), t=1, cfg=TrainConfig())
    assert np.array_equal(new, params)
    assert np.array_equal(state.m, np.zeros(3))


def test_adam_first_step_has_learning_rate_magnitude():
    cfg = TrainConfig(lr=0.05)
    grad = np.array([3.0, -0.7, 1e-3])
    new, _ = adam_step(np.zeros(3), grad, AdamState.zeros(3), t=1, cfg=cfg)
    # bias correction makes the first update lr * g / (|g| + eps)
    assert np.allclose(np.abs(new), cfg.lr, rtol=1e-4)
    assert np.all(np.sign(new) == -np.sign(grad))


def test_adam_is_pure():
    params = np.array([1.0, 2.0])
    grad = np.array([0.5, -0.5])
    state = AdamState(m=np.array([0.1, 0.1]), v=np.array([0.2, 0.2]))
    new, new_state = adam_step(params, grad, state, t=3, cfg=TrainConfig())
    assert np.array_equal(params, [1.0, 2.0])
    assert np.array_equal(state.m, [0.1, 0.1]) and np.array_equal(state.v, [0.2, 0.2])
    assert new is not params and new_state.m is not state.m
    with pytest.raises(ValueError):
        adam_step(params, grad, state, t=0, cfg=TrainConfig())


def test_adam_matches_hand_computed_second_step():
    cfg = TrainConfig(lr=0.1)
    g1, g2 = np.array([1.0]), np.array([-2.0])
    p, s = adam_step(np.array([0.0]), g1, AdamState.zeros(1), t=1, cfg=cfg)
    p, s = adam_step(p, g2, s, t=2, cfg=cfg)
    m = 0.9 * (0.1 * 1.0) + 0.1 * (-2.0)
    v = 0.999 * (0.001 * 1.0) + 0.001 * 4.0
    m_hat = m / (1 - 0.9 ** 2)
    v_hat = v / (1 - 0.999 ** 2)
    want = (-0.1 * 1.0 / (1.0 + 1e-8)) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p[0] == pytest.approx(want, rel=1e-12)


def test_mix_seed_is_deterministic_and_sensitive_to_every_part():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    seen = {mix_seed(1, 2, 3), mix_seed(3, 2, 1), mix_seed(1, 2), mix_seed(1, 2, 4)}
    assert len(seen) == 4
    assert all(0 <= s < 2 ** 64 for s in seen)
    # an index array gives the per-index SeedSequence seeds in one call, on
    # both sides of 2^32 (one entropy word per index, or two)
    idx = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 7], dtype=np.uint64)
    for head in ((), (1,), (2 ** 40, 0x47454F, 1)):
        got = mix_seed(*head, idx)
        assert got.dtype == np.uint64
        assert got.tolist() == seed_reference.mix_seed(*head, idx).tolist()
    assert mix_seed(1, 2, np.arange(0)).shape == (0,)


def test_star_seed_streams_are_distinct():
    seeds = SeedConfig(data=1, init=2, stars=3)
    ev = {eval_star_seed(seeds, i) for i in range(20)}
    tr = {train_star_seed(seeds, e, i) for e in range(3) for i in range(20)}
    assert len(ev) == 20 and len(tr) == 60
    assert not ev & tr
    # an index array gives the scalar calls' seeds, in one call
    idx = np.arange(20)
    assert eval_star_seed(seeds, idx).tolist() == [int(eval_star_seed(seeds, i)) for i in idx]
    assert train_star_seed(seeds, 2, idx[::-1]).tolist() == [
        int(train_star_seed(seeds, 2, i)) for i in idx[::-1]]


def test_evaluate_mean_uses_frozen_star_seeds():
    insts = _instances(3, 4, seed0=50)
    model = QgnnModel(layers=1, depth=1, k=2)
    flat = model.init_params(np.random.default_rng(0))
    seeds = SeedConfig()
    a = evaluate_mean(model, flat, insts, seeds)
    b = evaluate_mean(model, flat, insts, seeds)
    assert a == b
    assert np.isnan(evaluate_mean(model, flat, [], seeds))
    assert np.isnan(wmmse_mean([]))


def test_train_validates_inputs():
    insts = _instances(2, 2, seed0=60)
    model = GcnModel(hidden=4, layers=1)
    with pytest.raises(ValueError):
        train(model, [], insts, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, insts, insts, TrainConfig(epochs=-1))
    with pytest.raises(ValueError):
        train(model, insts, insts, TrainConfig(epochs=1, batch=0))


@pytest.mark.parametrize("entry", ["forward_batch", "loss_and_grad_batch", "evaluate_mean",
                                   "train"])
def test_a_list_of_two_sizes_is_refused(entry):
    insts = _instances(3, 2, seed0=60) + _instances(4, 2, seed0=65)
    model = GcnModel(hidden=4, layers=1)
    flat = model.init_params(np.random.default_rng(0))
    run = {
        "forward_batch": lambda: model.forward_batch(insts, flat, np.arange(4)),
        "loss_and_grad_batch": lambda: model.loss_and_grad_batch(insts, flat, np.arange(4)),
        "evaluate_mean": lambda: evaluate_mean(model, flat, insts, SeedConfig()),
        "train": lambda: train(model, insts, insts[:1], TrainConfig(epochs=1)),
    }[entry]
    with pytest.raises(ValueError, match=r"^a split holds instances of one size, "
                                         r"got sizes \[3, 4\]$"):
        run()


def test_train_zero_epochs_reports_baseline_only():
    insts = _instances(2, 3, seed0=70)
    model = GcnModel(hidden=4, layers=1)
    report = train(model, insts, insts[:1], TrainConfig(epochs=0))
    assert report.epochs == 0
    assert report.train_curve.shape == (0,) and report.test_curve.shape == (0,)
    assert np.isfinite(report.baseline_train_mean)
    assert np.isfinite(report.wmmse_test_mean)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_train_is_bit_reproducible():
    tr = _instances(3, 6, seed0=80)
    te = _instances(3, 3, seed0=90, prefix="test")
    model = GcnModel(hidden=4, layers=1)
    cfg = TrainConfig(epochs=3, lr=0.05, batch=300)
    r1 = train(model, tr, te, cfg)
    r2 = train(model, tr, te, cfg)
    assert np.array_equal(r1.final_params, r2.final_params)
    assert np.array_equal(r1.train_curve, r2.train_curve)
    assert np.array_equal(r1.test_curve, r2.test_curve)
    assert r1.to_csv() == r2.to_csv()


def test_train_minibatch_shuffling_is_seeded():
    tr = _instances(3, 6, seed0=80)
    te = _instances(3, 2, seed0=95, prefix="test")
    model = GcnModel(hidden=4, layers=1)
    cfg = TrainConfig(epochs=2, batch=2)
    r1 = train(model, tr, te, cfg)
    r2 = train(model, tr, te, cfg)
    assert np.array_equal(r1.final_params, r2.final_params)
    other = train(model, tr, te, TrainConfig(epochs=2, batch=2,
                                             seeds=SeedConfig(data=9, init=2, stars=3)))
    assert not np.array_equal(r1.final_params, other.final_params)


def test_train_improves_mean_objective():
    tr = _instances(3, 8, seed0=100)
    te = _instances(3, 4, seed0=120, prefix="test")
    model = GcnModel(hidden=8, layers=1)
    report = train(model, tr, te, TrainConfig(epochs=8, lr=0.05))
    assert report.test_curve[-1] > report.baseline_test_mean


def test_train_small_quantum_model_runs_and_improves(monkeypatch):
    # training runs on the product-state kernel, never on qsim.run_batch
    def gate_level(*args):
        raise AssertionError("qsim.run_batch called during training")

    monkeypatch.setattr(qsim_mod, "run_batch", gate_level)
    monkeypatch.setattr(qgnn_mod, "run_batch", gate_level)
    tr = _instances(2, 4, seed0=130)
    te = _instances(2, 2, seed0=140, prefix="test")
    model = QgnnModel(layers=1, depth=1, k=1)
    report = train(model, tr, te, TrainConfig(epochs=4, lr=0.1))
    assert report.model == "qgnn"
    assert report.train_curve[-1] > report.baseline_train_mean
    assert report.final_params.shape == (model.param_count(),)


class _NanModel(BatchModel):
    """Scores NaN on the gradient path and in the forward calls numbered in
    nan_calls (from 0), and 0 (power p_max / 2 = 0.5) elsewhere; blocks hold
    at most two graphs."""

    name = "nan"

    def __init__(self, nan_calls=()):
        self.nan_calls = set(nan_calls)
        self.calls = 0

    def _shapes(self):
        return [(2,)]

    def _item_bytes(self, n):
        return ch.BLOCK_BYTES // 2

    def _prepare(self, flat_params, grad):
        return grad

    def _forward(self, features, edge, grad, star_seeds):
        b, n = features.shape[:2]
        call, self.calls = self.calls, self.calls + 1
        return np.full((b, n), np.nan if grad or call in self.nan_calls else 0.0), None

    def _backward(self, tape, grad, dloss_dz):
        return [np.zeros((len(dloss_dz), 2))]


def test_train_aborts_on_non_finite_loss_with_context():
    insts = _instances(2, 3, seed0=150)
    with pytest.raises(NonFiniteLossError) as err:
        train(_NanModel(), insts, insts[:1], TrainConfig(epochs=2))
    assert err.value.epoch == 1
    assert err.value.step == 0
    assert err.value.instance == "train-0"
    assert np.isnan(err.value.value)


def test_train_names_the_gradient_when_only_the_gradient_is_non_finite():
    class NanGradModel(_NanModel):
        def _forward(self, features, edge, grad, star_seeds):
            return np.zeros(features.shape[:2]), None

        def _backward(self, tape, grad, dloss_dz):
            return [np.full((len(dloss_dz), 2), np.nan)]

    insts = _instances(2, 3, seed0=150)
    with pytest.raises(NonFiniteLossError) as err:
        train(NanGradModel(), insts, insts[:1], TrainConfig(epochs=2))
    assert np.isfinite(err.value.value)
    assert str(err.value) == (f"non-finite gradient of the loss {err.value.value!r} "
                              "at epoch 1, step 0, instance train-0")
    assert "non-finite loss nan at" in str(NonFiniteLossError(1, 0, "x", float("nan")))


def test_evaluate_mean_names_the_first_non_finite_instance_in_input_order():
    # blocks of two run in input order and the second and third score NaN, so
    # the instance at position 2, labelled test-0, is the first to fail
    split = [inst._replace(label=f"test-{(i - 2) % 6}")
             for i, inst in enumerate(_instances(4, 6, seed0=200))]
    with pytest.raises(NonFinitePowerError, match=r"\[nan, nan, nan, nan\] for instance test-0$"):
        evaluate_mean(_NanModel(nan_calls=(1, 2)), np.zeros(2), split, SeedConfig())
    total = 0.0
    for inst in split:  # the finite mean adds the rates in input order
        total += ch.sum_rate(inst.channels, np.full(inst.channels.M, 0.5))
    assert evaluate_mean(_NanModel(), np.zeros(2), split, SeedConfig()) == total / len(split)


def test_solver_is_never_consulted_during_training(monkeypatch):
    # WMMSE may only see each test instance once, for the baseline column
    calls = []
    real = trainer_mod.wmmse_batch

    def counting(stack, *a, **kw):
        calls.append(stack)
        return real(stack, *a, **kw)

    monkeypatch.setattr(trainer_mod, "wmmse_batch", counting)
    tr = _instances(3, 5, seed0=160)
    te = _instances(3, 3, seed0=170, prefix="test")
    train(GcnModel(hidden=4, layers=1), tr, te, TrainConfig(epochs=3))
    seen = [c for call in calls for c in call]
    assert len(seen) == len(te)
    assert all(np.array_equal(c.gain, inst.channels.gain) for c, inst in zip(seen, te))
    assert not any(np.array_equal(c.gain, inst.channels.gain) for c in seen for inst in tr)


def test_report_csv_layout_is_exact():
    report = TrainReport(
        model="qgnn", epochs=2,
        baseline_train_mean=0.5, baseline_test_mean=0.25,
        train_curve=np.array([1.0, 1.5]), test_curve=np.array([2.0, 2.25]),
        wmmse_test_mean=3.0, seconds=np.array([0.1, 0.2]),
        final_params=np.zeros(1),
    )
    want = (
        "epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz\n"
        "0,0.5,0.25,3\n"
        "1,1,2,3\n"
        "2,1.5,2.25,3\n"
    )
    assert report.to_csv() == want


@settings(max_examples=200)
@given(n=st.integers(1, 9), count=st.integers(0, 40), budget=st.integers(0, 80),
       k=st.none() | st.integers(0, 4))
def test_row_blocks_partition_graphs_in_order_within_the_budget(n, count, budget, k):
    # k None: the GCN's N(N-1) edge rows; else the QGNN's N min(k, N-1) message rows
    def rows(n):
        return n * (n - 1) if k is None else n * min(k, n - 1)

    sizes = [n] * count
    with mock.patch.object(ch, "BLOCK_BYTES", budget):
        blocks = [np.arange(count)[block] for block in ch.row_blocks(count, rows(n))]
    assert [i for idx in blocks for i in idx] == list(range(count))  # in input order
    assert sorted(i for idx in blocks for i in idx) == list(range(len(sizes)))
    for idx in blocks:
        assert len({sizes[i] for i in idx}) == 1
        per_graph = rows(sizes[idx[0]])
        assert len(idx) == 1 or len(idx) * per_graph <= budget
        assert per_graph > 0 or len(idx) == 1  # a graph without rows runs alone


def _per_block_reference(model, instances, flat, star_seeds):
    """Powers, losses and gradients of the batch path as it ran before the
    Split: each row_blocks block of the list stacked on its own."""
    prepared = model._prepare(flat, grad=True)
    star_seeds = np.asarray(star_seeds, dtype=np.uint64)
    powers = [None] * len(instances)
    losses, grads = np.empty(len(instances)), np.empty((len(instances), flat.size))
    for block in ch.row_blocks(len(instances), model._item_bytes(instances[0].graph.N)):
        idx = np.arange(len(instances))[block]
        graphs = [instances[i].graph for i in idx]
        channels = ch.ChannelBatch.stack([instances[i].channels for i in idx])
        z, tape = model._forward(np.stack([g.node_features for g in graphs]),
                                 np.stack([g.edge_angle for g in graphs]), prepared,
                                 model._stars(graphs[0].N, star_seeds[idx]))
        sig = ch.sigmoid(z)
        p = channels.p_max[:, None] * sig
        losses[idx] = -ch.sum_rate(channels, p)
        dloss_dz = -ch.weighted_sum_rate_grad(channels, p) * (p * (1.0 - sig))
        grads[idx] = np.concatenate([g.reshape(len(idx), -1) for g in
                                     model._backward(tape, prepared, dloss_dz)], axis=1)
        for i, row in zip(idx, p):
            powers[i] = row
    return powers, losses, grads


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
@pytest.mark.parametrize("case", range(3))
def test_split_blocks_equal_per_block_stacking_bit_for_bit(monkeypatch, arch, case):
    rng = np.random.default_rng(900 + case)
    # one size a case; a graph of 1 node has no rows, so it runs alone
    insts = _instances((4, 2, 1)[case], 24, seed0=1000 * case, prefix="case")
    model = QgnnModel(layers=2, depth=1, k=2) if arch == "qgnn" else GcnModel(hidden=4, layers=2)
    # small budgets cut the split into several blocks: 12 message rows or 30
    # edge rows (a graph of 2 nodes has 2 rows of either kind)
    rows = 12 if arch == "qgnn" else 30
    monkeypatch.setattr(ch, "BLOCK_BYTES", rows * model._item_bytes(2) // 2)
    flat = rng.uniform(-1.0, 1.0, model.param_count())
    seeds = mix64(case, np.arange(len(insts)))

    powers, want_losses, want_grads = _per_block_reference(model, insts, flat, seeds)
    got = model.forward_batch(insts, flat, seeds)
    assert all(np.array_equal(a, b) for a, b in zip(got, powers))
    losses, grads = model.loss_and_grad_batch(insts, flat, seeds)
    assert np.array_equal(losses, want_losses) and np.array_equal(grads, want_grads)

    # powers and gradients equal single-instance calls bit for bit
    for i, inst in enumerate(insts):
        assert np.array_equal(model.forward(inst.channels, inst.graph, flat, seeds[i]), powers[i])
        assert np.array_equal(model.loss_and_grad_batch([inst], flat, seeds[i:i + 1])[1][0],
                              grads[i])

    split = trainer_mod.Split(insts)  # a shuffled minibatch is a row selection of the split
    for size in (1, 7, len(insts)):
        members = rng.permutation(len(insts))[:size]
        _, want_losses, want_grads = _per_block_reference(model, [insts[i] for i in members],
                                                          flat, seeds[members])
        losses, grads = model._loss_and_grad(split, flat, seeds[members], members)
        assert np.array_equal(losses, want_losses) and np.array_equal(grads, want_grads)

    # the frozen evaluation stars, drawn once for the split, are each block's own draws
    frozen = SeedConfig(stars=case)
    powers = model.forward_batch(insts, flat, eval_star_seed(frozen, np.arange(len(insts))))
    total = 0.0
    for inst, p in zip(insts, powers):
        total += ch.sum_rate(inst.channels, p)
    assert evaluate_mean(model, flat, insts, frozen) == total / len(insts)


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_block_gives_each_instance_its_single_instance_bits(arch, data):
    # every kernel product runs per graph or in products of one fixed shape,
    # so a graph's powers, loss and gradient keep their bits in any block:
    # from one graph a block (budget 0) to the whole list, in list order or
    # as a shuffled minibatch of a split
    size = data.draw(st.integers(1, 6), label="size")
    sizes = [size] * data.draw(st.integers(1, 10), label="count")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    insts = [_instances(m, 1, seed0=seed % 10_000 + 10 * i)[0] for i, m in enumerate(sizes)]
    model = QgnnModel(layers=2, depth=1, k=2) if arch == "qgnn" else GcnModel(hidden=16, layers=2)
    flat = rng.uniform(-1.0, 1.0, model.param_count())
    seeds = mix64(seed, np.arange(len(insts)))
    alone = [(model.forward(inst.channels, inst.graph, flat, s),
              model.loss_and_grad_batch([inst], flat, [s])) for inst, s in zip(insts, seeds)]

    budget = data.draw(st.integers(0, len(insts) * max(map(model._item_bytes, sizes))),
                       label="budget")
    members = rng.permutation(len(insts))[:data.draw(st.integers(1, len(insts)))]
    with mock.patch.object(ch, "BLOCK_BYTES", budget):
        powers = model.forward_batch(insts, flat, seeds)
        losses, grads = model.loss_and_grad_batch(insts, flat, seeds)
        m_losses, m_grads = model._loss_and_grad(trainer_mod.Split(insts), flat,
                                                 seeds[members], members)
    for i, (p, ((loss,), (grad,))) in enumerate(alone):
        assert np.array_equal(powers[i], p)
        assert losses[i] == loss and np.array_equal(grads[i], grad)
    for j, i in enumerate(members):
        assert m_losses[j] == alone[i][1][0][0] and np.array_equal(m_grads[j], alone[i][1][1][0])


@pytest.fixture(scope="module")
def desk_sets():
    """Instances of the desk split sizes at M=4: 300 training, 100 test."""
    return _instances(4, 300, seed0=3000), _instances(4, 100, seed0=5000, prefix="test")


@pytest.mark.parametrize("model", [QgnnModel(), GcnModel()], ids=["qgnn", "gcn"])
def test_desk_powers_equal_single_instance_calls_bit_for_bit(desk_sets, model):
    insts = desk_sets[0]
    flat = np.random.default_rng(7).uniform(-1.0, 1.0, model.param_count())
    seeds = mix64(7, np.arange(len(insts)))
    for inst, seed, p in zip(insts, seeds, model.forward_batch(insts, flat, seeds)):
        assert np.array_equal(model.forward(inst.channels, inst.graph, flat, seed), p)


def _counts(monkeypatch, targets, run):
    """Calls of each target, {key: (owner, attribute)}, during run(1) and
    run(2): a 1-epoch and a 2-epoch training call."""
    counts = {}
    for key, (owner, name) in targets.items():
        def counting(*args, _key=key, _real=getattr(owner, name), **kwargs):
            counts[_key] = counts.get(_key, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    seen = []
    for epochs in (1, 2):
        counts.clear()
        run(epochs)
        seen.append({key: counts.get(key, 0) for key in targets})
    return seen


def test_a_desk_qgnn_epoch_draws_no_evaluation_stars_and_rebuilds_no_state(
        monkeypatch, desk_sets):
    targets = {"decompose_stars": (qgnn_mod, "decompose_stars"),
               "_product_state": (qgnn_mod, "_product_state"),
               "messages": (qgnn_mod._Kernel, "messages")}
    one, two = _counts(monkeypatch, targets, lambda epochs: train(
        QgnnModel(), *desk_sets, TrainConfig(epochs=epochs)))
    epoch = {name: two[name] - one[name] for name in one}
    train_blocks, test_blocks = (len(list(ch.row_blocks(len(insts), QgnnModel()._item_bytes(4))))
                                 for insts in desk_sets)
    # 2 layers x the training blocks (one full batch); the evaluation stars,
    # 2 layers for each of the two splits, are drawn once per train call
    assert epoch["decompose_stars"] == 2 * train_blocks
    assert one["decompose_stars"] == 2 * train_blocks + 2 * 2
    # every product state is a forward's: the backward reads the kept ones
    assert epoch["_product_state"] == epoch["messages"] == \
        2 * train_blocks + 2 * (train_blocks + test_blocks)


def test_a_gcn_epoch_stacks_nothing_and_derives_no_star_seeds(monkeypatch, desk_sets):
    targets = {"ChannelBatch.stack": (ch.ChannelBatch, "stack"), "np.stack": (np, "stack"),
               "train_star_seed": (trainer_mod, "train_star_seed"),
               "eval_star_seed": (trainer_mod, "eval_star_seed")}
    one, two = _counts(monkeypatch, targets, lambda epochs: train(
        GcnModel(), *desk_sets, TrainConfig(epochs=epochs)))
    for key in ("ChannelBatch.stack", "np.stack"):  # only the splits' own stacks, before epoch 1
        assert two[key] == one[key] > 0
    for key in ("train_star_seed", "eval_star_seed"):
        assert one[key] == two[key] == 0


def _stack_and_rows(m, count, seed0, prefix, scaler=None):
    """The realizations _instances draws, as one stack Instance whose row i
    is prefix/i, and as the list of row Instances labelled alike. The scaler
    is fitted on the stack unless one is given."""
    drawn = [ch.realize_channels(ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed0 + i),
                                 seed=seed0 + 1000 + i) for i in range(count)]
    stack = ch.ChannelBatch.from_gains(np.reshape(drawn, (count, m, m)), ch.DEFAULT_NOISE_POWER,
                                       ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
    scaler = scaler or fit_feature_scaler(stack)
    rows = [Instance(f"{prefix}/{i}", c, build_graph(c, scaler)) for i, c in enumerate(stack)]
    return [Instance(prefix, stack, build_graph(stack, scaler))], rows, scaler


def _split_pair(m=3, train_count=8, test_count=4, seed0=2000):
    """A training and a test split, each as one stack and as rows, on the
    training split's scaler."""
    tr_stack, tr_rows, scaler = _stack_and_rows(m, train_count, seed0, "train")
    te_stack, te_rows, _ = _stack_and_rows(m, test_count, seed0 + 500, "test", scaler)
    return (tr_stack, te_stack), (tr_rows, te_rows)


_MODELS = {"qgnn": lambda: QgnnModel(layers=2, depth=1, k=2),
           "gcn": lambda: GcnModel(hidden=4, layers=2)}


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
@pytest.mark.parametrize("batch", [300, 3])
def test_one_stack_per_split_trains_as_the_row_lists(arch, batch):
    stacks, rows = _split_pair()
    cfg = TrainConfig(epochs=3, lr=0.05, batch=batch)
    by_stack = train(_MODELS[arch](), *stacks, cfg)
    by_rows = train(_MODELS[arch](), *rows, cfg)
    assert by_stack.to_csv().encode() == by_rows.to_csv().encode()
    assert by_stack.final_params.tobytes() == by_rows.final_params.tobytes()


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
def test_one_stack_evaluates_to_the_row_list_mean(arch):
    (_, te_stack), (_, te_rows) = _split_pair(test_count=9)
    model = _MODELS[arch]()
    flat = model.init_params(np.random.default_rng(4))
    seeds = SeedConfig(stars=11)
    assert evaluate_mean(model, flat, te_stack, seeds) == evaluate_mean(model, flat, te_rows, seeds)
    # a stack split is the caller's arrays, with no copy
    split = trainer_mod.Split(te_stack)
    assert split.channels is te_stack[0].channels and split.graph is te_stack[0].graph


@pytest.mark.parametrize("batch", [300, 2])
def test_a_stack_names_the_row_whose_loss_is_non_finite(batch):
    stacks, rows = _split_pair()
    errors = []
    for sets in (stacks, rows):
        with pytest.raises(NonFiniteLossError) as err:
            train(_NanModel(), *sets, TrainConfig(epochs=2, batch=batch))
        errors.append(err.value)
    assert errors[0].instance.startswith("train/")
    assert str(errors[0]) == str(errors[1]) and errors[0].instance == errors[1].instance
    if batch == 300:
        assert errors[0].instance == "train/0"


def test_a_stack_names_the_row_whose_power_is_non_finite():
    # blocks of two: the second block, rows 2 and 3, scores NaN
    (_, te_stack), (_, te_rows) = _split_pair(test_count=6)
    for sets in (te_stack, te_rows):
        with pytest.raises(NonFinitePowerError, match=r"\[nan, nan, nan\] for instance test/2$"):
            evaluate_mean(_NanModel(nan_calls=(1,)), np.zeros(2), sets, SeedConfig())


@pytest.mark.parametrize("entry", ["Split", "forward_batch", "evaluate_mean", "train"])
@pytest.mark.parametrize("mix", ["stack_first", "row_first", "two_stacks"])
def test_a_list_that_holds_a_stack_among_others_is_refused(entry, mix):
    (stack, _), (rows, _) = _split_pair()
    insts = {"stack_first": stack + rows[:1], "row_first": rows[:2] + stack,
             "two_stacks": stack + stack}[mix]
    model = GcnModel(hidden=4, layers=1)
    flat = model.init_params(np.random.default_rng(0))
    run = {
        "Split": lambda: trainer_mod.Split(insts),
        "forward_batch": lambda: model.forward_batch(insts, flat, np.arange(16)),
        "evaluate_mean": lambda: evaluate_mean(model, flat, insts, SeedConfig()),
        "train": lambda: train(model, insts, rows[:1], TrainConfig(epochs=1)),
    }[entry]
    with pytest.raises(ValueError, match=r"^a split holds one stack or a list of single "
                                         r"realizations$"):
        run()


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
def test_a_test_stack_of_no_rows_gives_nan(arch):
    (tr_stack, _), _ = _split_pair()
    empty, _, _ = _stack_and_rows(3, 0, 0, "test", fit_feature_scaler(tr_stack[0].channels))
    model = _MODELS[arch]()
    flat = model.init_params(np.random.default_rng(0))
    assert np.isnan(evaluate_mean(model, flat, empty, SeedConfig()))
    cfg = TrainConfig(epochs=2)
    report = train(_MODELS[arch](), tr_stack, empty, cfg)
    assert np.isnan(report.baseline_test_mean) and np.isnan(report.wmmse_test_mean)
    assert np.isnan(report.test_curve).all()
    assert report.to_csv() == train(_MODELS[arch](), tr_stack, [], cfg).to_csv()
