"""Optimizer, seed plumbing, and the unsupervised training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgpc.qgnn as qgnn_mod
import qgpc.qsim as qsim_mod
import qgpc.trainer as trainer_mod
from qgpc import channels as ch
from qgpc.gcn import GcnModel
from qgpc.graph import build_graph, fit_feature_scaler
from qgpc.qgnn import QgnnModel
from qgpc.trainer import (
    AdamConfig, AdamState, Instance, NonFiniteLossError, SeedConfig, TrainConfig,
    TrainReport, adam_step, eval_star_seed, evaluate_mean, mix_seed, size_blocks, train,
    train_star_seed, wmmse_mean,
)


def _instances(m, count, seed0, prefix="train"):
    """Realizations sharing one feature scaler, as the trainer consumes them."""
    insts = []
    for i in range(count):
        sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed0 + i)
        insts.append(ch.realize_channels(sc, seed=seed0 + 1000 + i))
    scaler = fit_feature_scaler(insts)
    return [
        Instance(f"{prefix}-{i}", inst, build_graph(inst, scaler))
        for i, inst in enumerate(insts)
    ]


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([0.3, -1.2, 4.0])
    new, state = adam_step(params, np.zeros(3), AdamState.zeros(3), t=1, cfg=AdamConfig())
    assert np.array_equal(new, params)
    assert np.array_equal(state.m, np.zeros(3))


def test_adam_first_step_has_learning_rate_magnitude():
    cfg = AdamConfig(lr=0.05)
    grad = np.array([3.0, -0.7, 1e-3])
    new, _ = adam_step(np.zeros(3), grad, AdamState.zeros(3), t=1, cfg=cfg)
    # bias correction makes the first update lr * g / (|g| + eps)
    assert np.allclose(np.abs(new), cfg.lr, rtol=1e-4)
    assert np.all(np.sign(new) == -np.sign(grad))


def test_adam_is_pure():
    params = np.array([1.0, 2.0])
    grad = np.array([0.5, -0.5])
    state = AdamState(m=np.array([0.1, 0.1]), v=np.array([0.2, 0.2]))
    new, new_state = adam_step(params, grad, state, t=3, cfg=AdamConfig())
    assert np.array_equal(params, [1.0, 2.0])
    assert np.array_equal(state.m, [0.1, 0.1]) and np.array_equal(state.v, [0.2, 0.2])
    assert new is not params and new_state.m is not state.m
    with pytest.raises(ValueError):
        adam_step(params, grad, state, t=0, cfg=AdamConfig())


def test_adam_matches_hand_computed_second_step():
    cfg = AdamConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
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


def test_star_seed_streams_are_distinct():
    seeds = SeedConfig(data=1, init=2, stars=3)
    ev = {eval_star_seed(seeds, i) for i in range(20)}
    tr = {train_star_seed(seeds, e, i) for e in range(3) for i in range(20)}
    assert len(ev) == 20 and len(tr) == 60
    assert not ev & tr


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
    # training runs on the closed-form kernel, never on the gate-level simulator
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


class _NanModel:
    name = "nan"

    def param_count(self):
        return 2

    def init_params(self, rng):
        return np.zeros(2)

    def forward_batch(self, instances, flat_params, star_seeds):
        return [np.full(inst.channels.M, 0.5) for inst in instances]

    def loss_and_grad_batch(self, instances, flat_params, star_seeds):
        return np.full(len(instances), np.nan), np.zeros((len(instances), 2))


def test_train_aborts_on_non_finite_loss_with_context():
    insts = _instances(2, 3, seed0=150)
    with pytest.raises(NonFiniteLossError) as err:
        train(_NanModel(), insts, insts[:1], TrainConfig(epochs=2))
    assert err.value.epoch == 1
    assert err.value.step == 0
    assert err.value.instance == "train-0"
    assert np.isnan(err.value.value)


def test_solver_is_never_consulted_during_training(monkeypatch):
    # WMMSE may only see each test instance once, for the baseline column
    calls = []
    real = trainer_mod.wmmse_batch

    def counting(realizations, *a, **kw):
        calls.append(list(realizations))
        return real(realizations, *a, **kw)

    monkeypatch.setattr(trainer_mod, "wmmse_batch", counting)
    tr = _instances(3, 5, seed0=160)
    te = _instances(3, 3, seed0=170, prefix="test")
    train(GcnModel(hidden=4, layers=1), tr, te, TrainConfig(epochs=3))
    seen = [c for call in calls for c in call]
    assert len(seen) == len(te)
    assert all(c is inst.channels for c, inst in zip(seen, te))
    assert not any(c is inst.channels for c in seen for inst in tr)


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
@given(sizes=st.lists(st.integers(1, 9), max_size=40), budget=st.integers(0, 80),
       k=st.none() | st.integers(0, 4))
def test_size_blocks_partition_graphs_by_size_within_the_budget(sizes, budget, k):
    # k None: the GCN's N(N-1) edge rows; else the QGNN's N min(k, N-1) message rows
    def rows(n):
        return n * (n - 1) if k is None else n * min(k, n - 1)

    blocks = list(size_blocks(sizes, rows, budget))
    assert sorted(i for idx in blocks for i in idx) == list(range(len(sizes)))
    for idx in blocks:
        assert len({sizes[i] for i in idx}) == 1
        per_graph = rows(sizes[idx[0]])
        assert len(idx) == 1 or len(idx) * per_graph <= budget
        assert per_graph > 0 or len(idx) == 1  # a graph without rows runs alone
