"""Unsupervised training loop shared by the quantum and classical models.

The loss for one realization is the negative weighted sum rate of the
decoded powers; no solver output is ever used as a label. WMMSE enters only
as an evaluation baseline on the test split. All randomness flows from three
named seeds (data, init, stars) through deterministic mixing, so identical
configurations reproduce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from .channels import ChannelRealization, sum_rate
from .graph import InterferenceGraph
from .wmmse import wmmse_allocate

_EVAL_STREAM_TAG = 0x45564C  # distinguishes frozen evaluation star draws
_ORDER_STREAM_TAG = 0x4F5244  # distinguishes minibatch shuffling draws


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss."""

    def __init__(self, epoch: int, step: int, instance: str, value: float):
        super().__init__(
            f"non-finite loss {value!r} at epoch {epoch}, step {step}, instance {instance}"
        )
        self.epoch = epoch
        self.step = step
        self.instance = instance
        self.value = value


class NonFinitePowerError(RuntimeError):
    """Evaluation aborted on a non-finite decoded power."""


def mix_seed(*parts: int) -> int:
    """Deterministically combine integers into one RNG seed."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)
    return int(state[0])


class PowerModel(Protocol):
    name: str

    def param_count(self) -> int: ...

    def init_params(self, rng: np.random.Generator) -> np.ndarray: ...

    def forward_batch(self, instances: list[Instance], flat_params,
                      star_seeds: list[int]) -> list[np.ndarray]:
        """Power vector of each instance, drawing its stars from its seed."""

    def loss_and_grad_batch(self, instances: list[Instance], flat_params,
                            star_seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance losses (B,), the negative weighted sum rates, and
        their gradients (B, P)."""


class Instance(NamedTuple):
    """One realization paired with its graph view."""

    label: str
    channels: ChannelRealization
    graph: InterferenceGraph


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 5e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(eq=False)
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(params, grad, state: AdamState, t: int, cfg: AdamConfig,
              ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; t is the 1-based step count. Pure:
    inputs are left untouched and fresh arrays are returned."""
    if t < 1:
        raise ValueError("step count t must be >= 1")
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad ** 2
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return new_params, AdamState(m=m, v=v)


@dataclass(frozen=True)
class SeedConfig:
    data: int = 1
    init: int = 2
    stars: int = 3


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 5e-2
    batch: int = 300          # instances per step; >= train size means full batch
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seeds: SeedConfig = field(default_factory=SeedConfig)


@dataclass(eq=False)
class TrainReport:
    model: str
    epochs: int
    baseline_train_mean: float
    baseline_test_mean: float
    train_curve: np.ndarray    # (epochs,) mean bps/Hz on the train split
    test_curve: np.ndarray     # (epochs,) mean bps/Hz on the test split
    wmmse_test_mean: float
    seconds: np.ndarray        # (epochs,) wall-clock, excluded from the CSV
    final_params: np.ndarray

    def to_csv(self) -> str:
        """Deterministic per-epoch table. Epoch 0 is the untrained baseline.
        Wall-clock timing varies run to run, so it stays out of this file."""
        lines = ["epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz"]
        w = _fmt(self.wmmse_test_mean)
        lines.append(f"0,{_fmt(self.baseline_train_mean)},{_fmt(self.baseline_test_mean)},{w}")
        for e in range(self.epochs):
            lines.append(
                f"{e + 1},{_fmt(self.train_curve[e])},{_fmt(self.test_curve[e])},{w}"
            )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def eval_star_seed(seeds: SeedConfig, instance_index: int) -> int:
    """Frozen star draw used whenever a model is evaluated (not trained)."""
    return mix_seed(seeds.stars, _EVAL_STREAM_TAG, instance_index)


def train_star_seed(seeds: SeedConfig, epoch: int, instance_index: int) -> int:
    """Fresh star draw per epoch and instance for training steps."""
    return mix_seed(seeds.stars, epoch, instance_index)


def evaluate_mean(model: PowerModel, flat_params, instances: list[Instance],
                  seeds: SeedConfig) -> float:
    """Mean objective over instances with frozen evaluation star seeds."""
    if not instances:
        return float("nan")
    powers = model.forward_batch(instances, flat_params,
                                 [eval_star_seed(seeds, idx) for idx in range(len(instances))])
    total = 0.0
    for inst, p in zip(instances, powers):
        if not np.all(np.isfinite(p)):
            raise NonFinitePowerError(f"non-finite power {p.tolist()} for instance {inst.label}")
        total += sum_rate(inst.channels, p)
    return total / len(instances)


def wmmse_mean(instances: list[Instance]) -> float:
    """Mean WMMSE objective, the evaluation baseline."""
    if not instances:
        return float("nan")
    return float(np.mean([wmmse_allocate(inst.channels).objective for inst in instances]))


def train(model: PowerModel, train_set: list[Instance], test_set: list[Instance],
          cfg: TrainConfig) -> TrainReport:
    """Adam on the mean per-batch gradient. One step per batch; the batch
    size caps at the training-set size (full-batch default)."""
    if not train_set:
        raise ValueError("training set is empty")
    if cfg.epochs < 0:
        raise ValueError("epochs must be >= 0")
    if cfg.batch < 1:
        raise ValueError("batch must be >= 1")

    rng_init = np.random.default_rng(mix_seed(cfg.seeds.init))
    params = model.init_params(rng_init)
    adam_cfg = AdamConfig(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    state = AdamState.zeros(params.size)

    baseline_wmmse = wmmse_mean(test_set)
    baseline_train = evaluate_mean(model, params, train_set, cfg.seeds)
    baseline_test = evaluate_mean(model, params, test_set, cfg.seeds)

    n_train = len(train_set)
    batch = min(cfg.batch, n_train)
    train_curve = np.zeros(cfg.epochs)
    test_curve = np.zeros(cfg.epochs)
    seconds = np.zeros(cfg.epochs)
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        if batch < n_train:
            order = np.random.default_rng(
                mix_seed(cfg.seeds.data, _ORDER_STREAM_TAG, epoch)
            ).permutation(n_train)
        else:
            order = np.arange(n_train)
        for step, start in enumerate(range(0, n_train, batch)):
            members = order[start:start + batch]
            losses, grads = model.loss_and_grad_batch(
                [train_set[idx] for idx in members], params,
                [train_star_seed(cfg.seeds, epoch, int(idx)) for idx in members],
            )
            grad_sum = np.zeros_like(params)
            for idx, loss, grad in zip(members, losses, grads):
                if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                    raise NonFiniteLossError(epoch, step, train_set[idx].label, float(loss))
                grad_sum += grad
            t += 1
            params, state = adam_step(params, grad_sum / len(members), state, t, adam_cfg)
        train_curve[epoch - 1] = evaluate_mean(model, params, train_set, cfg.seeds)
        test_curve[epoch - 1] = evaluate_mean(model, params, test_set, cfg.seeds)
        seconds[epoch - 1] = time.perf_counter() - started

    return TrainReport(
        model=model.name,
        epochs=cfg.epochs,
        baseline_train_mean=baseline_train,
        baseline_test_mean=baseline_test,
        train_curve=train_curve,
        test_curve=test_curve,
        wmmse_test_mean=baseline_wmmse,
        seconds=seconds,
        final_params=params,
    )
