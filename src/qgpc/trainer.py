"""Unsupervised training loop shared by the quantum and classical models.

The loss for one realization is the negative weighted sum rate of the
decoded powers; no solver output is ever used as a label. WMMSE enters only
as an evaluation baseline on the test split. All randomness flows from three
named seeds (data, init, stars) through deterministic mixing, so identical
configurations reproduce identical reports. Both models run one batch path,
BatchModel, which computes that loss and its gradient at the powers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    ChannelBatch, ChannelRealization, stack_by_size, sum_rate, weighted_sum_rate_grad,
)
from .graph import InterferenceGraph
# wmmse_allocate is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .wmmse import wmmse_allocate, wmmse_batch  # noqa: F401

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


class Instance(NamedTuple):
    """One realization paired with its graph view."""

    label: str
    channels: ChannelRealization
    graph: InterferenceGraph


def size_blocks(sizes, rows: Callable[[int], int], budget: int):
    """Index arrays of same-size graphs, smallest size first, each holding at
    most ``budget`` rows of ``rows(n)`` per n-node graph (one graph when a
    single graph has more)."""
    sizes = np.asarray(sizes)
    for n in np.unique(sizes):
        members = np.flatnonzero(sizes == n)
        per_graph = rows(int(n))
        # a graph without rows runs alone, as in a single-graph call: numpy
        # sends a one-row product to gemv, which rounds otherwise than gemm
        step = max(1, budget // per_graph) if per_graph else 1
        for lo in range(0, members.size, step):
            yield members[lo:lo + step]


class BatchModel:
    """The batch path both models share: a call prepares the parameters
    once and runs each size_blocks block through the model's same-size
    ``_forward`` (a tape holding the (B, N) powers ``p``) and ``_backward``
    (the (B, P) gradients from dloss/dp); results come in input order."""

    name: str

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=self.param_count())

    def _tapes(self, instances: list[Instance], prepared, star_seeds: list[int]):
        """The indices and the forward tape of each block of same-size graphs."""
        sizes = [inst.graph.N for inst in instances]
        for idx in size_blocks(sizes, self._rows, self._row_budget()):
            yield idx, self._forward([instances[i].graph for i in idx], prepared,
                                     [star_seeds[i] for i in idx])

    def forward(self, channels: ChannelRealization, graph: InterferenceGraph,
                flat_params, star_seed: int) -> np.ndarray:
        """Powers of one instance: the batch path at B = 1."""
        return self.forward_batch([Instance("", channels, graph)], flat_params, [star_seed])[0]

    def forward_batch(self, instances: list[Instance], flat_params,
                      star_seeds: list[int]) -> list[np.ndarray]:
        """Power vector of each instance, drawing its stars from its seed."""
        powers: list[np.ndarray] = [None] * len(instances)
        for idx, tape in self._tapes(instances, self._prepare(flat_params, grad=False),
                                     star_seeds):
            for i, p in zip(idx, tape.p):
                powers[i] = p
        return powers

    def loss_and_grad_batch(self, instances: list[Instance], flat_params,
                            star_seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance losses (B,), the negative weighted sum rates, and
        their gradients (B, P)."""
        prepared = self._prepare(flat_params, grad=True)
        losses = np.empty(len(instances))
        grads = np.empty((len(instances), self.param_count()))
        for idx, tape in self._tapes(instances, prepared, star_seeds):
            channels = ChannelBatch.stack([instances[i].channels for i in idx])
            losses[idx] = -sum_rate(channels, tape.p)
            grads[idx] = self._backward(tape, prepared, -weighted_sum_rate_grad(channels, tape.p))
        return losses, grads


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


def evaluate_mean(model: BatchModel, flat_params, instances: list[Instance],
                  seeds: SeedConfig) -> float:
    """Mean objective over instances with frozen evaluation star seeds."""
    if not instances:
        return float("nan")
    # an overflow shows up below as a non-finite power, so it does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        powers = model.forward_batch(
            instances, flat_params, [eval_star_seed(seeds, idx) for idx in range(len(instances))])
    for inst, p in zip(instances, powers):
        if not np.all(np.isfinite(p)):
            raise NonFinitePowerError(f"non-finite power {p.tolist()} for instance {inst.label}")
    rates = np.empty(len(instances))
    for idx, channels in stack_by_size([inst.channels for inst in instances]):
        rates[idx] = sum_rate(channels, np.stack([powers[i] for i in idx]))
    total = 0.0
    for rate in rates:  # sequential in input order, so the printed means keep their bits
        total += float(rate)
    return total / len(instances)


def wmmse_mean(instances: list[Instance]) -> float:
    """Mean WMMSE objective, the evaluation baseline."""
    if not instances:
        return float("nan")
    results = wmmse_batch([inst.channels for inst in instances])
    return float(np.mean([res.objective for res in results]))


def train(model: BatchModel, train_set: list[Instance], test_set: list[Instance],
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
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
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
