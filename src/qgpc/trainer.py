"""Unsupervised training loop shared by the quantum and classical models.

The loss for one realization is the negative weighted sum rate of the
decoded powers; no solver output is ever used as a label. WMMSE enters only
as an evaluation baseline on the test split. All randomness flows from three
named seeds (data, init, stars) through deterministic mixing, so identical
configurations reproduce identical reports. Both models run one batch path,
BatchModel, which computes that loss and its gradient at the powers, on
blocks cut from a Split (instances grouped by size and stacked once). train
builds one per data split, frozen evaluation stars included, and evaluates
both with one prepare an epoch; a list entry point builds one per call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelBatch, sigmoid, size_blocks, sum_rate, weighted_sum_rate_grad,
)
from .graph import InterferenceGraph, mix64
# wmmse_allocate is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .wmmse import wmmse_allocate, wmmse_batch  # noqa: F401

_EVAL_STREAM_TAG = 0x45564C  # distinguishes frozen evaluation star draws
_ORDER_STREAM_TAG = 0x4F5244  # distinguishes minibatch shuffling draws
# Adam's moment decay rates and denominator floor (Kingma & Ba, ICLR 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss, or a finite loss (value) whose
    gradient is not finite."""

    def __init__(self, epoch: int, step: int, instance: str, value: float):
        what = f"gradient of the loss {value!r}" if math.isfinite(value) else f"loss {value!r}"
        super().__init__(
            f"non-finite {what} at epoch {epoch}, step {step}, instance {instance}"
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
    channels: ChannelBatch  # one realization
    graph: InterferenceGraph


class _SizeGroup(NamedTuple):
    """The instances of one size N in a Split, in list order."""

    features: np.ndarray      # (B, N, F) node features
    edge: np.ndarray          # (B, N, N) edge angles
    channels: ChannelBatch
    stars: list[np.ndarray]   # frozen evaluation stars: (B, N, s) leaves per layer


class Split:
    """Instances grouped by size and stacked; given seeds, a star-drawing
    model's frozen evaluation stars too, one _stars call per size."""

    def __init__(self, instances: list[Instance], model: BatchModel | None = None,
                 seeds: SeedConfig | None = None):
        self.labels = [inst.label for inst in instances]
        self.sizes = np.array([inst.graph.N for inst in instances], dtype=int)
        self.row = np.empty(len(instances), dtype=int)  # each instance's row in its group
        self.groups: dict[int, _SizeGroup] = {}
        for n in np.unique(self.sizes).tolist():
            positions = np.flatnonzero(self.sizes == n)
            self.row[positions] = np.arange(positions.size)
            members = [instances[i] for i in positions]
            self.groups[n] = _SizeGroup(
                np.stack([inst.graph.node_features for inst in members]),
                np.stack([inst.graph.edge_angle for inst in members]),
                ChannelBatch.stack([inst.channels for inst in members]),
                model._stars(n, eval_star_seed(seeds, positions))
                if seeds is not None and model.draws_stars else [])

    def select(self, positions: np.ndarray) -> tuple[_SizeGroup, slice | np.ndarray]:
        """The group of same-size instances at positions, and their rows in
        it: a slice where the rows run consecutively, so a block is views."""
        rows = self.row[positions]
        if np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
            rows = slice(int(rows[0]), int(rows[0]) + rows.size)
        return self.groups[int(self.sizes[positions[0]])], rows


class BatchModel:
    """The batch path both models share. It owns the flat parameter layout,
    the blocks cut from a Split and the power decode p = p_max * sigmoid(z).
    A model declares its arrays' shapes (``_shapes``, in flat order) and
    runs its layers on arrays: ``_forward(features (B, N, F), edge (B, N,
    N), prepared, stars)`` gives the (B, N) scores z and a tape, and
    ``_backward(tape, prepared, dloss/dz)`` one (B, *shape) gradient per
    shape. A model that draws stars sets ``draws_stars`` and ``_stars``
    (each layer's leaves from (B,) uint64 seeds). Results keep input order."""

    name: str
    draws_stars = False

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self._shapes())

    def unflatten(self, flat) -> list[np.ndarray]:
        """Read-only views of flat, one array per ``_shapes`` entry."""
        flat = np.asarray(flat, dtype=float).view()
        flat.flags.writeable = False  # and so is every view split from it
        shapes = self._shapes()
        sizes = [math.prod(shape) for shape in shapes]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} parameters, got shape {flat.shape}")
        return [part.reshape(shape)
                for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=self.param_count())

    def _stars(self, n: int, star_seeds: np.ndarray) -> list[np.ndarray]:
        return []

    def _blocks(self, split: Split, prepared, star_seeds, members=None):
        """(idx, ChannelBatch, p, (tape, dp/dz)) of each size_blocks block of
        the split's instances at positions ``members`` (all, in list order,
        by default): idx indexes members, p is the block's (B, N) decoded
        powers. A block draws its stars from star_seeds[idx], or, when
        star_seeds is None, takes the split's frozen ones."""
        members = np.arange(len(split.labels)) if members is None else members
        for idx in size_blocks(split.sizes[members], self._item_bytes):
            group, rows = split.select(members[idx])
            stars = ([leaves[rows] for leaves in group.stars] if star_seeds is None
                     else self._stars(group.features.shape[1], star_seeds[idx]))
            channels = group.channels[rows]
            z, tape = self._forward(group.features[rows], group.edge[rows], prepared, stars)
            sig = sigmoid(z)
            p = channels.p_max[:, None] * sig
            yield idx, channels, p, (tape, p * (1.0 - sig))

    def forward(self, channels: ChannelBatch, graph: InterferenceGraph,
                flat_params, star_seed) -> np.ndarray:
        """Powers of one instance: the batch path at B = 1."""
        return self.forward_batch([Instance("", channels, graph)], flat_params, [star_seed])[0]

    def forward_batch(self, instances: list[Instance], flat_params,
                      star_seeds) -> list[np.ndarray]:
        """Power vector of each instance, drawing its stars from its seed."""
        powers: list[np.ndarray] = [None] * len(instances)
        for idx, _, p, _ in self._blocks(Split(instances), self._prepare(flat_params, grad=False),
                                         np.asarray(star_seeds, dtype=np.uint64)):
            for i, row in zip(idx, p):
                powers[i] = row
        return powers

    def loss_and_grad_batch(self, instances: list[Instance], flat_params,
                            star_seeds) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance losses (B,), the negative weighted sum rates, and
        their gradients (B, P)."""
        return self._loss_and_grad(Split(instances), flat_params,
                                   np.asarray(star_seeds, dtype=np.uint64),
                                   np.arange(len(instances)))

    def _loss_and_grad(self, split: Split, flat_params, star_seeds, members):
        """loss_and_grad_batch of the split's instances at ``members``."""
        prepared = self._prepare(flat_params, grad=True)
        losses = np.empty(len(members))
        grads = np.empty((len(members), self.param_count()))
        for idx, channels, p, (tape, dp_dz) in self._blocks(split, prepared, star_seeds,
                                                             members):
            losses[idx] = -sum_rate(channels, p)
            dloss_dz = -weighted_sum_rate_grad(channels, p) * dp_dz
            grads[idx] = np.concatenate([g.reshape(len(idx), -1) for g in
                                         self._backward(tape, prepared, dloss_dz)], axis=1)
        return losses, grads


@dataclass(eq=False)
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(params, grad, state: AdamState, t: int, cfg: TrainConfig,
              ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update at cfg's lr and the module's ADAM_*; t
    is the 1-based step count. Pure: inputs are left untouched and fresh
    arrays are returned."""
    if t < 1:
        raise ValueError("step count t must be >= 1")
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad ** 2
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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


def eval_star_seed(seeds: SeedConfig, instance_index) -> np.ndarray:
    """Frozen star seed(s) of the instance index (or index array) used
    whenever a model is evaluated (not trained), from the sampler's hash."""
    return mix64(seeds.stars, _EVAL_STREAM_TAG, instance_index)


def train_star_seed(seeds: SeedConfig, epoch: int, instance_index) -> np.ndarray:
    """Fresh star seed(s) per epoch and instance index (or index array) for
    training steps, from the sampler's hash."""
    return mix64(seeds.stars, epoch, instance_index)


def evaluate_mean(model: BatchModel, flat_params, instances: list[Instance],
                  seeds: SeedConfig) -> float:
    """Mean objective over instances with frozen evaluation star seeds."""
    return _split_mean(model, model._prepare(flat_params, grad=False),
                       Split(instances, model, seeds))


def _split_mean(model: BatchModel, prepared, split: Split) -> float:
    """evaluate_mean on a split with frozen stars and prepared parameters."""
    if not split.labels:
        return float("nan")
    rates = np.empty(len(split.labels))
    bad = {}  # position -> powers, for each instance with a non-finite power
    # an overflow shows up below as a non-finite power, so it does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, channels, p, _ in model._blocks(split, prepared, None):
            finite = np.all(np.isfinite(p), axis=1)
            bad.update(zip(idx[~finite].tolist(), p[~finite]))
            rates[idx] = sum_rate(channels, p)
    if bad:
        first = min(bad)  # the first in input order
        raise NonFinitePowerError(
            f"non-finite power {bad[first].tolist()} for instance {split.labels[first]}")
    total = 0.0
    for rate in rates:  # sequential in input order, so the printed means keep their bits
        total += float(rate)
    return total / len(split.labels)


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
    state = AdamState.zeros(params.size)

    baseline_wmmse = wmmse_mean(test_set)
    splits = [Split(train_set, model, cfg.seeds), Split(test_set, model, cfg.seeds)]

    def means():  # one prepare for both splits
        prepared = model._prepare(params, grad=False)
        return [_split_mean(model, prepared, split) for split in splits]

    baseline_train, baseline_test = means()

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
            star_seeds = train_star_seed(cfg.seeds, epoch, members) if model.draws_stars else None
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                losses, grads = model._loss_and_grad(splits[0], params, star_seeds, members)
            finite = np.isfinite(losses) & np.all(np.isfinite(grads), axis=1)
            if not finite.all():
                bad = int(np.argmin(finite))  # the first in member order
                raise NonFiniteLossError(epoch, step, train_set[members[bad]].label,
                                         float(losses[bad]))
            grad_sum = np.zeros_like(params)
            for grad in grads:  # sequential in member order, so the sum keeps its bits
                grad_sum += grad
            t += 1
            params, state = adam_step(params, grad_sum / len(members), state, t, cfg)
        train_curve[epoch - 1], test_curve[epoch - 1] = means()
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
