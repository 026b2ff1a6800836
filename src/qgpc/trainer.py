"""Unsupervised training loop shared by the quantum and classical models.

The loss for one realization is the negative weighted sum rate of the
decoded powers; no solver output is ever used as a label. WMMSE enters only
as an evaluation baseline on the test split. All randomness flows from three
named seeds (data, init, stars) through deterministic mixing, so identical
configurations reproduce identical reports. Both models run one batch path,
BatchModel, which computes that loss and its gradient at the powers, on
blocks cut from a Split (instances of one size as one stack). train builds
one per data split, frozen evaluation stars included, and evaluates both
with one prepare an epoch; a list entry point builds one per call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelBatch, row_blocks, seed_state, sigmoid, sum_rate, weighted_sum_rate_grad,
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


def mix_seed(*parts):
    """Combine ints in [0, 2^64) into one RNG seed, the first uint64 of
    np.random.SeedSequence(parts).generate_state: one int. With an index
    array as the last part, one uint64 seed per index, hashed in one array
    pass (channels.seed_state) with the bits of the per-index calls."""
    state = seed_state(*parts)[..., 0]
    return int(state) if state.ndim == 0 else state


class Instance(NamedTuple):
    """One realization, or a stack whose row i is ``label/i``, with its graph."""

    label: str
    channels: ChannelBatch  # one realization, or a stack
    graph: InterferenceGraph


class Split:
    """Instances of one size N as one stack: a graph of (B, N, F) node
    features and (B, N, N) edge angles, and their channels; given seeds, a
    star-drawing model's frozen evaluation stars too, (B, N, s) leaves per
    layer from one _stars call. One stack Instance is used as it is, a list
    of realizations stacked once; two sizes, a stack among more, or link
    constants that differ (ChannelBatch.stack) are refused."""

    def __init__(self, instances: list[Instance], model: BatchModel | None = None,
                 seeds: SeedConfig | None = None):
        shapes = {inst.graph.edge_angle.shape for inst in instances}  # (N, N) or (B, N, N)
        sizes = sorted({shape[-1] for shape in shapes})
        if len(sizes) > 1:
            raise ValueError(f"a split holds instances of one size, got sizes {sizes}")
        if max(map(len, shapes), default=2) == 3:  # a stack, used as it is
            if len(instances) > 1:
                raise ValueError("a split holds one stack or a list of single realizations")
            self._labels, self.channels, self.graph = instances[0]
        else:
            self._labels = [inst.label for inst in instances]
            # an empty split has no rows, so no block reads its (0, 0, 0) stacks or
            # its link constants, which no realization gives
            empty = np.empty((0, 0, 0))
            self.graph = InterferenceGraph(*(
                np.stack([getattr(inst.graph, name) for inst in instances]) if instances
                else empty for name in ("node_features", "edge_angle")))
            self.channels = (ChannelBatch.stack([inst.channels for inst in instances]) if instances
                             else ChannelBatch(empty, empty, np.empty(0), np.empty(0), math.nan))
        self.stars = (model._stars(sizes[0], eval_star_seed(seeds, np.arange(len(self.channels))))
                      if instances and seeds is not None and model.draws_stars else [])

    def label(self, i: int) -> str:  # a stack's row i is label/i
        return f"{self._labels}/{i}" if isinstance(self._labels, str) else self._labels[i]


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
        """(idx, ChannelBatch, p, (tape, dp/dz)) of each row_blocks block of
        the split's instances at positions ``members`` (all, in list order,
        by default): idx indexes members, p is the block's (B, N) decoded
        powers. A block draws its stars from star_seeds[idx], or, when
        star_seeds is None, takes the split's frozen ones."""
        members = np.arange(len(split.channels)) if members is None else members
        n = split.graph.N
        for block in row_blocks(len(members), self._item_bytes(n)):
            idx = np.arange(block.start, block.stop)
            rows = members[block]
            if np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
                rows = slice(int(rows[0]), int(rows[0]) + rows.size)  # a run: views
            stars = ([leaves[rows] for leaves in split.stars] if star_seeds is None
                     else self._stars(n, star_seeds[idx]))
            channels = split.channels[rows]
            z, tape = self._forward(split.graph.node_features[rows], split.graph.edge_angle[rows],
                                    prepared, stars)
            sig = sigmoid(z)
            p = channels.p_max * sig
            yield idx, channels, p, (tape, p * (1.0 - sig))

    def forward(self, channels: ChannelBatch, graph: InterferenceGraph,
                flat_params, star_seed) -> np.ndarray:
        """Powers of one instance: the batch path at B = 1."""
        return self.forward_batch([Instance("", channels, graph)], flat_params, [star_seed])[0]

    def forward_batch(self, instances: list[Instance], flat_params,
                      star_seeds) -> list[np.ndarray]:
        """Power vector of each instance, drawing its stars from its seed."""
        blocks = self._blocks(Split(instances), self._prepare(flat_params, grad=False),
                              np.asarray(star_seeds, dtype=np.uint64))
        return [row for _, _, p, _ in blocks for row in p]  # the blocks run in input order

    def loss_and_grad_batch(self, instances: list[Instance], flat_params,
                            star_seeds) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance losses (B,), the negative weighted sum rates, and
        their gradients (B, P)."""
        split = Split(instances)
        return self._loss_and_grad(split, flat_params, np.asarray(star_seeds, dtype=np.uint64),
                                   np.arange(len(split.channels)))

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

    def __post_init__(self):
        for name, seed in vars(self).items():
            if not 0 <= seed < 2 ** 64:
                raise ValueError(f"seeds.{name} must be in [0, 2^64), got {seed}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 5e-2
    batch: int = 300          # instances per step; >= train size means full batch
    seeds: SeedConfig = field(default_factory=SeedConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


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
    """evaluate_mean on a split with frozen stars and prepared parameters;
    the first non-finite power in input order aborts it."""
    if not len(split.channels):
        return float("nan")
    rates = np.empty(len(split.channels))
    # an overflow shows up below as a non-finite power, so it does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, channels, p, _ in model._blocks(split, prepared, None):
            finite = np.all(np.isfinite(p), axis=1)
            if not finite.all():
                first = int(np.argmin(finite))
                raise NonFinitePowerError(f"non-finite power {p[first].tolist()} "
                                          f"for instance {split.label(idx[first])}")
            rates[idx] = sum_rate(channels, p)
    total = 0.0
    for rate in rates:  # sequential in input order, so the printed means keep their bits
        total += float(rate)
    return total / len(rates)


def wmmse_mean(stack: ChannelBatch) -> float:
    """Mean WMMSE objective over a stack, the evaluation baseline."""
    if not len(stack):
        return float("nan")
    return float(np.mean([res.objective for res in wmmse_batch(stack)]))


def train(model: BatchModel, train_set: list[Instance], test_set: list[Instance],
          cfg: TrainConfig) -> TrainReport:
    """Adam on the mean per-batch gradient. One step per batch; the batch
    size caps at the training-set size (full-batch default)."""
    splits = [Split(train_set, model, cfg.seeds), Split(test_set, model, cfg.seeds)]
    n_train = len(splits[0].channels)
    if not n_train:
        raise ValueError("training set is empty")

    rng_init = np.random.default_rng(mix_seed(cfg.seeds.init))
    params = model.init_params(rng_init)
    state = AdamState.zeros(params.size)
    baseline_wmmse = wmmse_mean(splits[1].channels)

    def means():  # one prepare for both splits
        prepared = model._prepare(params, grad=False)
        return [_split_mean(model, prepared, split) for split in splits]

    baseline_train, baseline_test = means()

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
                raise NonFiniteLossError(epoch, step, splits[0].label(members[bad]),
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
