#!/usr/bin/env python3
"""Layer timings of the qgpc kernels on fixed inputs.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 scripts/bench_layers.py --out BENCH.json

Every input is drawn from fixed seeds at the desk config (M=4, 300 train
and 100 test realizations, QGNN layers 2 / depth 1 / k 2, GCN hidden 16 /
layers 2). WMMSE also runs on 100 realizations at M=16, where it takes
enough sweeps to show their cost (about 1.5 per instance at M=4), and the
GCN on 300 realizations at M=16, the size of the benchmark's GCN workload,
where its N(N-1) edge rows dominate. The grid oracle runs on the desk test
realizations at 17 levels (the paper's oracle), on 20 dense drops (M=4 in a
20 m square, where less of the grid can be pruned) at 17 levels, and on
on/off grids (2 levels) at M=16 (desk geometry and dense) and M=12 (dense).
The QGNN kernel's ``messages`` and
``vjp`` run on one full desk block at the block budget
(``channels.BLOCK_BYTES``), with its graph count. Besides the kernels it
times building the training split (``trainer.Split``) and a
whole one-epoch desk ``trainer.train`` call of each model: the WMMSE
baseline, the splits, the untrained evaluation and one full-batch epoch.
Dataset save and load run on the desk realizations and on 300 + 100 at M=16,
to a file in a temporary directory; so does ``cli.cmd_gen``, the whole
``gen`` command (seeds, draws, checks and save), at the desk config and at
M=16. ``build_graph`` runs over the 400 desk realizations, and
``fit_feature_scaler`` on the 300-realization training stack.
Each call is timed REPEATS times after one warm-up call, at one BLAS
thread; the best and the median in milliseconds are printed and written to
``--out`` as JSON.
"""

from __future__ import annotations

import os

# The arrays are tiny; pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qgpc import channels as ch  # noqa: E402
from qgpc.cli import cmd_gen, load_config  # noqa: E402
from qgpc.gcn import GcnModel  # noqa: E402
from qgpc.graph import build_graph, decompose_stars, fit_feature_scaler  # noqa: E402
from qgpc.qgnn import QgnnModel, input_slot_count  # noqa: E402
from qgpc.trainer import (  # noqa: E402
    Instance, SeedConfig, Split, TrainConfig, evaluate_mean, train, train_star_seed,
)
from qgpc.wmmse import grid_search_oracle, wmmse_batch  # noqa: E402

M, TRAIN, TEST = 4, 300, 100
WIDE_M = 16  # the second size of WMMSE and the GCN
DENSE_SIDE = 20.0  # side of the dense drops' square, in m
REPEATS = 30  # timed calls per kernel


LINK = (ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)  # sigma2, alpha, p_max


def _gains(count: int, seed0: int, m: int = M, side: float = ch.DEFAULT_AREA_SIDE) -> np.ndarray:
    """The complex (count, m, m) gains of drops drawn from fixed seeds."""
    seeds = seed0 + np.arange(count)
    return ch.realize_channels(ch.generate_scenario(m, side, ch.DEFAULT_MIN_RANGE,
                                                    ch.DEFAULT_MAX_RANGE, seeds),
                               seed=seeds + 100_000)


def _realizations(count: int, seed0: int, m: int = M,
                  side: float = ch.DEFAULT_AREA_SIDE) -> ch.ChannelBatch:
    return ch.ChannelBatch.from_gains(_gains(count, seed0, m, side), *LINK)


def _oracle(realizations: ch.ChannelBatch, levels: int):
    rows = list(realizations)
    return lambda: [grid_search_oracle(c, levels) for c in rows]


def _gen(tmp: Path, *overrides: str):
    """cmd_gen of the default config with overrides, writing into tmp, quiet."""
    cfg = load_config(None, [f"io.out_dir={tmp}", *overrides])

    def gen():
        with contextlib.redirect_stdout(io.StringIO()):
            cmd_gen(cfg)
    return gen


def _time(fn) -> dict:
    fn()  # warm-up: caches and lazy set-up
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {"best_ms": 1e3 * min(samples), "median_ms": 1e3 * float(np.median(samples))}


def measure(tmp: Path) -> dict[str, dict]:
    train_g, test_g = _gains(TRAIN, 0), _gains(TEST, TRAIN)
    wide_g, wide_train_g = _gains(TEST, TRAIN, WIDE_M), _gains(TRAIN, 0, WIDE_M)
    train_ch, test_ch = (ch.ChannelBatch.from_gains(G, *LINK) for G in (train_g, test_g))
    wide_ch, wide_train = (ch.ChannelBatch.from_gains(G, *LINK) for G in (wide_g, wide_train_g))
    # lists of single realizations, as build_graph and wmmse_batch take them
    desk_rows, wide_rows = [*train_ch, *test_ch], list(wide_ch)
    scaler = fit_feature_scaler(train_ch)
    train_set = [Instance(f"train/{i}", c, build_graph(c, scaler))
                 for i, c in enumerate(train_ch)]
    wide_scaler = fit_feature_scaler(wide_train)
    wide_set = [Instance(f"train/{i}", c, build_graph(c, wide_scaler))
                for i, c in enumerate(wide_train)]
    test_set = [Instance(f"test/{i}", c, build_graph(c, scaler)) for i, c in enumerate(test_ch)]
    one_epoch = TrainConfig(epochs=1)
    seeds = SeedConfig()
    star_seeds = train_star_seed(seeds, 0, np.arange(TRAIN))
    rng = np.random.default_rng(0)

    qgnn = QgnnModel(layers=2, depth=1, k=2)
    q_flat = qgnn.init_params(rng)
    kernel = qgnn._prepare(q_flat, grad=True)[1][0]
    # one full desk block at the block budget: its graphs of M min(k, M-1) rows
    graphs = len(next(ch.size_blocks([M] * TRAIN, qgnn._item_bytes)))
    rows = graphs * M * min(qgnn.k, M - 1)
    angles = rng.uniform(0.0, np.pi, (rows, input_slot_count(2)))
    w = rng.standard_normal((rows, 2))
    kept = kernel.messages(angles, graphs)[1]  # the rows vjp reads, as a forward keeps them
    gcn = GcnModel(hidden=16, layers=2)
    g_flat = gcn.init_params(rng)
    desk_file, wide_file = tmp / "desk.npz", tmp / "wide.npz"
    ch.save_dataset(desk_file, train_g, test_g, *LINK)
    ch.save_dataset(wide_file, wide_train_g, wide_g, *LINK)
    stored = TRAIN + TEST
    dense = _realizations(20, TRAIN, M, DENSE_SIDE)
    onoff = _realizations(10, TRAIN, WIDE_M)
    onoff_dense = _realizations(10, TRAIN, WIDE_M, DENSE_SIDE)
    onoff_12 = _realizations(20, TRAIN, 12, DENSE_SIDE)

    calls = {
        "qgnn._prepare.grad": lambda: qgnn._prepare(q_flat, grad=True),
        "qgnn._prepare.no_grad": lambda: qgnn._prepare(q_flat, grad=False),
        f"qgnn._Kernel.messages.{rows}_rows": lambda: kernel.messages(angles, graphs),
        f"qgnn._Kernel.vjp.{rows}_rows": lambda: kernel.vjp(kept, w, graphs),
        f"qgnn.loss_and_grad_batch.{TRAIN}": lambda: qgnn.loss_and_grad_batch(
            train_set, q_flat, star_seeds),
        f"qgnn.evaluate_mean.{TRAIN}": lambda: evaluate_mean(qgnn, q_flat, train_set, seeds),
        f"qgnn.evaluate_mean.{TEST}": lambda: evaluate_mean(qgnn, q_flat, test_set, seeds),
        f"gcn.loss_and_grad_batch.{TRAIN}": lambda: gcn.loss_and_grad_batch(
            train_set, g_flat, star_seeds),
        f"gcn.loss_and_grad_batch.{TRAIN}.M{WIDE_M}": lambda: gcn.loss_and_grad_batch(
            wide_set, g_flat, star_seeds),
        f"gcn.evaluate_mean.{TRAIN}.M{WIDE_M}": lambda: evaluate_mean(gcn, g_flat, wide_set,
                                                                      seeds),
        f"graph.decompose_stars.{TRAIN}": lambda: decompose_stars(M, 2, star_seeds),
        f"wmmse.wmmse_batch.{TEST}": lambda: wmmse_batch(desk_rows[TRAIN:]),
        f"wmmse.wmmse_batch.{TEST}.M{WIDE_M}": lambda: wmmse_batch(wide_rows),
        f"wmmse.grid_search_oracle.{TEST}": _oracle(test_ch, 17),
        f"wmmse.grid_search_oracle.{len(dense)}.d20": _oracle(dense, 17),
        f"wmmse.grid_search_oracle.{len(onoff)}.M{WIDE_M}.L2": _oracle(onoff, 2),
        f"wmmse.grid_search_oracle.{len(onoff_dense)}.M{WIDE_M}.L2.d20": _oracle(onoff_dense, 2),
        f"wmmse.grid_search_oracle.{len(onoff_12)}.M12.L2.d20": _oracle(onoff_12, 2),
        f"trainer.Split.{TRAIN}": lambda: Split(train_set),
        "trainer.train.qgnn.1_epoch": lambda: train(qgnn, train_set, test_set, one_epoch),
        "trainer.train.gcn.1_epoch": lambda: train(gcn, train_set, test_set, one_epoch),
        f"channels.save_dataset.{stored}": lambda: ch.save_dataset(desk_file, train_g, test_g,
                                                                   *LINK),
        f"channels.load_dataset.{stored}": lambda: ch.load_dataset(desk_file),
        f"channels.save_dataset.{stored}.M{WIDE_M}": lambda: ch.save_dataset(
            wide_file, wide_train_g, wide_g, *LINK),
        f"channels.load_dataset.{stored}.M{WIDE_M}": lambda: ch.load_dataset(wide_file),
        f"cli.cmd_gen.{stored}": _gen(tmp),
        f"cli.cmd_gen.{stored}.M{WIDE_M}": _gen(tmp, f"scenario.M={WIDE_M}"),
        f"graph.build_graph.{stored}": lambda: [build_graph(c, scaler) for c in desk_rows],
        f"graph.fit_feature_scaler.{TRAIN}": lambda: fit_feature_scaler(train_ch),
    }
    return {name: _time(fn) for name, fn in calls.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        timings = measure(Path(tmp))
    for name, t in timings.items():
        print(f"{name:40s} best {t['best_ms']:9.3f} ms  median {t['median_ms']:9.3f} ms")
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "repeats": REPEATS,
        "timings": timings,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
