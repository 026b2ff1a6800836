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
where its N(N-1) edge rows dominate. The grid oracle runs as one call on
a stack, as ``qgpc eval`` calls it: on the desk test realizations at 17
levels (the paper's oracle), on 20 dense drops (M=4 in a 20 m square, where
less of the grid can be pruned) at 17 levels, on on/off grids (2 levels)
at M=16 (desk geometry and dense) and M=12 (dense), and on 8 single-pair
drops at 83,521 levels (17^4 points on one axis). It also runs on one desk
realization alone, the per-realization call.
The QGNN kernel's ``messages`` and
``vjp`` run on one full desk block at the block budget
(``channels.BLOCK_BYTES``), with its graph count. Besides the kernels it
times building the training split (``trainer.Split``) from the list of its
300 row instances and from one stack instance, and a
whole one-epoch desk ``trainer.train`` call of each model: the WMMSE
baseline, the splits, the untrained evaluation and one full-batch epoch.
Dataset save and load run on the desk realizations and on 300 + 100 at M=16,
to a file in a temporary directory; so does ``cli.cmd_gen``, the whole
``gen`` command (seeds, draws, checks and save), at the desk config and at
M=16. The seeding of a desk ``gen`` is also timed alone: the position and
fading seed of each of the 400 realizations (``trainer.mix_seed``, 800
seeds) and the generators they seed (``channels.generators``, 800); so are
its drops (``channels.generate_scenario``, one call per split on gen's
position seeds) and, at M=16, its gains (``channels.realize_channels``, one
call per split over drops made beforehand, on gen's fading seeds).
``build_graph`` runs over the 400 desk realizations one by one and on the
300-realization training stack in one call, and ``fit_feature_scaler`` on
the training stack.
Each call is timed REPEATS times after one warm-up call, at one BLAS
thread; the best and the median in milliseconds are printed and written to
``--out`` as JSON. With ``--processes N`` the rows run in N fresh processes,
one after another; a row's best is then the best over them, its median the
median of their medians, and ``process_best_ms`` lists each process's best,
so a row whose processes settle in two modes shows both.
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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qgpc import channels as ch  # noqa: E402
from qgpc.cli import _FADE_STREAM_TAG, _GEOM_STREAM_TAG, cmd_gen, load_config  # noqa: E402
from qgpc.gcn import GcnModel  # noqa: E402
from qgpc.graph import build_graph, decompose_stars, fit_feature_scaler  # noqa: E402
from qgpc.qgnn import QgnnModel, input_slot_count  # noqa: E402
from qgpc.trainer import (  # noqa: E402
    Instance, SeedConfig, Split, TrainConfig, evaluate_mean, mix_seed, train, train_star_seed,
)
from qgpc.wmmse import grid_search_oracle, wmmse_batch  # noqa: E402

M, TRAIN, TEST = 4, 300, 100
WIDE_M = 16  # the second size of WMMSE and the GCN
DENSE_SIDE = 20.0  # side of the dense drops' square, in m
REPEATS = 30  # timed calls per kernel


LINK = (ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)  # sigma2, alpha, p_max


def _scenario(m: int, seeds, side: float = ch.DEFAULT_AREA_SIDE) -> ch.Scenario:
    """The drops of size m of the seeds, at the desk ranges."""
    return ch.generate_scenario(m, side, ch.DEFAULT_MIN_RANGE, ch.DEFAULT_MAX_RANGE, seeds)


def _gains(count: int, seed0: int, m: int = M, side: float = ch.DEFAULT_AREA_SIDE) -> np.ndarray:
    """The complex (count, m, m) gains of drops drawn from fixed seeds."""
    seeds = seed0 + np.arange(count)
    return ch.realize_channels(_scenario(m, seeds, side), seed=seeds + 100_000)


def _gen_seeds() -> list[tuple]:
    """The position and fading seeds of a desk gen's two splits at data seed 1."""
    return [tuple(mix_seed(1, stream, tag, np.arange(count))
                  for stream in (_GEOM_STREAM_TAG, _FADE_STREAM_TAG))
            for tag, count in enumerate((TRAIN, TEST))]


def _gen_splits(m: int) -> list[tuple]:
    """The position seeds, fading seeds and drops of size m of a desk gen's
    two splits, as gen draws them."""
    return [(geom, fade, _scenario(m, geom)) for geom, fade in _gen_seeds()]


def _realizations(count: int, seed0: int, m: int = M,
                  side: float = ch.DEFAULT_AREA_SIDE) -> ch.ChannelBatch:
    return ch.ChannelBatch.from_gains(_gains(count, seed0, m, side), *LINK)


def _oracle(channels: ch.ChannelBatch, levels: int):
    """One grid oracle call: on a stack, as ``qgpc eval`` makes it, or on one
    realization."""
    return lambda: grid_search_oracle(channels, levels)


def _gen(tmp: Path, *overrides: str):
    """cmd_gen of the default config with overrides, writing into tmp, quiet."""
    cfg = load_config(None, [f"io.out_dir={tmp}", *overrides])

    def gen():
        with contextlib.redirect_stdout(io.StringIO()):
            cmd_gen(cfg)
    return gen


def _seeding():
    """The seeds and generators of a desk gen at data seed 1, without the draws."""
    for split in _gen_seeds():
        for seeds in split:
            ch.generators(seeds)


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
    desk_rows = [*train_ch, *test_ch]  # single realizations, as build_graph takes them
    scaler = fit_feature_scaler(train_ch)
    train_set = [Instance(f"train/{i}", c, build_graph(c, scaler))
                 for i, c in enumerate(train_ch)]
    wide_scaler = fit_feature_scaler(wide_train)
    wide_set = [Instance(f"train/{i}", c, build_graph(c, wide_scaler))
                for i, c in enumerate(wide_train)]
    test_set = [Instance(f"test/{i}", c, build_graph(c, scaler)) for i, c in enumerate(test_ch)]
    train_stack = [Instance("train", train_ch, build_graph(train_ch, scaler))]
    one_epoch = TrainConfig(epochs=1)
    seeds = SeedConfig()
    star_seeds = train_star_seed(seeds, 0, np.arange(TRAIN))
    rng = np.random.default_rng(0)

    qgnn = QgnnModel(layers=2, depth=1, k=2)
    q_flat = qgnn.init_params(rng)
    kernel = qgnn._prepare(q_flat, grad=True)[1][0]
    # one full desk block at the block budget: its graphs of M min(k, M-1) rows
    block = next(ch.row_blocks(TRAIN, qgnn._item_bytes(M)))
    graphs = block.stop - block.start
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
    single = _realizations(8, TRAIN, 1)
    desk_splits, wide_splits = _gen_splits(M), _gen_splits(WIDE_M)

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
        f"wmmse.wmmse_batch.{TEST}": lambda: wmmse_batch(test_ch),
        f"wmmse.wmmse_batch.{TEST}.M{WIDE_M}": lambda: wmmse_batch(wide_ch),
        f"wmmse.grid_search_oracle.{TEST}": _oracle(test_ch, 17),
        "wmmse.grid_search_oracle.1": _oracle(test_ch[0], 17),
        f"wmmse.grid_search_oracle.{len(dense)}.d20": _oracle(dense, 17),
        f"wmmse.grid_search_oracle.{len(onoff)}.M{WIDE_M}.L2": _oracle(onoff, 2),
        f"wmmse.grid_search_oracle.{len(onoff_dense)}.M{WIDE_M}.L2.d20": _oracle(onoff_dense, 2),
        f"wmmse.grid_search_oracle.{len(onoff_12)}.M12.L2.d20": _oracle(onoff_12, 2),
        f"wmmse.grid_search_oracle.{len(single)}.M1.L{17 ** 4}": _oracle(single, 17 ** 4),
        f"trainer.Split.{TRAIN}": lambda: Split(train_set),
        f"trainer.Split.stack.{TRAIN}": lambda: Split(train_stack),
        "trainer.train.qgnn.1_epoch": lambda: train(qgnn, train_set, test_set, one_epoch),
        "trainer.train.gcn.1_epoch": lambda: train(gcn, train_set, test_set, one_epoch),
        f"channels.save_dataset.{stored}": lambda: ch.save_dataset(desk_file, train_g, test_g,
                                                                   *LINK),
        f"channels.load_dataset.{stored}": lambda: ch.load_dataset(desk_file),
        f"channels.save_dataset.{stored}.M{WIDE_M}": lambda: ch.save_dataset(
            wide_file, wide_train_g, wide_g, *LINK),
        f"channels.load_dataset.{stored}.M{WIDE_M}": lambda: ch.load_dataset(wide_file),
        f"channels.seeding.{stored}": _seeding,
        f"channels.generate_scenario.{stored}": lambda: [_scenario(M, geom)
                                                         for geom, _, _ in desk_splits],
        f"channels.realize_channels.{stored}.M{WIDE_M}": lambda: [
            ch.realize_channels(drops, seed=fade) for _, fade, drops in wide_splits],
        f"cli.cmd_gen.{stored}": _gen(tmp),
        f"cli.cmd_gen.{stored}.M{WIDE_M}": _gen(tmp, f"scenario.M={WIDE_M}"),
        f"graph.build_graph.{stored}": lambda: [build_graph(c, scaler) for c in desk_rows],
        f"graph.build_graph.stack.{TRAIN}": lambda: build_graph(train_ch, scaler),
        f"graph.fit_feature_scaler.{TRAIN}": lambda: fit_feature_scaler(train_ch),
    }
    return {name: _time(fn) for name, fn in calls.items()}


def _in_processes(count: int, tmp: Path) -> list[dict[str, dict]]:
    """The timings of ``count`` fresh runs of this script, one after another."""
    runs = []
    for i in range(count):
        out = tmp / f"process{i}.json"
        subprocess.run([sys.executable, __file__, "--out", str(out)], check=True,
                       stdout=subprocess.DEVNULL)
        runs.append(json.loads(out.read_text(encoding="utf-8"))["timings"])
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--processes", type=int, default=1,
                        help="run the rows in this many fresh processes, one after another")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")
    with tempfile.TemporaryDirectory() as tmp:
        runs = ([measure(Path(tmp))] if args.processes == 1
                else _in_processes(args.processes, Path(tmp)))
    timings = {name: {"best_ms": min(run[name]["best_ms"] for run in runs),
                      "median_ms": float(np.median([run[name]["median_ms"] for run in runs])),
                      "process_best_ms": [run[name]["best_ms"] for run in runs]}
               for name in runs[0]}
    for name, t in timings.items():
        print(f"{name:40s} best {t['best_ms']:9.3f} ms  median {t['median_ms']:9.3f} ms")
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "repeats": REPEATS,
        "processes": args.processes,
        "timings": timings,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
