"""The benchmark workloads and one run of each.

Every workload draws its dataset through ``qgpc gen`` from a config the
benchmark writes, so the program sees only that config and the dataset file.
An untraced run alternates set-ups (their median is ``setup_s``) with timed
units until the requested seconds have passed:

- ``qgnn-train-m4`` and ``gcn-train-m16``: one ``trainer.train`` call;
- ``eval-oracle-m4``: one ``qgpc eval --oracle-levels 17`` call through
  ``cli.main``, then frozen-model passes over the test split
  (``trainer.evaluate_mean``), the forward share of a training epoch.

``wall_s`` is the mean unit time, ``epoch_s.mean`` the mean epoch (or
frozen-model pass) time and ``setup_s`` the median set-up time, each at the
reference host speed of ``hostspeed``: the untraced run samples a fixed
gauge evenly throughout and scales its timings by the host speed it saw.
The record keeps every raw time and gauge sample.

A traced run sets up once under the tracer, runs one unit untraced and one
traced, and reports the per-layer metrics from the traced set-up and unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Checks
from hostspeed import HostGauge
import tracing

# The grid oracle uses the most levels whose grid has at most 17**4 points:
# 17 levels at M = 4 (the paper's oracle) and on/off levels at M = 16.
ORACLE_POINTS = 17 ** 4
SETUPS = 5       # fewest set-ups in an untraced run; setup_s is their median
EVAL_PASSES = 5  # frozen-model passes after each eval call
MAX_UNITS = 1000  # stops a unit that fails at once from spinning

# The eval workload scores a trained model: these are the final parameters of
# `qgpc gen && qgpc train` on the default config (M=4, 300/100 realizations,
# 50 epochs, seeds 1/2/3), which reach 0.977 x WMMSE on that test split.
DESK_QGNN_PARAMS = (
    -0.8808903570727035, -0.04532838446111108, -0.1939383375862661,
    0.01648420820105847, 1.1938818450545234, 0.09166503848023483,
    -0.7648257582020713, -0.05703285121001355, -0.8938280954748632,
    -0.0007598735100321093, 0.028593437264278116, 0.04843764547955483,
    -1.6275847234862293, 0.004452088680692932, -1.3496096004215141,
    -0.023961785223009045, 1.6144343469425184, -0.03408414463183843,
    -1.4338004304844356, -0.06406559267971987, -2.425701570717366,
    1.8950225477915899,
)


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    M: int
    train_size: int
    test_size: int
    epochs: int  # epochs per trainer.train call; 0 marks the eval workload

    @property
    def trains(self) -> bool:
        return self.epochs > 0

    @property
    def oracle_levels(self) -> int:
        levels = 2
        while (levels + 1) ** self.M <= ORACLE_POINTS:
            levels += 1
        return levels


# Why each workload is here is recorded in BENCHMARK.json. The epoch counts
# keep one train call short (about 3 s) so that a run holds ten or so.
WORKLOADS = {w.name: w for w in (
    Workload("qgnn-train-m4", "qgnn", 4, 300, 100, epochs=1),
    Workload("gcn-train-m16", "gcn", 16, 300, 100, epochs=4),
    Workload("eval-oracle-m4", "qgnn", 4, 300, 100, epochs=0),
)}


def config(w: Workload, seed: int, workdir: Path) -> dict:
    """The config file the program sees; its three seeds come from ``seed``."""
    data, init, stars = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    return {
        "version": 1,
        "scenario": {"M": w.M, "train_size": w.train_size, "test_size": w.test_size},
        "model": {"arch": w.arch, "layers": 2, "depth": 1, "k": 2, "hidden": 16},
        "train": {"epochs": w.epochs, "lr": 0.05, "batch": w.train_size,
                  "seeds": {"data": data, "init": init, "stars": stars}},
        "io": {"dataset": "dataset.jsonl", "out_dir": str(workdir)},
    }


@dataclass(eq=False)
class Prepared:
    config_path: Path
    model: object
    train_cfg: object
    train_set: list
    test_set: list
    params: np.ndarray | None  # the checkpoint's parameters (eval only)


def _quiet(fn, *args):
    """Call fn with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = fn(*args)
    return out, buf.getvalue()


def _model(cfg: dict):
    from qgpc import gcn, qgnn

    mc = cfg["model"]
    if mc["arch"] == "qgnn":
        return qgnn.QgnnModel(layers=int(mc["layers"]), depth=int(mc["depth"]), k=int(mc["k"]))
    return gcn.GcnModel(hidden=int(mc["hidden"]), layers=int(mc["layers"]))


def setup(w: Workload, config_path: Path, cfg: dict, checks: Checks) -> Prepared:
    """Draw and save the dataset, reload it, fit the scaler, build the graphs
    and, for the eval workload, write the checkpoint."""
    from qgpc import channels, checkpoint, cli, graph, trainer

    rc, _ = _quiet(cli.main, ["--config", str(config_path), "gen"])
    checks.same("cli.gen.exit_code", rc, 0)
    out_dir = Path(cfg["io"]["out_dir"])
    train_ch, test_ch, _ = channels.load_dataset(out_dir / cfg["io"]["dataset"])
    scaler = graph.fit_feature_scaler(train_ch)
    train_set = [trainer.Instance(f"train/{i}", c, graph.build_graph(c, scaler))
                 for i, c in enumerate(train_ch)]
    test_set = [trainer.Instance(f"test/{i}", c, graph.build_graph(c, scaler))
                for i, c in enumerate(test_ch)]
    tc = cfg["train"]
    train_cfg = trainer.TrainConfig(
        epochs=int(tc["epochs"]), lr=float(tc["lr"]), batch=int(tc["batch"]),
        seeds=trainer.SeedConfig(**{k: int(v) for k, v in tc["seeds"].items()}),
    )
    model = _model(cfg)
    params = None
    if not w.trains:
        params = np.array(DESK_QGNN_PARAMS)
        checkpoint.save_checkpoint(out_dir / f"{model.name}_checkpoint.json", model.name,
                                   model.arch_dict(), params, scaler)
    return Prepared(config_path, model, train_cfg, train_set, test_set, params)


def train_unit(w: Workload, prep: Prepared, clock=time.perf_counter) -> dict:
    """One ``trainer.train`` call, timed with ``clock``. The trainer times
    its epochs with perf_counter; each is scaled by the call's clock time
    over its perf_counter time, so both leave out what ``clock`` leaves out."""
    from qgpc import trainer

    started, started_clock = time.perf_counter(), clock()
    report = trainer.train(prep.model, prep.train_set, prep.test_set, prep.train_cfg)
    wall = clock() - started_clock
    share = wall / (time.perf_counter() - started)
    return {"wall_s": wall, "epoch_s": [float(s) * share for s in report.seconds],
            "output": report.to_csv(), "model_mean": float(report.test_curve[-1]),
            "wmmse_mean": float(report.wmmse_test_mean), "params": report.final_params}


_EVAL_LINES = {
    "model_mean": re.compile(r"^model=\S+ test_mean_bpshz=(\S+)$", re.M),
    "wmmse_mean": re.compile(r"^wmmse test_mean_bpshz=(\S+) ", re.M),
    "oracle_mean": re.compile(r"^oracle\(levels=\d+\) test_mean_bpshz=(\S+)$", re.M),
}


def eval_unit(w: Workload, prep: Prepared, clock=time.perf_counter) -> dict:
    from qgpc import cli, trainer

    argv = ["--config", str(prep.config_path), "eval", "--oracle-levels", str(w.oracle_levels)]
    started = clock()
    rc, text = _quiet(cli.main, argv)
    wall = clock() - started
    passes = []
    for _ in range(EVAL_PASSES):
        started = clock()
        pass_mean = trainer.evaluate_mean(prep.model, prep.params, prep.test_set,
                                          prep.train_cfg.seeds)
        passes.append(clock() - started)
    unit = {"wall_s": wall, "epoch_s": passes, "output": text, "rc": rc,
            "pass_mean": float(pass_mean), "params": prep.params}
    for key, pattern in _EVAL_LINES.items():
        match = pattern.search(text)
        unit[key] = float(match.group(1)) if match else None
    return unit


def check_unit(w: Workload, unit: dict, first: dict | None, checks: Checks, tag: str) -> None:
    """Checks on one timed unit; ``first`` is the run's first unit, whose
    output every later unit of the same seed must reproduce byte for byte."""
    for key in ("model_mean", "wmmse_mean") + (() if w.trains else ("oracle_mean",)):
        checks.finite(f"{tag}.{key}.finite", unit[key])
    if not w.trains:
        checks.same(f"{tag}.eval.exit_code", unit["rc"], 0)
        # The CLI's own eval loop must agree with trainer.evaluate_mean.
        printed = _EVAL_LINES["model_mean"].search(unit["output"])
        checks.same(f"{tag}.eval.matches_evaluate_mean",
                    printed and printed.group(1), format(unit["pass_mean"], ".12g"))
    if first is not None:
        checks.same(f"{tag}.output.identical", unit["output"], first["output"])
        checks.same(f"{tag}.test_ratio.identical", model_to_wmmse(unit), model_to_wmmse(first))


def model_to_wmmse(unit: dict) -> float | None:
    if unit["model_mean"] is None or not unit["wmmse_mean"]:
        return None
    return unit["model_mean"] / unit["wmmse_mean"]


def check_powers(prep: Prepared, params, checks: Checks) -> None:
    """Decode the test split with ``params``: every power finite, in range."""
    from qgpc import trainer

    seeds = prep.train_cfg.seeds
    for idx, inst in enumerate(prep.test_set):
        p = checks.guard("powers.decode", prep.model.forward, inst.channels, inst.graph,
                         params, trainer.eval_star_seed(seeds, idx))
        if p is not None:
            checks.powers(p, inst.channels.p_max, inst.label)


def oracle_mean(w: Workload, prep: Prepared) -> float:
    from qgpc import wmmse

    return float(np.mean([wmmse.grid_search_oracle(inst.channels, w.oracle_levels)[1]
                          for inst in prep.test_set]))


def _write_config(w: Workload, seed: int, workdir: Path) -> tuple[Path, dict]:
    from qgpc import cli

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(config(w, seed, workdir), indent=1), encoding="utf-8")
    return path, cli.load_config(str(path), [])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics; no wrapper is installed."""
    checks = Checks()
    path, cfg = _write_config(w, seed, workdir)
    unit_fn = train_unit if w.trains else eval_unit
    setup_s: list[float] = []
    units: list[dict] = []
    prep = None
    with HostGauge() as host:
        # Set-ups alternate with units, so both sample the same stretch of time.
        deadline = time.perf_counter() + seconds
        while len(units) < MAX_UNITS:
            started = time.perf_counter()
            started_setup = host.clock()
            prep = checks.guard("setup", setup, w, path, cfg, checks)
            setup_s.append(host.clock() - started_setup)
            if prep is None:
                break
            unit = checks.guard("unit", unit_fn, w, prep, host.clock)
            if unit is not None:
                check_unit(w, unit, units[0] if units else None, checks, "unit")
                units.append(unit)
            now = time.perf_counter()
            if now + (now - started) > deadline:  # the next round would overrun
                break
        while prep is not None and len(setup_s) < SETUPS:
            started = host.clock()
            extra = checks.guard("setup", setup, w, path, cfg, checks)
            setup_s.append(host.clock() - started)
            if extra is None:
                break
    speed = host.speed()
    metrics = {"setup_s": statistics.median(setup_s) * speed}
    epochs = [s for u in units for s in u["epoch_s"]]
    if units:
        first = units[0]
        check_powers(prep, first["params"], checks)
        oracle = first["oracle_mean"] if not w.trains else checks.guard(
            "oracle", oracle_mean, w, prep)
        checks.finite("oracle_mean.finite", oracle)
        metrics["wall_s"] = statistics.fmean(u["wall_s"] for u in units) * speed
        metrics["epoch_s.mean"] = statistics.fmean(epochs) * speed
        metrics["test_ratio"] = model_to_wmmse(first)
        if oracle:
            metrics["wmmse_vs_oracle"] = first["wmmse_mean"] / oracle
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["pass_frac"] = 1.0 - checks.failed_total / max(checks.attempted, 1)
    return {
        "checks": checks, "metrics": metrics, "config": cfg, "host_speed": speed,
        "samples": {"setup_s": len(setup_s), "wall_s": len(units), "epoch_s.mean": len(epochs),
                    "gauge": len(host.samples)},
        "seconds": {"setup": setup_s, "wall": [u["wall_s"] for u in units], "epoch": epochs,
                    "gauge": host.samples},
    }


def run_traced(w: Workload, seed: int, workdir: Path, spans_path: Path) -> dict:
    """Per-layer metrics from one traced set-up and one traced unit, plus
    the tracing overhead against an untraced unit of the same inputs."""
    checks = Checks()
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    path, cfg = _write_config(w, seed, workdir)
    unit_fn = train_unit if w.trains else eval_unit
    with patcher:
        tracing.install(patcher, checks.powers)
        tracer.begin_run("setup")
        prep = checks.guard("setup", setup, w, path, cfg, checks)
    plain = traced = None
    if prep is not None:
        plain = checks.guard("unit", unit_fn, w, prep)
        with patcher:
            tracing.install(patcher, checks.powers)
            tracer.begin_run("unit-0")
            traced = checks.guard("traced.unit", unit_fn, w, prep)
    metrics, samples = tracing.layer_metrics(tracer)
    if plain is not None:
        check_unit(w, plain, None, checks, "unit")
        check_powers(prep, plain["params"], checks)
    if plain is not None and traced is not None:
        check_unit(w, traced, plain, checks, "traced")
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    tracer.write(spans_path)
    return {"checks": checks, "metrics": metrics, "config": cfg, "samples": samples,
            "spans": len(tracer.start)}
