"""Command-line pipeline: gen / train / eval.

All behavior is driven by a JSON config file plus repeatable --set overrides
(dotted keys, JSON-parsed values). Outputs land in io.out_dir, which the
QGPC_OUT_DIR environment variable overrides. Exit codes: 0 success, 2 bad
configuration or inputs, 3 runtime abort (non-finite training loss or decoded
power).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import channels as ch
from .checkpoint import CheckpointError, check_arch, load_checkpoint, save_checkpoint
from .gcn import GcnModel
from .graph import build_graph, fit_feature_scaler
from .qgnn import QgnnModel
from .trainer import (
    Instance, NonFiniteLossError, NonFinitePowerError, SeedConfig, TrainConfig, evaluate_mean,
    mix_seed, train, wmmse_mean,
)
from .wmmse import check_grid, grid_search_oracle

ENV_OUT_DIR = "QGPC_OUT_DIR"
CONFIG_VERSION = 1

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "scenario": {
        "M": ch.DEFAULT_PAIRS,
        "d": ch.DEFAULT_AREA_SIDE,
        "d_min": ch.DEFAULT_MIN_RANGE,
        "d_max": ch.DEFAULT_MAX_RANGE,
        "pathloss_exp": ch.DEFAULT_PATHLOSS_EXP,
        "sigma2": ch.DEFAULT_NOISE_POWER,
        "alpha": ch.DEFAULT_WEIGHT,
        "p_max": ch.DEFAULT_P_MAX,
        "train_size": 300,
        "test_size": 100,
    },
    "model": {
        "arch": "qgnn",
        "layers": 2,
        "depth": 1,
        "k": 2,
        "hidden": 16,
    },
    "train": {
        "epochs": 50,
        "lr": 5e-2,
        "batch": 300,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "seeds": {"data": 1, "init": 2, "stars": 3},
    },
    "io": {
        "dataset": "dataset.jsonl",
        "out_dir": ".",
    },
}

_GEOM_STREAM_TAG = 0x47454F  # scenario position draws
_FADE_STREAM_TAG = 0x464144  # fading draws
_SPLIT_TAGS = {"train": 0, "test": 1}


class ConfigError(ValueError):
    """Raised for malformed configs, overrides, or input files."""


def _deep_merge(base: dict, extra: dict, prefix: str = "") -> dict:
    """``base`` with the values of ``extra`` laid over it. Every key of
    ``extra`` must already be in ``base``, at any depth."""
    out = dict(base)
    for key, val in extra.items():
        if key not in out:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(out[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(out[key], val, f"{prefix}{key}.")
        else:
            out[key] = val
    return out


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key.path=value")
    key, raw = assignment.split("=", 1)
    parts = key.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config section {part!r} in override {key!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key {key!r}")
    node[parts[-1]] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {user.get('version')!r}")
        for section in user:
            if section not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config section {section!r}")
        cfg = _deep_merge(cfg, user)
    for assignment in overrides:
        _apply_override(cfg, assignment)
    if os.environ.get(ENV_OUT_DIR):
        cfg["io"]["out_dir"] = os.environ[ENV_OUT_DIR]
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    try:
        sc = cfg["scenario"]
        if int(sc["M"]) < 1:
            raise ConfigError("scenario.M must be >= 1")
        if not (0 < float(sc["d_min"]) <= float(sc["d_max"]) <= float(sc["d"])):
            raise ConfigError("need 0 < d_min <= d_max <= d")
        if float(sc["sigma2"]) <= 0 or float(sc["p_max"]) <= 0:
            raise ConfigError("sigma2 and p_max must be positive")
        alpha = np.asarray(sc["alpha"], dtype=float)
        if alpha.shape not in ((), (1,), (int(sc["M"]),)) or np.any(alpha < 0):
            raise ConfigError(f"scenario.alpha must be one or M={sc['M']} non-negative weights")
        if int(sc["train_size"]) < 1 or int(sc["test_size"]) < 0:
            raise ConfigError("train_size must be >= 1 and test_size >= 0")
        mc = cfg["model"]
        if mc["arch"] not in ("qgnn", "gcn"):
            raise ConfigError(f"unknown model.arch {mc['arch']!r}")
        for key in ("layers", "depth", "k", "hidden"):
            if int(mc[key]) < (0 if key == "k" else 1):
                raise ConfigError(f"model.{key} out of range")
        tc = cfg["train"]
        if int(tc["epochs"]) < 0 or int(tc["batch"]) < 1 or float(tc["lr"]) <= 0:
            raise ConfigError("train.epochs >= 0, train.batch >= 1, train.lr > 0 required")
        float(tc["beta1"]), float(tc["beta2"]), float(tc["eps"])
        for key in ("data", "init", "stars"):
            int(tc["seeds"][key])
        if not isinstance(cfg["io"]["dataset"], str) or not isinstance(cfg["io"]["out_dir"], str):
            raise ConfigError("io.dataset and io.out_dir must be strings")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc!r}") from exc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["io"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_path(cfg: dict) -> Path:
    p = Path(cfg["io"]["dataset"])
    return p if p.is_absolute() else _out_dir(cfg) / p


def _build_model(cfg: dict):
    mc = cfg["model"]
    if mc["arch"] == "qgnn":
        return QgnnModel(layers=int(mc["layers"]), depth=int(mc["depth"]), k=int(mc["k"]))
    return GcnModel(hidden=int(mc["hidden"]), layers=int(mc["layers"]))


def _train_config(cfg: dict) -> TrainConfig:
    tc = cfg["train"]
    seeds = tc["seeds"]
    return TrainConfig(
        epochs=int(tc["epochs"]), lr=float(tc["lr"]), batch=int(tc["batch"]),
        beta1=float(tc["beta1"]), beta2=float(tc["beta2"]), eps=float(tc["eps"]),
        seeds=SeedConfig(data=int(seeds["data"]), init=int(seeds["init"]),
                         stars=int(seeds["stars"])),
    )


def cmd_gen(cfg: dict) -> int:
    """Draw the train/test realizations and write the dataset file."""
    sc = cfg["scenario"]
    data_seed = int(cfg["train"]["seeds"]["data"])
    splits: dict[str, list] = {"train": [], "test": []}
    for split, count_key in (("train", "train_size"), ("test", "test_size")):
        for idx in range(int(sc[count_key])):
            tag = _SPLIT_TAGS[split]
            scen = ch.generate_scenario(
                M=int(sc["M"]), d=float(sc["d"]), d_min=float(sc["d_min"]),
                d_max=float(sc["d_max"]),
                seed=mix_seed(data_seed, _GEOM_STREAM_TAG, tag, idx),
            )
            splits[split].append(ch.realize_channels(
                scen, pathloss_exp=float(sc["pathloss_exp"]), sigma2=float(sc["sigma2"]),
                alpha=sc["alpha"], p_max=float(sc["p_max"]),
                seed=mix_seed(data_seed, _FADE_STREAM_TAG, tag, idx),
            ))
    path = _dataset_path(cfg)
    meta = {"seed": data_seed, "scenario": {key: sc[key] for key in
            ("d", "d_min", "d_max", "pathloss_exp")}}
    ch.save_dataset(path, splits["train"], splits["test"], meta)
    print(f"wrote {len(splits['train'])} train + {len(splits['test'])} test "
          f"realizations of M={sc['M']} to {path}")
    return 0


def _load_instances(cfg: dict):
    path = _dataset_path(cfg)
    if not path.exists():
        raise ConfigError(f"dataset not found: {path} (run gen first)")
    try:
        train_ch, test_ch, header = ch.load_dataset(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return train_ch, test_ch, header


def _instances(label: str, realizations, scaler):
    return [
        Instance(label=f"{label}/{i}", channels=c, graph=build_graph(c, scaler))
        for i, c in enumerate(realizations)
    ]


def cmd_train(cfg: dict) -> int:
    """Fit the configured model on the dataset; write report CSV + checkpoint."""
    train_ch, test_ch, _ = _load_instances(cfg)
    scaler = fit_feature_scaler(train_ch)
    model = _build_model(cfg)
    train_set = _instances("train", train_ch, scaler)
    test_set = _instances("test", test_ch, scaler)
    report = train(model, train_set, test_set, _train_config(cfg))

    out = _out_dir(cfg)
    csv_path = out / f"{model.name}_train_report.csv"
    ckpt_path = out / f"{model.name}_checkpoint.json"
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    save_checkpoint(ckpt_path, model.name, model.arch_dict(), report.final_params, scaler)

    final_test = report.test_curve[-1] if report.epochs else report.baseline_test_mean
    print(f"model={model.name} epochs={report.epochs} "
          f"final_test_mean={final_test:.6g} wmmse_test_mean={report.wmmse_test_mean:.6g} "
          f"total_seconds={float(report.seconds.sum()):.3f}")
    print(f"report: {csv_path}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(cfg: dict, checkpoint: str | None, oracle_levels: int | None) -> int:
    """Evaluate a checkpoint on the test split against WMMSE (and optionally
    the grid oracle, feasible only for small M)."""
    _, test_ch, header = _load_instances(cfg)
    if not test_ch:
        raise ConfigError("dataset has no test split to evaluate on")
    if oracle_levels is not None:
        try:
            check_grid(oracle_levels, header["M"])
        except ValueError as exc:
            raise ConfigError(f"--oracle-levels {oracle_levels}: {exc}") from exc
    model = _build_model(cfg)
    ckpt_path = Path(checkpoint) if checkpoint else _out_dir(cfg) / f"{model.name}_checkpoint.json"
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    doc = load_checkpoint(ckpt_path)
    check_arch(doc, model.name, model.arch_dict())
    scaler = doc["scaler"]
    params = doc["params"]
    if params.shape != (model.param_count(),):
        raise CheckpointError(
            f"checkpoint has {params.shape[0]} parameters, model needs {model.param_count()}"
        )

    test_set = _instances("test", test_ch, scaler)
    model_mean = evaluate_mean(model, params, test_set, _train_config(cfg).seeds)
    baseline = wmmse_mean(test_set)
    print(f"model={model.name} test_mean_bpshz={model_mean:.12g}")
    print(f"wmmse test_mean_bpshz={baseline:.12g} ratio={model_mean / baseline:.6g}")
    if oracle_levels is not None:
        oracle_vals = [grid_search_oracle(inst.channels, oracle_levels)[1]
                       for inst in test_set]
        oracle_mean = float(np.mean(oracle_vals))
        print(f"oracle(levels={oracle_levels}) test_mean_bpshz={oracle_mean:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgpc",
        description="Power allocation for D2D interference networks with a "
                    "quantum graph neural network, a classical GCN, and WMMSE.",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set train.epochs=5")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate the dataset file")
    sub.add_parser("train", help="train the configured model")
    ev = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    ev.add_argument("--checkpoint", default=None, help="checkpoint path override")
    ev.add_argument("--oracle-levels", type=int, default=None,
                    help="also run the grid oracle with this many levels")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_eval(cfg, args.checkpoint, args.oracle_levels)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteLossError, NonFinitePowerError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
