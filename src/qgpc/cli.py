"""Command-line pipeline: gen / train / eval.

All behavior is driven by a JSON config file plus repeatable --set overrides
(dotted keys, JSON-parsed values). Outputs land in io.out_dir, which the
QGPC_OUT_DIR environment variable overrides. Exit codes: 0 success, 1 stdout
closed by its reader (or an unhandled error, with a traceback), 2 bad
configuration or inputs, 3 runtime abort (non-finite loss or decoded power).
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib  # echoed values are cut short: a --set value may be any length
import sys
from dataclasses import asdict
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
    "train": asdict(TrainConfig()),
    "io": {
        "dataset": "dataset.npz",
        "out_dir": ".",
    },
}

_GEOM_STREAM_TAG = 0x47454F  # scenario position draws
_FADE_STREAM_TAG = 0x464144  # fading draws


class ConfigError(ValueError):
    """Raised for malformed configs, overrides, or input files."""


def _deep_merge(base: dict, extra: dict, prefix: str = "") -> dict:
    """``base`` with the values of ``extra`` laid over it. Every key of
    ``extra`` must already be in ``base``, at any depth, and an object of
    ``base`` is merged key by key, never replaced, so it keeps only known keys."""
    out = dict(base)
    for key, val in extra.items():
        if key not in out:
            raise ConfigError(f"unknown config key {reprlib.repr(prefix + key)}")
        if isinstance(out[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(out[key], val, f"{prefix}{key}.")
        elif isinstance(out[key], dict):
            raise ConfigError(f"{prefix}{key} is not a JSON object: {reprlib.repr(val)}")
        else:
            out[key] = val
    return out


# the config's JSON types, for channels.check_json: DEFAULT_CONFIG's, but
# scenario.alpha also takes a list, one weight per pair
_PROTOTYPE = _deep_merge(DEFAULT_CONFIG, {"scenario": {"alpha": [ch.DEFAULT_WEIGHT]}})


def _override(assignment: str) -> dict:
    """``key.path=value`` as the nested object a config file would hold. The
    value is JSON-parsed, or kept as a string when it is not JSON."""
    if "=" not in assignment:
        raise ConfigError(f"override {reprlib.repr(assignment)} is not of the form key.path=value")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _deep_merge(cfg, user)
    for assignment in overrides:
        cfg = _deep_merge(cfg, _override(assignment))
    if os.environ.get(ENV_OUT_DIR):
        cfg = _deep_merge(cfg, {"io": {"out_dir": os.environ[ENV_OUT_DIR]}})
    try:
        ch.check_json(cfg, _PROTOTYPE)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    """Range checks on a config of _PROTOTYPE's JSON types."""
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {cfg['version']!r}")
    sc = cfg["scenario"]
    if sc["M"] < 1:
        raise ConfigError("scenario.M must be >= 1")
    if not (0 < sc["d_min"] <= sc["d_max"] <= sc["d"]):
        raise ConfigError("need 0 < d_min <= d_max <= d")
    if sc["sigma2"] <= 0 or sc["p_max"] <= 0:
        raise ConfigError("sigma2 and p_max must be positive")
    alpha = sc["alpha"] if isinstance(sc["alpha"], list) else [sc["alpha"]]
    if len(alpha) not in (1, sc["M"]) or min(alpha) < 0 or max(alpha) == 0:
        raise ConfigError(f"scenario.alpha must be one or M={sc['M']} weights >= 0, not all 0")
    if sc["train_size"] < 1 or sc["test_size"] < 0:
        raise ConfigError("train_size must be >= 1 and test_size >= 0")
    mc = cfg["model"]
    if mc["arch"] not in ("qgnn", "gcn"):
        raise ConfigError(f"unknown model.arch {reprlib.repr(mc['arch'])}")
    for key in ("layers", "depth", "k", "hidden"):
        if mc[key] < (0 if key == "k" else 1):
            raise ConfigError(f"model.{key} out of range")
    tc = cfg["train"]
    if tc["epochs"] < 0 or tc["batch"] < 1 or tc["lr"] <= 0:
        raise ConfigError("train.epochs >= 0, train.batch >= 1, train.lr > 0 required")
    if not all(0 <= seed < 2 ** 64 for seed in tc["seeds"].values()):
        raise ConfigError("train.seeds.data, init and stars must be in [0, 2^64)")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["io"]["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # guarded here: main() lets BrokenPipeError through to run()
        raise ConfigError(f"cannot create io.out_dir: {exc}") from exc
    return out


def _dataset_path(cfg: dict) -> Path:
    p = Path(cfg["io"]["dataset"])
    return p if p.is_absolute() else _out_dir(cfg) / p


def _build_model(cfg: dict):
    mc = cfg["model"]
    if mc["arch"] == "qgnn":
        return QgnnModel(layers=mc["layers"], depth=mc["depth"], k=mc["k"])
    return GcnModel(hidden=mc["hidden"], layers=mc["layers"])


def _train_config(cfg: dict) -> TrainConfig:
    tc = cfg["train"]
    return TrainConfig(**{**tc, "seeds": SeedConfig(**tc["seeds"])})


def cmd_gen(cfg: dict) -> int:
    """Draw the train/test realizations and write the dataset file."""
    sc = cfg["scenario"]
    data_seed = cfg["train"]["seeds"]["data"]
    gains = {}
    for tag, (split, count_key) in enumerate((("train", "train_size"), ("test", "test_size"))):
        geom, fade = (np.array([mix_seed(data_seed, stream, tag, idx)
                                for idx in range(sc[count_key])], dtype=np.uint64)
                      for stream in (_GEOM_STREAM_TAG, _FADE_STREAM_TAG))
        try:  # one call of each per split, looked up on the module (the tracer wraps them)
            scen = ch.generate_scenario(M=sc["M"], d=sc["d"], d_min=sc["d_min"],
                                        d_max=sc["d_max"], seed=geom)
        except ch.GeometryError as exc:  # no receiver position found
            raise ConfigError(f"{split} realization {exc.index}: {exc}") from exc
        gains[split] = ch.realize_channels(scen, pathloss_exp=sc["pathloss_exp"], seed=fade)
    path = _dataset_path(cfg)
    meta = {"seed": data_seed, "scenario": {key: sc[key] for key in
            ("d", "d_min", "d_max", "pathloss_exp")}}
    try:  # save_dataset checks each split once, before it opens the file
        ch.save_dataset(path, gains["train"], gains["test"], sc["sigma2"], sc["alpha"],
                        sc["p_max"], meta)
    except ch.SplitError as exc:  # the scenario's numbers overflow a realization
        raise ConfigError(f"{exc.split} realization {exc.index}: {exc.__cause__}") from exc
    except OSError as exc:  # guarded here: main() lets BrokenPipeError through to run()
        raise ConfigError(f"cannot write dataset: {exc}") from exc
    print(f"wrote {len(gains['train'])} train + {len(gains['test'])} test "
          f"realizations of M={sc['M']} to {path}")
    return 0


def _load_instances(cfg: dict):
    path = _dataset_path(cfg)
    if not path.exists():
        raise ConfigError(f"dataset not found: {path} (run gen first)")
    try:
        return ch.load_dataset(path)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _instances(label: str, channels: ch.ChannelBatch, scaler):
    return [Instance(f"{label}/{i}", c, build_graph(c, scaler)) for i, c in enumerate(channels)]


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
    # every rate is 0 when every test realization's gains are, so no ratio
    ratio = f" ratio={model_mean / baseline:.6g}" if baseline else ""
    print(f"wmmse test_mean_bpshz={baseline:.12g}{ratio}")
    if oracle_levels is not None:
        oracle_mean = float(np.mean([grid_search_oracle(c, oracle_levels)[1] for c in test_ch]))
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
    except MemoryError as exc:  # numpy's names the array a configured size made too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (NonFiniteLossError, NonFinitePowerError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:  # as the signal docs advise: exit's own flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
