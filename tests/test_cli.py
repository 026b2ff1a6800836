"""End-to-end command-line pipeline, run in process through cli.main (and in
subprocesses where the process boundary itself is under test)."""

import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgpc.cli as cli
from qgpc import channels as ch
from qgpc.checkpoint import (CHECKPOINT_VERSION, KNOWN_KINDS, CheckpointError, load_checkpoint,
                             save_checkpoint)
from qgpc.cli import DEFAULT_CONFIG, ConfigError, load_config, main
from qgpc.gcn import GcnModel
from qgpc.graph import fit_feature_scaler
from qgpc.qgnn import QgnnModel
from qgpc.trainer import NonFiniteLossError


def _args(out_dir, *extra):
    """Tiny but complete pipeline configuration."""
    base = [
        "--set", f"io.out_dir={out_dir}",
        "--set", "scenario.M=3",
        "--set", "scenario.train_size=8",
        "--set", "scenario.test_size=4",
        "--set", "model.layers=1",
        "--set", "model.k=1",
        "--set", "model.hidden=4",
        "--set", "train.epochs=2",
    ]
    return base + list(extra)


def _csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_gen_writes_dataset_and_is_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_args(a) + ["gen"]) == 0
    out = capsys.readouterr().out
    assert "wrote 8 train + 4 test realizations of M=3" in out
    assert main(_args(b) + ["gen"]) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    header = json.loads((a / "dataset.jsonl").read_text().split("\n")[0])
    assert header["M"] == 3 and header["train"] == 8 and header["test"] == 4


def test_train_zero_epochs_writes_baseline_csv(tmp_path):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    head, rows = _csv_rows(tmp_path / "qgnn_train_report.csv")
    assert head == ["epoch", "train_mean_bpshz", "test_mean_bpshz", "wmmse_test_mean_bpshz"]
    assert len(rows) == 1 and rows[0][0] == "0"
    assert (tmp_path / "qgnn_checkpoint.json").exists()


def test_train_then_eval_reproduces_final_test_mean(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval"]) == 0
    out = capsys.readouterr().out
    printed = float(out.split("test_mean_bpshz=")[1].split()[0])
    _, rows = _csv_rows(tmp_path / "qgnn_train_report.csv")
    assert len(rows) == 3  # baseline + 2 epochs
    assert printed == pytest.approx(float(rows[-1][2]), rel=1e-12)
    assert "ratio=" in out


def test_eval_oracle_bound_on_small_instances(tmp_path, capsys):
    args = [
        "--set", f"io.out_dir={tmp_path}", "--set", "scenario.M=2",
        "--set", "scenario.train_size=3", "--set", "scenario.test_size=3",
        "--set", "model.arch=gcn", "--set", "model.hidden=4",
        "--set", "model.layers=1", "--set", "train.epochs=1",
    ]
    assert main(args + ["gen"]) == 0
    assert main(args + ["train"]) == 0
    capsys.readouterr()
    assert main(args + ["eval", "--oracle-levels", "17"]) == 0
    out = capsys.readouterr().out
    model_mean = float(out.split("test_mean_bpshz=")[1].split()[0])
    wmmse = float(out.split("wmmse test_mean_bpshz=")[1].split()[0])
    oracle = float(out.split("oracle(levels=17) test_mean_bpshz=")[1].split()[0])
    assert oracle >= wmmse - 1e-9
    assert oracle >= model_mean - 1e-9


@pytest.mark.parametrize("levels", ["1", "100"])  # < 2 levels; 100**4 points > guard
def test_oracle_levels_are_checked_before_any_work(tmp_path, monkeypatch, capsys, levels):
    args = _args(tmp_path, "--set", "scenario.M=4", "--set", "train.epochs=0")
    assert main(args + ["gen"]) == 0
    assert main(args + ["train"]) == 0
    capsys.readouterr()

    def no_work(*_):
        raise AssertionError("eval ran before --oracle-levels was checked")

    monkeypatch.setattr(cli, "evaluate_mean", no_work)
    monkeypatch.setattr(cli, "wmmse_mean", no_work)
    assert main(args + ["eval", "--oracle-levels", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --oracle-levels {levels}: ")
    assert captured.err.count("\n") == 1


def test_both_archs_share_the_wmmse_baseline_column(tmp_path):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    assert main(_args(tmp_path, "--set", "model.arch=gcn") + ["train"]) == 0
    _, q_rows = _csv_rows(tmp_path / "qgnn_train_report.csv")
    _, g_rows = _csv_rows(tmp_path / "gcn_train_report.csv")
    assert len(q_rows) == len(g_rows) == 3
    assert {r[3] for r in q_rows} == {r[3] for r in g_rows}
    assert len({r[3] for r in q_rows}) == 1


def test_eval_rejects_checkpoint_with_other_architecture(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    code = main(_args(tmp_path, "--set", "model.depth=2") + ["eval"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_checkpoint_and_missing_dataset(tmp_path, capsys):
    assert main(_args(tmp_path) + ["train"]) == 2
    assert "run gen first" in capsys.readouterr().err
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["eval"]) == 2
    assert "checkpoint not found" in capsys.readouterr().err


def test_bad_overrides_exit_with_config_error(tmp_path, capsys):
    assert main(_args(tmp_path, "--set", "train.bogus=1") + ["gen"]) == 2
    assert main(_args(tmp_path, "--set", "nosection.x=1") + ["gen"]) == 2
    assert main(_args(tmp_path, "--set", "train.epochs") + ["gen"]) == 2
    assert main(_args(tmp_path, "--set", "train.epochs=abc") + ["gen"]) == 2
    assert main(_args(tmp_path, "--set", "scenario.M=0") + ["gen"]) == 2
    assert main(_args(tmp_path, "--set", "scenario.d_min=500") + ["gen"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 6


@pytest.mark.parametrize("override", [
    "scenario.sigma2=NaN", "scenario.p_max=Infinity", "scenario.pathloss_exp=NaN",
    "scenario.alpha=NaN", "scenario.d=Infinity", "train.lr=NaN", "train.beta2=NaN",
    "train.eps=NaN", "train.lr=Infinity", "train.beta1=1.0", "train.beta1=-1", "train.eps=0",
    "scenario.M=3.7", "scenario.M=4.0", "scenario.train_size=true", "train.epochs=1.9",
    "model.layers=1.5", "train.seeds.data=1.5", "version=2",
    "train.seeds.data=-1", "train.seeds.init=-5", "train.seeds.stars=-2",
])
def test_non_finite_or_out_of_range_numbers_exit_with_config_error(tmp_path, capsys, override):
    # a train key is given to train on a valid dataset, which would otherwise run
    command = "gen" if override.startswith("scenario.") else "train"
    if command == "train":
        assert main(_args(tmp_path) + ["gen"]) == 0
        capsys.readouterr()
    assert main(_args(tmp_path, "--set", override) + [command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_config_file_merges_over_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"M": 5, "train_size": 2, "test_size": 1},
        "io": {"out_dir": str(tmp_path)},
    }))
    cfg = load_config(str(cfg_path), [])
    assert cfg["scenario"]["M"] == 5
    assert cfg["scenario"]["d"] == DEFAULT_CONFIG["scenario"]["d"]
    assert cfg["train"]["epochs"] == 50
    assert main(["--config", str(cfg_path), "gen"]) == 0
    header = json.loads((tmp_path / "dataset.jsonl").read_text().split("\n")[0])
    assert header["M"] == 5


def test_config_file_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["--config", str(bad_json), "gen"]) == 2
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    assert main(["--config", str(not_object), "gen"]) == 2
    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text(json.dumps({"version": 9}))
    assert main(["--config", str(wrong_version), "gen"]) == 2
    unknown_section = tmp_path / "extra.json"
    unknown_section.write_text(json.dumps({"mystery": {}}))
    assert main(["--config", str(unknown_section), "gen"]) == 2
    assert main(["--config", str(tmp_path / "missing.json"), "gen"]) == 2
    assert capsys.readouterr().err.count("error:") == 5


def test_set_flags_merge_like_a_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"seeds": {"data": 5}}}))
    cfg = load_config(None, ['train.seeds={"data": 5}'])
    assert cfg == load_config(str(path), [])
    assert cfg["train"]["seeds"] == {"data": 5, "init": 2, "stars": 3}


def test_undecodable_file_or_a_section_replaced_by_the_environment_exits_two(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert main(["--config", str(binary), "gen"]) == 2
    assert main(["--set", "train.epochs=" + "1" * 5000, "gen"]) == 2  # past int()'s digit limit
    assert main(["--set", "io=5", "gen"]) == 2  # QGPC_OUT_DIR leaves io without dataset
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: ") == 3
    assert not (tmp_path / "dataset.jsonl").exists()


def _config_leaves(node, prefix=""):
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _config_leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key


def _leaf(cfg, key):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


_CONFIG_LEAVES = sorted(_config_leaves(DEFAULT_CONFIG))
_BAD_CONFIG_VALUES = (None, "x", [1.0], {"a": 1}, True, 1.5, 4.0, float("nan"), float("inf"),
                      -float("inf"), 0, -1)


@settings(max_examples=400)
@given(key=st.sampled_from(_CONFIG_LEAVES), value=st.sampled_from(_BAD_CONFIG_VALUES))
def test_a_set_leaf_is_refused_or_keeps_its_default_json_type(key, value):
    try:
        cfg = load_config(None, [f"{key}={json.dumps(value)}"])
    except ConfigError:
        return
    assert sorted(_config_leaves(cfg)) == _CONFIG_LEAVES
    for leaf in _CONFIG_LEAVES:
        got, default = _leaf(cfg, leaf), _leaf(DEFAULT_CONFIG, leaf)
        if type(default) is float:
            items = got if leaf == "scenario.alpha" and type(got) is list else [got]
            assert all(type(x) in (int, float) and math.isfinite(x) for x in items), (leaf, got)
        else:
            assert type(got) is type(default), (leaf, got)


def test_load_config_does_not_mutate_defaults():
    before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
    cfg = load_config(None, ["train.epochs=7", "model.arch=gcn"])
    assert cfg["train"]["epochs"] == 7 and cfg["model"]["arch"] == "gcn"
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before
    with pytest.raises(ConfigError):
        load_config(None, ["io.out_dir=3"])  # JSON-parsed to a number


def test_out_dir_environment_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(env_dir))
    assert main(_args(tmp_path / "ignored") + ["gen"]) == 0
    assert (env_dir / "dataset.jsonl").exists()
    assert not (tmp_path / "ignored").exists()


def test_non_finite_training_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0

    def boom(model, train_set, test_set, cfg):
        raise NonFiniteLossError(1, 0, "train/0", float("nan"))

    monkeypatch.setattr(cli, "train", boom)
    assert main(_args(tmp_path) + ["train"]) == 3
    assert "aborted:" in capsys.readouterr().err


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
def test_eval_with_non_finite_powers_exits_three(tmp_path, monkeypatch, capsys, arch):
    args = _args(tmp_path, "--set", f"model.arch={arch}")
    assert main(args + ["gen"]) == 0
    assert main(args + ["train"]) == 0
    model = {"qgnn": QgnnModel, "gcn": GcnModel}[arch]
    real = model._blocks

    def second_goes_nan(self, instances, prepared, seeds):
        for idx, channels, p, backward in real(self, instances, prepared, seeds):
            p[idx == 1] = np.nan
            yield idx, channels, p, backward

    monkeypatch.setattr(model, "_blocks", second_goes_nan)
    capsys.readouterr()
    assert main(args + ["eval"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aborted: ")
    assert "non-finite power" in lines[0] and lines[0].endswith("instance test/1")


def test_checkpoint_round_trip_params_exactly(tmp_path):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    from qgpc.checkpoint import load_checkpoint
    doc = load_checkpoint(tmp_path / "qgnn_checkpoint.json")
    assert doc["kind"] == "qgnn"
    assert doc["arch"] == {"layers": 1, "depth": 1, "k": 1}
    assert doc["params"].dtype == np.float64
    assert doc["params"].shape == (12,)  # 1 layer * 10 angles + 2 decode params


def test_alpha_length_must_match_pair_count(tmp_path, capsys):
    args = _args(tmp_path, "--set", "scenario.M=4", "--set", "scenario.alpha=[1,2]")
    assert main(args + ["gen"]) == 2
    assert "scenario.alpha" in capsys.readouterr().err


def test_dataset_header_without_sigma2_is_a_config_error(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.jsonl"
    lines = path.read_text().split("\n")
    header = json.loads(lines[0])
    del header["sigma2"]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]))
    assert main(_args(tmp_path) + ["train"]) == 2
    assert "sigma2" in capsys.readouterr().err


def test_dataset_header_values_are_type_checked(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.jsonl"
    lines = path.read_text().split("\n")
    capsys.readouterr()
    for key, value in (("M", None), ("p_max", None), ("sigma2", None), ("alpha", None),
                       ("M", float("inf")), ("sigma2", float("nan")), ("p_max", float("inf")),
                       ("alpha", [1.0, -float("inf"), 1.0]), ("train", "8")):
        header = json.loads(lines[0])
        header[key] = value
        path.write_text("\n".join([json.dumps(header)] + lines[1:]))
        assert main(_args(tmp_path) + ["train"]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


def test_checkpoint_scaler_needs_finite_numbers_and_positive_scales(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    good = json.loads(ckpt.read_text())
    capsys.readouterr()
    for key, value in (("mu", None), ("sigma", "x"), ("sigma", 0), ("z_clip", -1.0),
                       ("mu", float("inf")), ("sigma", True)):
        doc = json.loads(json.dumps(good))
        doc["scaler"][key] = value
        ckpt.write_text(json.dumps(doc))
        assert main(_args(tmp_path) + ["eval"]) == 2, (key, value)
        captured = capsys.readouterr()
        assert captured.out == "" and "scaler" in captured.err


def test_checkpoint_holding_a_json_array_is_refused(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    (tmp_path / "qgnn_checkpoint.json").write_text("[1, 2]")
    assert main(_args(tmp_path) + ["eval"]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_feature_dim_is_not_a_config_key(tmp_path, capsys):
    assert main(_args(tmp_path, "--set", "model.feature_dim=3") + ["train"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_version_one_checkpoint_is_refused(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["version"] = 1
    doc["arch"]["feature_dim"] = 2
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unsupported checkpoint version 1\n"


def test_eval_prints_evaluate_mean_exactly(tmp_path, capsys):
    from qgpc import channels as ch
    from qgpc.checkpoint import load_checkpoint
    from qgpc.graph import build_graph
    from qgpc.qgnn import QgnnModel
    from qgpc.trainer import Instance, SeedConfig, evaluate_mean

    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval"]) == 0
    printed = capsys.readouterr().out.split("test_mean_bpshz=")[1].split()[0]
    doc = load_checkpoint(tmp_path / "qgnn_checkpoint.json")
    _, test_ch, _ = ch.load_dataset(tmp_path / "dataset.jsonl")
    test_set = [Instance(f"test/{i}", c, build_graph(c, doc["scaler"]))
                for i, c in enumerate(test_ch)]
    model = QgnnModel(layers=1, depth=1, k=1)
    assert printed == format(evaluate_mean(model, doc["params"], test_set, SeedConfig()), ".12g")


def test_dataset_record_without_split_is_a_config_error(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.jsonl"
    lines = path.read_text().split("\n")
    record = json.loads(lines[3])
    del record["split"]
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(_args(tmp_path) + ["train"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 4" in err and "split" in err
    record["split"], record["G"] = "train", [[1.0, 0.0]]  # G that is not M x M pairs
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines))
    assert main(_args(tmp_path) + ["train"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys_inside_known_sections(tmp_path, capsys):
    full = tmp_path / "full.json"
    full.write_text(json.dumps(DEFAULT_CONFIG))
    assert load_config(str(full), []) == load_config(None, [])
    for doc, key in (({"train": {"bogus": 1}}, "train.bogus"),
                     ({"model": {"feature_dim": 3}}, "model.feature_dim"),
                     ({"train": {"seeds": {"extra": 4}}}, "train.seeds.extra")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "gen"]) == 2
        from_file = capsys.readouterr().err
        assert main(["--set", f"{key}=1", "gen"]) == 2
        assert from_file == capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not (tmp_path / "dataset.jsonl").exists()


def test_checkpoint_with_nan_param_or_fractional_arch_is_refused(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    good = json.loads(ckpt.read_text())
    nan_param = json.loads(ckpt.read_text())
    nan_param["params"][-1] = float("nan")
    half_layer = json.loads(ckpt.read_text())
    half_layer["arch"]["layers"] = 1.5
    capsys.readouterr()
    for doc, words in ((nan_param, "finite"), (half_layer, "non-integer")):
        ckpt.write_text(json.dumps(doc))
        assert main(_args(tmp_path) + ["eval"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and words in captured.err
    ckpt.write_text(json.dumps(good))
    assert main(_args(tmp_path) + ["eval"]) == 0


def test_minibatch_training_csv_is_byte_identical_on_rerun(tmp_path):
    blobs = []
    for sub in ("first", "second"):
        args = _args(tmp_path / sub, "--set", "train.batch=3", "--set", "model.layers=2",
                     "--set", "model.k=2")
        assert main(args + ["gen"]) == 0
        assert main(args + ["train"]) == 0
        blobs.append((tmp_path / sub / "qgnn_train_report.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0].decode().strip().split("\n")) == 4  # header, baseline, 2 epochs


# Reports of a tiny run at the default seeds and models. A change that moves
# any random stream or float result of the pipeline shows up as an edit here.
TINY_REPORTS = {
    "qgnn": """epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz
0,0.356358966151,0.54137578454,1.43754541481
1,0.371557292821,0.562388366619,1.43754541481
2,0.386946103849,0.583587461864,1.43754541481
""",
    "gcn": """epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz
0,0.332969625178,0.50885334067,1.43754541481
1,0.381620744498,0.576275770072,1.43754541481
2,0.540327078795,0.789106660988,1.43754541481
""",
}


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
def test_tiny_run_reports_are_pinned(tmp_path, arch):
    args = ["--set", f"io.out_dir={tmp_path}", "--set", "scenario.M=3",
            "--set", "scenario.train_size=12", "--set", "scenario.test_size=6",
            "--set", "train.epochs=2", "--set", f"model.arch={arch}"]
    assert main(args + ["gen"]) == 0
    assert main(args + ["train"]) == 0
    assert (tmp_path / f"{arch}_train_report.csv").read_text() == TINY_REPORTS[arch]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_overflowing_parameters_abort_with_one_stderr_line(tmp_path, capsys, command):
    # parameters near 1e300 overflow the GCN's products; the non-finite
    # powers must end the run with one message, no numpy warning before it
    args = _args(tmp_path, "--set", "model.arch=gcn")
    assert main(args + ["gen"]) == 0
    if command == "train":
        args += ["--set", "train.lr=1e300"]
    else:
        assert main(args + ["train"]) == 0
        path = tmp_path / "gcn_checkpoint.json"
        doc = json.loads(path.read_text())
        doc["params"] = [(1e300, -1e300)[i % 2] for i in range(len(doc["params"]))]
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args + [command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aborted: ")


@functools.cache
def _valid_files() -> tuple[str, str]:
    """Text of a small valid dataset and of a valid GCN checkpoint for it."""
    realizations = [ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=s), seed=s)
                    for s in range(3)]
    model = GcnModel(hidden=4, layers=1)
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt = Path(tmp) / "dataset.jsonl", Path(tmp) / "ckpt.json"
        ch.save_dataset(data, realizations[:2], realizations[2:], {"seed": 1})
        save_checkpoint(ckpt, "gcn", model.arch_dict(),
                        model.init_params(np.random.default_rng(0)),
                        fit_feature_scaler(realizations[:2]))
        return data.read_text(), ckpt.read_text()


_DATASET_FIELDS = [("header", key) for key in
                   ("version", "kind", "M", "sigma2", "alpha", "p_max", "seed", "train", "test")]
_DATASET_FIELDS += [("record", key) for key in ("split", "idx", "G")]
_CHECKPOINT_FIELDS = [("version",), ("kind",), ("arch",), ("arch", "hidden"), ("arch", "layers"),
                      ("scaler",), ("scaler", "mu"), ("scaler", "sigma"), ("scaler", "z_clip"),
                      ("params",), ("params", 0)]
_BAD_VALUES = (None, "x", [1.0], {"a": 1}, float("nan"), float("inf"), -float("inf"), 0, -1)


def _assert_valid_dataset(train, test, header):
    m = header["M"]
    assert type(m) is int and m >= 1
    assert len(train) == header["train"] and len(test) == header["test"]
    for c in train + test:
        assert c.G.shape == (m, m) and np.all(np.isfinite(c.G.view(float)))
        assert np.all(np.isfinite(c.sigma2) & (c.sigma2 > 0))
        assert np.all(np.isfinite(c.alpha) & (c.alpha >= 0))
        assert math.isfinite(c.p_max) and c.p_max > 0


def _assert_valid_checkpoint(doc):
    assert doc["version"] == CHECKPOINT_VERSION and doc["kind"] in KNOWN_KINDS
    assert all(type(val) is int for val in doc["arch"].values())
    scaler = doc["scaler"]
    for x in (scaler.mu, scaler.sigma, scaler.z_clip):
        assert type(x) in (int, float) and math.isfinite(x)
    assert scaler.sigma > 0 and scaler.z_clip > 0
    assert doc["params"].ndim == 1 and np.all(np.isfinite(doc["params"]))


@settings(max_examples=200)
@given(field=st.sampled_from(_DATASET_FIELDS + _CHECKPOINT_FIELDS),
       value=st.sampled_from(_BAD_VALUES))
def test_parsers_raise_only_typed_errors_on_a_mutated_field(field, value):
    dataset_text, checkpoint_text = _valid_files()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        if field in _DATASET_FIELDS:
            lines = dataset_text.split("\n")
            line = 0 if field[0] == "header" else 1
            doc = json.loads(lines[line])
            doc[field[1]] = value
            lines[line] = json.dumps(doc)
            path.write_text("\n".join(lines))
            try:
                loaded = ch.load_dataset(path)
            except ValueError:
                return
            _assert_valid_dataset(*loaded)
        else:
            doc = json.loads(checkpoint_text)
            *parents, key = field
            target = doc
            for name in parents:
                target = target[name]
            target[key] = value
            path.write_text(json.dumps(doc))
            try:
                loaded = load_checkpoint(path)
            except CheckpointError:
                return
            _assert_valid_checkpoint(loaded)


def _cli(args, cwd, stdout=subprocess.PIPE, **env):
    """Run ``python -m qgpc.cli`` in a subprocess on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **env}
    env.pop(cli.ENV_OUT_DIR, None)
    return subprocess.run([sys.executable, "-m", "qgpc.cli", *args], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=300, check=False)


def _cli_with_closed_stdout(args, cwd):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child prints
    try:
        return _cli(args, cwd, stdout=write_end)
    finally:
        os.close(write_end)


def test_a_closed_stdout_exits_one_quietly_after_writing_the_outputs(tmp_path):
    gen = _cli_with_closed_stdout(_args(tmp_path) + ["gen"], tmp_path)
    assert (gen.returncode, gen.stderr) == (1, b"")
    assert (tmp_path / "dataset.jsonl").exists()
    assert main(_args(tmp_path) + ["train"]) == 0
    evaluation = _cli_with_closed_stdout(_args(tmp_path) + ["eval"], tmp_path)
    assert (evaluation.returncode, evaluation.stderr) == (1, b"")


def test_reports_and_checkpoints_are_byte_identical_across_blas_threads(tmp_path):
    # At M=64 the GCN's matrix products are large enough for OpenBLAS to split
    # them across two threads; at M=16 no product is, nor any of the QGNN's.
    args = ["--set", "scenario.M=64", "--set", "scenario.train_size=24",
            "--set", "scenario.test_size=8", "--set", "train.epochs=2"]
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for command in (["gen"], ["train"], ["--set", "model.arch=gcn", "train"]):
            result = _cli(args + ["--set", f"io.out_dir={out}", *command], tmp_path,
                          OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr.decode()
        files[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(files["1"]) == ["dataset.jsonl", "gcn_checkpoint.json", "gcn_train_report.csv",
                                  "qgnn_checkpoint.json", "qgnn_train_report.csv"]
    assert files["1"] == files["2"]
