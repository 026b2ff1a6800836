"""End-to-end command-line pipeline, run in process through cli.main (and in
subprocesses where the process boundary itself is under test)."""

import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import zipfile
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
    assert (a / "dataset.npz").read_bytes() == (b / "dataset.npz").read_bytes()
    _, _, header = ch.load_dataset(a / "dataset.npz")
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


@pytest.mark.parametrize("command", ["gen", "train"])
def test_dataset_path_naming_a_directory_exits_2(tmp_path, capsys, command):
    (tmp_path / "dataset.npz").mkdir()
    assert main(_args(tmp_path) + [command]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: cannot ")
    assert "dataset.npz" in lines[0]


@pytest.mark.parametrize("command", ["gen", "train"])
@pytest.mark.parametrize("under", ["", "sub"])
def test_out_dir_naming_a_file_exits_2(tmp_path, capsys, command, under):
    # the out dir itself a regular file (FileExistsError), or a path under one (NotADirectoryError)
    (tmp_path / "file").write_text("")
    assert main(_args(tmp_path / "file" / under) + [command]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: cannot create io.out_dir: ")
    assert (tmp_path / "file").read_text() == ""


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
    "train.seeds.stars=18446744073709551616",
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
    _, _, header = ch.load_dataset(tmp_path / "dataset.npz")
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
    assert not (tmp_path / "dataset.npz").exists()


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
    assert (env_dir / "dataset.npz").exists()
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


def test_all_zero_weights_exit_with_config_error(tmp_path, capsys):
    # with every weight 0 every sum rate is 0, WMMSE's too, and eval's ratio divides by it
    for alpha in ("0.0", "[0,0,0]"):
        assert main(_args(tmp_path, "--set", f"scenario.alpha={alpha}") + ["gen"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "scenario.alpha" in err
    assert main(_args(tmp_path, "--set", "scenario.alpha=[0,1.5,0]") + ["gen"]) == 0


def _members(path) -> dict:
    """The arrays of a dataset file, by member name."""
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _write_members(path, members: dict, header: dict | None = None) -> None:
    """Write arrays (object arrays too) as a dataset file, the header
    replaced by ``header`` when one is given."""
    if header is not None:
        members = {**members, "header": np.array(json.dumps(header))}
    with open(path, "wb") as f:
        np.savez(f, **members)


def test_dataset_header_with_all_zero_weights_is_a_config_error(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    capsys.readouterr()
    for alpha, code in ((0.0, 2), ([0.0, 0.0, 0.0], 2), ([0.0, 1.0, 0.0], 0)):
        header = json.loads(str(members["header"]))
        header["alpha"] = alpha
        _write_members(path, members, header)
        for command in ("train", "eval"):
            assert main(_args(tmp_path) + [command]) == code, (alpha, command)
            err = capsys.readouterr().err
            if code:
                assert err.startswith("error:") and err.count("\n") == 1 and "alpha" in err


def test_dataset_header_without_sigma2_is_a_config_error(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    header = json.loads(str(members["header"]))
    del header["sigma2"]
    _write_members(path, members, header)
    assert main(_args(tmp_path) + ["train"]) == 2
    assert "sigma2" in capsys.readouterr().err


def test_dataset_header_values_are_type_checked(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    capsys.readouterr()
    for key, value in (("M", None), ("p_max", None), ("sigma2", None), ("alpha", None),
                       ("M", float("inf")), ("sigma2", float("nan")), ("p_max", float("inf")),
                       ("alpha", [1.0, -float("inf"), 1.0]), ("train", "8")):
        header = json.loads(str(members["header"]))
        header[key] = value
        _write_members(path, members, header)
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


def test_checkpoint_that_is_not_utf8_is_refused(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval", "--checkpoint", str(binary)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot read checkpoint")
    assert len(captured.err.splitlines()) == 1


def test_eval_on_a_test_split_whose_gains_are_all_zero_prints_no_ratio(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    members["G_test"][:] = 0.0
    _write_members(path, members)
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval", "--oracle-levels", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" test_mean_bpshz=0") and out[1] == "wmmse test_mean_bpshz=0"
    assert out[2] == "oracle(levels=3) test_mean_bpshz=0"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_record_whose_gain_power_overflows_is_a_config_error(tmp_path, capsys, command):
    # finite entries, but |G|^2 = 2e616 is not a float
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    members["G_test"][-1, 1, 2] = complex(1e308, 1e308)
    _write_members(path, members)
    capsys.readouterr()
    assert main(_args(tmp_path) + [command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} G_test[3]: |G|^2 must be finite\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_record_whose_received_power_overflows_is_a_config_error(tmp_path, capsys,
                                                                        command):
    # each |g|^2 = 1e308 is a float, but one receiver's sum of three is not
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    members["G_train"][0, :, 0] = 1e154
    _write_members(path, members)
    capsys.readouterr()
    assert main(_args(tmp_path) + [command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} G_train[0]: the power received at p_max must be finite\n"


def test_a_dataset_check_names_the_first_bad_realization_past_index_0(tmp_path):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.npz"
    members = _members(path)
    members["G_test"][2, :, 0] = 1e154  # a received power of 3e308; G_test[0..1] are fine
    _write_members(path, members)
    with pytest.raises(ValueError) as info:
        ch.load_dataset(path)
    assert str(info.value) == f"{path} G_test[2]: the power received at p_max must be finite"


def test_gen_names_the_first_realization_whose_received_power_overflows(tmp_path, capsys):
    # unit path gains, and a p_max whose received power overflows at test
    # realization 2 alone: at data seed 53 its largest receiver sum is over
    # twice the others', and p_max^2 times their geometric mean is the largest float
    scenario = ("--set", "scenario.train_size=1", "--set", "scenario.test_size=3",
                "--set", "scenario.pathloss_exp=0", "--set", "train.seeds.data=53")
    assert main(_args(tmp_path, *scenario) + ["gen"]) == 0
    train, test, _ = ch.load_dataset(tmp_path / "dataset.npz")
    *fine, bad = [float(c.gain.sum(axis=0).max()) for c in [*train, *test]]
    assert bad > 2.0 * max(fine) >= 1.0
    p_max = math.sqrt(sys.float_info.max / math.sqrt(bad * max(fine)))
    (tmp_path / "dataset.npz").unlink()
    capsys.readouterr()
    assert main(_args(tmp_path, *scenario, "--set", f"scenario.p_max={p_max!r}") + ["gen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "dataset.npz").exists()
    assert captured.err == ("error: test realization 2: "
                            "the power received at p_max must be finite\n")


def test_gen_and_load_of_an_empty_test_split(tmp_path, capsys):
    assert main(_args(tmp_path, "--set", "scenario.test_size=0") + ["gen"]) == 0
    train, test, header = ch.load_dataset(tmp_path / "dataset.npz")
    assert len(train) == 8 and len(test) == 0 and header["test"] == 0
    assert _members(tmp_path / "dataset.npz")["G_test"].shape == (0, 3, 3)


def test_gen_on_a_geometry_where_no_receiver_fits_exits_2(tmp_path, capsys):
    geometry = ("--set", "scenario.d=10", "--set", "scenario.d_min=10",
                "--set", "scenario.d_max=10")
    assert main(_args(tmp_path, *geometry) + ["gen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "dataset.npz").exists()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: train realization ")
    assert captured.err.endswith(f" in {ch.MAX_ATTEMPTS} attempts\n")


def test_gen_whose_p_max_overflows_the_received_power_is_a_config_error(tmp_path, capsys):
    assert main(_args(tmp_path, "--set", "scenario.p_max=1e200") + ["gen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "dataset.npz").exists()
    assert captured.err == ("error: train realization 0: "
                            "the power received at p_max must be finite\n")


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
    _, test_ch, _ = ch.load_dataset(tmp_path / "dataset.npz")
    test_set = [Instance(f"test/{i}", c, build_graph(c, doc["scaler"]))
                for i, c in enumerate(test_ch)]
    model = QgnnModel(layers=1, depth=1, k=1)
    assert printed == format(evaluate_mean(model, doc["params"], test_set, SeedConfig()), ".12g")


# a dataset of the JSON-lines format that .npz files replaced
_JSONL_DATASET = ('{"M":3,"kind":"d2d-dataset","test":0,"train":1,"version":1}\n'
                  '{"G":[[[1.0,0.0]]],"idx":0,"split":"train"}\n')
_NOT_A_DATASET = ("jsonl", "empty", "lone_array", "truncated", "encrypted", "bad_npy_header",
                  "bad_directory_offset", "object_array", "no_test_split")
_BAD_GAINS = ("float_gains", "int_gains", "shape_against_M", "count_mismatch",
              "non_finite_entry")


def _make_malformed(path, case: str) -> str:
    """Rewrite the dataset at ``path`` into ``case``; returns what its error names."""
    members = _members(path)
    if case == "jsonl":
        path.write_text(_JSONL_DATASET)
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "lone_array":  # a .npy file, not an .npz
        with open(path, "wb") as f:
            np.save(f, members["G_train"])
    elif case == "truncated":  # cut inside G_train, the bulk of the file
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif case == "encrypted":  # each central directory entry flagged as encrypted
        data = bytearray(path.read_bytes())
        at = data.find(b"PK\x01\x02")
        while at >= 0:
            data[at + 8] |= 1
            at = data.find(b"PK\x01\x02", at + 4)
        path.write_bytes(bytes(data))
    elif case == "bad_npy_header":  # an unclosed bracket in G_train's array header
        with zipfile.ZipFile(path) as archive:
            entries = {name: archive.read(name) for name in archive.namelist()}
        entries["G_train.npy"] = entries["G_train.npy"].replace(b"), }", b",  }", 1)
        with zipfile.ZipFile(path, "w") as archive:  # a valid zip: its CRCs match
            for name, data in entries.items():
                archive.writestr(name, data)
    elif case == "bad_directory_offset":  # the zip's end record points before the file
        data = bytearray(path.read_bytes())
        data[-6] ^= 0xFF
        path.write_bytes(bytes(data))
    elif case == "object_array":  # np.savez pickles it; a reader must not unpickle it
        _write_members(path, {**members, "G_train": members["G_train"].astype(object)})
    elif case == "no_test_split":
        del members["G_test"]
        _write_members(path, members)
    elif case == "non_finite_entry":
        members["G_train"][1, 0, 2] = complex(np.nan, 0.0)
        _write_members(path, members)
        return "G_train[1]"
    else:  # a gain array whose dtype or shape is not the header's
        name, gains = {
            "float_gains": ("G_train", members["G_train"].real),
            "int_gains": ("G_train", np.ones(members["G_train"].shape, dtype=int)),
            "shape_against_M": ("G_train", members["G_train"][:, :2, :2]),
            "count_mismatch": ("G_test", members["G_test"][:3]),
        }[case]
        _write_members(path, {**members, name: gains})
        return name
    return "re-run gen"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", _NOT_A_DATASET + _BAD_GAINS)
def test_a_malformed_dataset_exits_2_with_one_error_line(tmp_path, capsys, case, command):
    assert main(_args(tmp_path) + ["gen"]) == 0
    path = tmp_path / "dataset.npz"
    words = _make_malformed(path, case)
    capsys.readouterr()
    assert main(_args(tmp_path) + [command]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith(f"error: {path}") and words in lines[0]
    for leak in ("pickle", "EOF", "BadZip", "zip file"):  # numpy's and zipfile's own words
        assert leak not in lines[0]


def test_a_configured_dataset_path_is_written_and_read_exactly(tmp_path):
    args = _args(tmp_path, "--set", "io.dataset=data.jsonl")
    assert main(args + ["gen"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]
    assert main(args + ["train"]) == 0


DEEP_JSON = "[" * 100000 + "]" * 100000  # past the recursion limit of json.loads


@pytest.mark.parametrize("reader", ["checkpoint", "config", "override", "dataset"])
def test_deeply_nested_json_is_a_config_error(tmp_path, capsys, reader):
    # json.loads raises RecursionError, not ValueError, on such text
    assert main(_args(tmp_path) + ["gen"]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    path = tmp_path / "dataset.npz"
    runs = {
        "checkpoint": [_args(tmp_path) + ["eval", "--checkpoint", str(deep)]],
        "config": [["--config", str(deep)] + _args(tmp_path) + ["gen"]],
        "override": [_args(tmp_path, "--set", f"scenario.alpha={DEEP_JSON}") + ["gen"]],
        "dataset": [_args(tmp_path) + [command] for command in ("train", "eval")],
    }[reader]
    if reader == "dataset":  # the header member holds the text
        _write_members(path, {**_members(path), "header": np.array(DEEP_JSON)})
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        if reader == "dataset":
            assert captured.err.startswith(f"error: dataset header in {path}: ")


def test_a_long_set_value_is_cut_short_in_its_error(tmp_path, capsys):
    value = "[" * 60000 + "]" * 60000  # not JSON to json.loads, so kept as a string
    assert main(["--set", f"io.out_dir={tmp_path}", "--set", f"scenario.alpha={value}",
                 "gen"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: scenario.alpha must be a finite number") \
        and len(lines[0]) < 200


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
    assert not (tmp_path / "dataset.npz").exists()


def test_checkpoint_with_nan_param_or_fractional_arch_is_refused(tmp_path, capsys):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path, "--set", "train.epochs=0") + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    good = json.loads(ckpt.read_text())
    nan_param = json.loads(ckpt.read_text())
    nan_param["params"][-1] = float("nan")
    half_layer = json.loads(ckpt.read_text())
    half_layer["arch"]["layers"] = 1.5
    # numbers that a lax reader would convert: strings, a boolean, an int
    # beyond the float range, and arch as [key, value] pairs
    string_params = json.loads(ckpt.read_text())
    string_params["params"] = [str(x) for x in string_params["params"]]
    bool_param = json.loads(ckpt.read_text())
    bool_param["params"][0] = True
    huge_param = json.loads(ckpt.read_text())
    huge_param["params"][0] = 10 ** 400
    arch_pairs = json.loads(ckpt.read_text())
    arch_pairs["arch"] = [[key, val] for key, val in arch_pairs["arch"].items()]
    capsys.readouterr()
    for doc, words in ((nan_param, "finite"), (half_layer, "non-integer"),
                       (string_params, "params"), (bool_param, "params"),
                       (huge_param, "params"), (arch_pairs, "arch")):
        ckpt.write_text(json.dumps(doc))
        assert main(_args(tmp_path) + ["eval"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and words in captured.err
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
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
    # k=1 < M - 1: each star takes one of its two neighbours, so this run,
    # unlike the k=2 one above, pins the star stream
    "qgnn-k1": """epoch,train_mean_bpshz,test_mean_bpshz,wmmse_test_mean_bpshz
0,0.356359202939,0.541375284349,1.43754541481
1,0.371559419937,0.562380725037,1.43754541481
2,0.386954252395,0.583566750011,1.43754541481
""",
}


@pytest.mark.parametrize("run", list(TINY_REPORTS))
def test_tiny_run_reports_are_pinned(tmp_path, run):
    arch, _, k = run.partition("-k")
    args = ["--set", f"io.out_dir={tmp_path}", "--set", "scenario.M=3",
            "--set", "scenario.train_size=12", "--set", "scenario.test_size=6",
            "--set", "train.epochs=2", "--set", f"model.arch={arch}"]
    args += ["--set", f"model.k={k}"] if k else []
    assert main(args + ["gen"]) == 0
    assert main(args + ["train"]) == 0
    assert (tmp_path / f"{arch}_train_report.csv").read_text() == TINY_REPORTS[run]


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
def _valid_files() -> tuple[bytes, str]:
    """Bytes of a small valid dataset and text of a valid GCN checkpoint for it."""
    drawn = np.stack([ch.realize_channels(ch.generate_scenario(3, 100.0, 2.0, 10.0, seed=s),
                                          seed=s) for s in range(3)])
    link = (ch.DEFAULT_NOISE_POWER, ch.DEFAULT_WEIGHT, ch.DEFAULT_P_MAX)
    model = GcnModel(hidden=4, layers=1)
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt = Path(tmp) / "dataset.npz", Path(tmp) / "ckpt.json"
        ch.save_dataset(data, drawn[:2], drawn[2:], *link, {"seed": 1})
        save_checkpoint(ckpt, "gcn", model.arch_dict(),
                        model.init_params(np.random.default_rng(0)),
                        fit_feature_scaler(ch.ChannelBatch.from_gains(drawn[:2], *link)))
        return data.read_bytes(), ckpt.read_text()


_DATASET_FIELDS = [("header", key) for key in
                   ("version", "kind", "M", "sigma2", "alpha", "p_max", "seed", "train", "test")]
_DATASET_FIELDS += [("G_train",), ("G_test",), ("G_train", 0, 0, 0)]
_CHECKPOINT_FIELDS = [("version",), ("kind",), ("arch",), ("arch", "hidden"), ("arch", "layers"),
                      ("scaler",), ("scaler", "mu"), ("scaler", "sigma"), ("scaler", "z_clip"),
                      ("params",), ("params", 0)]
_BAD_VALUES = (None, "x", "1.5", True, [1.0], [["layers", 1]], {"a": 1}, float("nan"),
               float("inf"), -float("inf"), 0, -1, 10 ** 400)


def _mutated_gains(gains: np.ndarray, index: tuple, value) -> np.ndarray:
    """The gain array with the whole array (no index) or one entry replaced by
    ``value``, in the dtype numpy gives the result; an object array when it
    gives none."""
    if not index:
        return np.asarray(value)
    held = gains.astype(object)
    held[index] = value
    try:
        return np.array(held.tolist())
    except (ValueError, OverflowError):  # ragged, or an int past every numpy type
        return held


def _assert_valid_dataset(train, test, header, members):
    m = header["M"]
    assert type(m) is int and m >= 1
    assert len(train) == header["train"] and len(test) == header["test"]
    for c, G in zip([*train, *test], [*members["G_train"], *members["G_test"]]):
        assert G.shape == (m, m) and np.all(np.isfinite(G.view(float)))
        assert np.all(np.isfinite(c.sigma2) & (c.sigma2 > 0))
        assert np.all(np.isfinite(c.alpha) & (c.alpha >= 0))
        assert math.isfinite(c.p_max) and c.p_max > 0


def _assert_valid_checkpoint(doc, raw):
    assert isinstance(raw["arch"], dict) and all(map(ch.is_json_number, raw["params"]))
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
    dataset_bytes, checkpoint_text = _valid_files()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        if field in _DATASET_FIELDS:
            path.write_bytes(dataset_bytes)
            members = _members(path)
            if field[0] == "header":
                header = json.loads(str(members["header"]))
                header[field[1]] = value
                _write_members(path, members, header)
            else:
                name, *index = field
                _write_members(path, {**members,
                                      name: _mutated_gains(members[name], tuple(index), value)})
            try:
                loaded = ch.load_dataset(path)
            except ValueError:
                return
            _assert_valid_dataset(*loaded, _members(path))
            assert all(gains.dtype == np.complex128 for name, gains in _members(path).items()
                       if name != "header")
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
            _assert_valid_checkpoint(loaded, doc)


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
    assert (tmp_path / "dataset.npz").exists()
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
    assert sorted(files["1"]) == ["dataset.npz", "gcn_checkpoint.json", "gcn_train_report.csv",
                                  "qgnn_checkpoint.json", "qgnn_train_report.csv"]
    assert files["1"] == files["2"]


@pytest.mark.parametrize("sizes", [["train.epochs=1000000000000"],
                                   ["model.arch=gcn", "model.hidden=10000000"]])
def test_a_size_numpy_cannot_allocate_exits_2_with_one_error_line(tmp_path, capsys, sizes):
    # 10^12 epoch slots, or a GCN layer of 10^14 weights: numpy refuses at once
    assert main(_args(tmp_path) + ["gen"]) == 0
    capsys.readouterr()
    args = _args(tmp_path)
    for size in sizes:
        args += ["--set", size]
    assert main(args + ["train"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_eval_with_a_subnormal_scaler_sigma_warns_nothing(tmp_path, capsys):
    # every standardized feature overflows to +-inf, which the clip saturates
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["scaler"]["sigma"] = 1e-320
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_args(tmp_path) + ["eval"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("case", ["other_kind", "one_param_short"])
def test_eval_refuses_a_checkpoint_the_model_cannot_take(tmp_path, capsys, case):
    assert main(_args(tmp_path) + ["gen"]) == 0
    assert main(_args(tmp_path) + ["train"]) == 0
    ckpt = tmp_path / "qgnn_checkpoint.json"
    if case == "other_kind":
        args = _args(tmp_path, "--set", "model.arch=gcn")
        words = "checkpoint holds 'qgnn', expected 'gcn'"
    else:
        doc = json.loads(ckpt.read_text())
        doc["params"] = doc["params"][:-1]
        ckpt.write_text(json.dumps(doc))
        args, words = _args(tmp_path), "checkpoint has 11 parameters, model needs 12"
    capsys.readouterr()
    assert main(args + ["eval", "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {words}\n"
