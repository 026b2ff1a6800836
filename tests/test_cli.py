"""End-to-end command-line pipeline, run in process through cli.main."""

import json

import numpy as np
import pytest

import qgpc.cli as cli
from qgpc.cli import DEFAULT_CONFIG, ConfigError, load_config, main
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
