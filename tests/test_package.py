"""The package's public face: the README's library example runs as written,
the package root exports the models, not the gate-level test oracle, and
the calls the benchmark (perfbench/workloads.py) makes keep working."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import qgpc
from qgpc import channels, checkpoint, cli, gcn, graph, qgnn, trainer, wmmse

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and "vs WMMSE" in printed[0]


def test_the_package_root_exports_no_simulator_names():
    oracle = ["CircuitSpec", "Gate", "Observable", "StateVector", "expectation",
              "param_shift_grad", "run_circuit", "build_qgcl_circuit"]
    assert [name for name in oracle if hasattr(qgpc, name)] == []


@pytest.mark.parametrize("arch", ["qgnn", "gcn"])
def test_the_benchmark_calls_run_in_its_order_at_tiny_size(arch, tmp_path, monkeypatch):
    # perfbench/workloads.py: setup, a train unit and an eval unit, then
    # check_powers and oracle_mean, each call shaped as it is there
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    seeds = {"data": 5, "init": 6, "stars": 7}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "version": 1,
        "scenario": {"M": 3, "train_size": 5, "test_size": 3},
        "model": {"arch": arch, "layers": 2, "depth": 1, "k": 2, "hidden": 4},
        "train": {"epochs": 1, "lr": 0.05, "batch": 5, "seeds": seeds},
        "io": {"dataset": "dataset.jsonl", "out_dir": str(tmp_path)},
    }))
    cfg = cli.load_config(str(config_path), [])
    assert cli.main(["--config", str(config_path), "gen"]) == 0
    train_ch, test_ch, _ = channels.load_dataset(tmp_path / cfg["io"]["dataset"])
    scaler = graph.fit_feature_scaler(train_ch)
    train_set = [trainer.Instance(f"train/{i}", c, graph.build_graph(c, scaler))
                 for i, c in enumerate(train_ch)]
    test_set = [trainer.Instance(f"test/{i}", c, graph.build_graph(c, scaler))
                for i, c in enumerate(test_ch)]
    train_cfg = trainer.TrainConfig(epochs=1, lr=0.05, batch=5,
                                    seeds=trainer.SeedConfig(**seeds))
    model = (qgnn.QgnnModel(layers=2, depth=1, k=2) if arch == "qgnn"
             else gcn.GcnModel(hidden=4, layers=2))
    params = model.init_params(np.random.default_rng(0))
    checkpoint.save_checkpoint(tmp_path / f"{model.name}_checkpoint.json", model.name,
                               model.arch_dict(), params, scaler)
    report = trainer.train(model, train_set, test_set, train_cfg)
    assert np.isfinite(report.test_curve[-1]) and report.wmmse_test_mean > 0
    argv = ["--config", str(config_path), "eval", "--oracle-levels", "3"]
    assert cli.main(argv) == 0
    assert np.isfinite(trainer.evaluate_mean(model, params, test_set, train_cfg.seeds))
    for idx, inst in enumerate(test_set):
        p = model.forward(inst.channels, inst.graph, params,
                          trainer.eval_star_seed(train_cfg.seeds, idx))
        assert np.all(np.isfinite(p) & (p >= 0.0) & (p <= inst.channels.p_max))
    oracle = [wmmse.grid_search_oracle(inst.channels, 3)[1] for inst in test_set]
    assert np.isfinite(np.mean(oracle)) and {inst.channels.M for inst in test_set} == {3}
