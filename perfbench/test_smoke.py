"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_qgpc()

import compare  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from checks import Checks  # noqa: E402

SPEC = run.benchmark_spec()


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, train_size=6, test_size=3, epochs=1 if w.trains else 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = workloads.run_untraced(tiny(name), seed=3, seconds=0.0, workdir=tmp_path)
    assert result["checks"].failed_total == 0, result["checks"].report()
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert math.isfinite(value) and value > 0, (m["name"], value)
    assert len(result["seconds"]["setup"]) == workloads.SETUPS
    speed = result["host_speed"]
    assert speed == pytest.approx(hostspeed.GAUGE_REF_S / np.mean(result["seconds"]["gauge"]))
    assert result["metrics"]["wall_s"] == pytest.approx(result["seconds"]["wall"][0] * speed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.npz"
    result = workloads.run_traced(tiny(name), seed=3, workdir=tmp_path / "work",
                                  spans_path=spans)
    assert result["checks"].failed_total == 0, result["checks"].report()
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(math.isfinite(v) for v in metrics.values())
    with np.load(spans) as saved:
        assert saved["start"].size == result["spans"] > 0
        assert np.all(saved["end"] >= saved["start"])
    if name == "gcn-train-m16":
        assert metrics["qsim.run_batch.calls"] == 0
        assert metrics["gcn.loss_and_grad.calls"] > 0
    else:
        assert metrics["qsim.run_batch.calls"] > 0
        assert metrics["qgnn.forward.calls"] > 0
    if name == "eval-oracle-m4":
        assert metrics["wmmse.grid_oracle.calls"] == 3
        assert metrics["cli.cmd_eval.self_s"] > 0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from qgpc import qgnn, qsim, trainer, wmmse

    before = (qsim.run_batch, qgnn.run_batch, trainer.wmmse_allocate, wmmse.sum_rate_batch,
              qgnn.QgnnModel.__dict__["forward"])
    workloads.run_traced(tiny("qgnn-train-m4"), seed=3, workdir=tmp_path,
                         spans_path=tmp_path / "spans.npz")
    after = (qsim.run_batch, qgnn.run_batch, trainer.wmmse_allocate, wmmse.sum_rate_batch,
             qgnn.QgnnModel.__dict__["forward"])
    assert all(a is b for a, b in zip(before, after))


@pytest.fixture(scope="module")
def train_prepared(tmp_path_factory):
    w = tiny("qgnn-train-m4")
    workdir = tmp_path_factory.mktemp("train")
    path, cfg = workloads._write_config(w, 5, workdir)
    checks = Checks()
    prep = workloads.setup(w, path, cfg, checks)
    assert checks.failed_total == 0
    return w, prep


def test_tampered_training_csv_trips_the_output_check(train_prepared):
    w, prep = train_prepared
    first = workloads.train_unit(w, prep)
    again = workloads.train_unit(w, prep)
    checks = Checks()
    workloads.check_unit(w, again, first, checks, "unit")
    assert checks.failed_total == 0
    tampered = dict(again, output=again["output"].replace("1", "2", 1))
    workloads.check_unit(w, tampered, first, checks, "unit")
    assert set(checks.failed) == {"unit.output.identical"}


def test_out_of_range_powers_trip_the_power_check(train_prepared, monkeypatch):
    w, prep = train_prepared
    params = workloads.train_unit(w, prep)["params"]
    checks = Checks()
    workloads.check_powers(prep, params, checks)
    assert checks.failed_total == 0
    real = type(prep.model).forward
    monkeypatch.setattr(type(prep.model), "forward",
                        lambda self, *args: 1.5 * real(self, *args) + 1.0)
    workloads.check_powers(prep, params, checks)
    assert checks.failed["powers.in_range"] == len(prep.test_set)
    for bad in ([np.nan, 0.5], [-1e-9, 0.5], []):
        assert not Checks().powers(np.array(bad), 1.0, "x")


def test_host_gauge_samples_evenly_and_leaves_itself_out_of_the_clock():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostGauge() as host:
        started, started_clock = time.perf_counter(), host.clock()
        while time.perf_counter() - started < 4 * hostspeed.PERIOD_S:
            pass
        gross, net = time.perf_counter() - started, host.clock() - started_clock
    assert len(host.samples) >= 4  # one on entry, then one per period
    assert net < gross - sum(host.samples[1:-1])
    assert host.speed() == pytest.approx(hostspeed.GAUGE_REF_S / np.mean(host.samples))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_raising_unit_is_counted_not_fatal():
    checks = Checks()
    assert checks.guard("unit", lambda: 1 / 0) is None
    assert checks.attempted == 1 and checks.failed["unit"] == 1


def test_percentile_needs_ten_samples_beyond_it():
    from tracing import percentile

    assert percentile(np.arange(19.0), 50) is None
    assert percentile(np.arange(20.0), 50) == pytest.approx(9.5)
    assert percentile(np.arange(999.0), 99) is None
    assert percentile(np.arange(1000.0), 99) is not None


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(steady, [0.8, 0.81, 0.79], "lower", 0.1)[1] == "better"
    assert compare.verdict(steady, [1.3, 1.31, 1.29], "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, [1.02, 1.0, 1.01], "lower", 0.1)[1] == "unchanged"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.verdict(noisy, steady, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(steady, [0.9, 0.905, 0.9], "higher", 0.05)[1] == "worse"


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def record(workload, value):
        return json.dumps({"workload": workload, "trace": 0, "metrics": {
            m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}})

    before, after = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    before.write_text("\n".join(record(w, 1.0) for w in ("x", "x", "y")) + "\n")
    after.write_text("\n".join(record(w, 1.0) for w in ("x", "y", "y")) + "\n")
    assert compare.main(before, after, SPEC["end_to_end"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 2 * len(SPEC["end_to_end"])
    assert all(line.rstrip().endswith("unchanged") for line in lines[1:])


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qgnn-train-m4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no qgpc package" in proc.stderr
