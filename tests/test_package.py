"""The package's public face: the README's library example runs as written,
and the package root exports the models, not the gate-level test oracle."""

import re
from pathlib import Path

import qgpc

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
