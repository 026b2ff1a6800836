#!/usr/bin/env python3
"""qgpc benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload qgnn-train-m4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, their
timings in seconds at a reference host speed (see ``hostspeed.py``);
``--trace 1`` reports the per-layer ones. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The full record (the environment, the resolved config, every check and
sample count) is appended to ``--out`` (default
``.perfbench/results.jsonl``); traced runs also write their spans under
``.perfbench/spans/``. ``--compare`` reads two such files.
"""

from __future__ import annotations

import os

# The arrays are tiny; pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QGPC_OUT_DIR", None)  # outputs must stay in the run's work dir

import argparse
import ctypes
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


class SourceMissing(RuntimeError):
    """The checkout has no qgpc sources to benchmark."""


def import_qgpc():
    """Import qgpc from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qgpc" / "__init__.py").is_file():
        raise SourceMissing(f"no qgpc package under {src}")
    sys.path.insert(0, str(src))
    import qgpc

    if Path(qgpc.__file__).resolve().parent != (src / "qgpc").resolve():
        raise SourceMissing(f"qgpc imported from {qgpc.__file__}, not from {src}")
    return qgpc


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; benchmark checkouts
    usually are not, and then the commit is unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": build.get("blas"),
        "blas_threads": {"pinned": os.environ["OPENBLAS_NUM_THREADS"],
                         "reported": _blas_threads()},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import workloads

    w = workloads.WORKLOADS[workload]
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "work"))
    try:
        if trace:
            spans = OUT / "spans" / f"{workload}-seed{seed}.npz"
            result = workloads.run_traced(w, seed, workdir, spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result = workloads.run_untraced(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = result.pop("checks")
    measured = result.pop("metrics")
    missing = [m["name"] for m in wanted if measured.get(m["name"]) is None]
    metrics = {m["name"]: {"value": float(measured.get(m["name"]) or 0.0), "unit": m["unit"]}
               for m in wanted}
    summary = {"correct": checks.failed_total == 0 and not missing,
               "attempted": checks.attempted, "failed": checks.failed_total,
               "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **summary, "missing": missing, "checks": checks.report(),
              "env": environment(), **result}
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for name, info in record["checks"]["failures"].items():
        print(f"check failed: {name} x{info['count']}: {info['first']}", file=sys.stderr)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="results file the full record is appended to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, benchmark_spec()["end_to_end"])
    try:
        import_qgpc()
        import workloads
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
