"""In-memory span tracing around the public functions of each qgpc module.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span (-1 at the top) and ``run`` the index of the phase label the
span belongs to ("setup", "unit-0", ...). Spans stay in flat lists while the
benchmark runs and are written out once, at the end.

Several qgpc modules bind functions at import (``qgnn`` holds ``run_batch``,
``trainer`` holds ``wmmse_allocate``, ``cli`` holds ``grid_search_oracle``).
A wrapper therefore replaces every module attribute that *is* the original
function object, so the call is traced wherever the name is looked up.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("channels", "qsim", "graph", "qgnn", "gcn", "wmmse", "trainer",
           "checkpoint", "cli")

# Fewest samples for a percentile: at least ten must lie beyond it.
MIN_BEYOND = 10


class Tracer:
    """Span store plus named counters, both filled by the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run_labels: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._run = -1

    def begin_run(self, label: str) -> None:
        self.run_labels.append(label)
        self._run = len(self.run_labels) - 1

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``. ``observe(result,
        args, kwargs)`` runs after the span closes, so its cost is not
        charged to the layer."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self._run)
            self.end.append(math.nan)
            self._stack.append(idx)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(out, args, kwargs)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            run_labels=np.asarray(self.run_labels), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and the
        inclusive durations in milliseconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "ms": dur[mask] * 1e3,
            }
        return out


def percentile(samples: np.ndarray, q: float) -> float | None:
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it."""
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(samples, q))


class Patcher:
    """Replaces functions in the qgpc modules by traced wrappers and puts the
    originals back on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self.modules = [importlib.import_module(f"qgpc.{m}") for m in MODULES]

    def function(self, module: str, attr: str, name: str, observe=None) -> None:
        """Trace ``qgpc.<module>.<attr>`` under every module binding of it."""
        home = importlib.import_module(f"qgpc.{module}")
        original = getattr(home, attr, None)
        if original is None:
            return
        traced = self.tracer.wrap(name, original, observe)
        for mod in self.modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, traced)

    def method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__.get(attr)
        if original is not None:
            self._set(cls, attr, self.tracer.wrap(name, original, observe))

    def _set(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(patcher: Patcher, check_powers) -> None:
    """Wrap the layer boundaries the per-layer metrics are defined on.

    ``check_powers(p, p_max, label)`` sees every power vector a model
    decodes while traced.
    """
    from qgpc import gcn, qgnn

    t = patcher.tracer

    def arg(args, kwargs, i, key):
        return args[i] if len(args) > i else kwargs[key]

    def rows(out, args, kwargs):
        t.count("qsim.run_batch.rows", np.shape(arg(args, kwargs, 1, "angles"))[0])

    def batch_rows(out, args, kwargs):
        t.count("channels.sum_rate_batch.rows", np.shape(arg(args, kwargs, 1, "P"))[0])

    def wmmse_result(out, args, kwargs):
        t.count("wmmse.winner_iterations", out.iterations)
        t.count("wmmse.converged", bool(out.converged))

    def grid_points(out, args, kwargs):
        levels = arg(args, kwargs, 1, "levels")
        t.count("wmmse.grid_oracle.points", float(levels) ** arg(args, kwargs, 0, "channels").M)

    def saved_bytes(out, args, kwargs):
        t.count("channels.save_dataset.bytes", Path(arg(args, kwargs, 0, "path")).stat().st_size)

    def powers(label):
        def observe(out, args, kwargs):
            check_powers(out, arg(args, kwargs, 1, "channels").p_max, label)
        return observe

    patcher.function("qsim", "run_batch", "qsim.run_batch", rows)
    patcher.function("graph", "decompose_stars", "graph.decompose_stars")
    patcher.function("graph", "build_graph", "graph.build_graph")
    for attr in ("sinr", "weighted_sum_rate", "sum_rate", "weighted_sum_rate_grad"):
        patcher.function("channels", attr, "channels.objective")
    patcher.function("channels", "sum_rate_batch", "channels.sum_rate_batch", batch_rows)
    patcher.function("channels", "generate_scenario", "channels.draw")
    patcher.function("channels", "realize_channels", "channels.draw")
    patcher.function("channels", "save_dataset", "channels.save_dataset", saved_bytes)
    patcher.function("channels", "load_dataset", "channels.load_dataset")
    patcher.method(qgnn.QgnnModel, "forward", "qgnn.forward", powers("qgnn.forward"))
    patcher.method(qgnn.QgnnModel, "loss_and_grad", "qgnn.loss_and_grad")
    patcher.method(gcn.GcnModel, "forward", "gcn.forward", powers("gcn.forward"))
    patcher.method(gcn.GcnModel, "loss_and_grad", "gcn.loss_and_grad")
    patcher.function("wmmse", "wmmse_allocate", "wmmse.allocate", wmmse_result)
    patcher.function("wmmse", "grid_search_oracle", "wmmse.grid_oracle", grid_points)
    patcher.function("trainer", "train", "trainer.train")
    patcher.function("trainer", "evaluate_mean", "trainer.evaluate_mean")
    patcher.function("trainer", "adam_step", "trainer.adam_step")
    patcher.function("trainer", "wmmse_mean", "trainer.wmmse_mean")
    patcher.function("checkpoint", "save_checkpoint", "checkpoint.save")
    patcher.function("checkpoint", "load_checkpoint", "checkpoint.load")
    patcher.function("cli", "cmd_eval", "cli.cmd_eval")


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the spans and counters, plus the sample count
    behind each percentile. A percentile without enough samples reads 0 and
    its count says why."""
    spans = tracer.summary()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ms": np.empty(0)}

    def span(name):
        return spans.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    samples: dict[str, int] = {}

    def timing(name, kinds):
        s = span(name)
        if "calls" in kinds:
            m[f"{name}.calls"] = s["calls"]
        if "self_s" in kinds:
            m[f"{name}.self_s"] = s["self_s"]
        for q in (50, 90):
            if f"p{q}" in kinds:
                key = f"{name}.ms.p{q}"
                value = percentile(s["ms"], q)
                m[key] = 0.0 if value is None else value
                samples[key] = s["calls"]

    run_batch = span("qsim.run_batch")
    timing("qsim.run_batch", ("calls", "self_s"))
    m["qsim.run_batch.rows"] = counters["qsim.run_batch.rows"]
    m["qsim.run_batch.rows_per_call"] = ratio(counters["qsim.run_batch.rows"],
                                              run_batch["calls"])
    m["qsim.run_batch.rows_per_s"] = ratio(counters["qsim.run_batch.rows"],
                                           run_batch["total_s"])
    timing("graph.decompose_stars", ("calls", "self_s"))
    timing("graph.build_graph", ("self_s",))
    for name in ("qgnn.forward", "qgnn.loss_and_grad", "gcn.forward", "gcn.loss_and_grad"):
        timing(name, ("calls", "self_s", "p50", "p90"))
    timing("channels.objective", ("calls", "self_s"))
    timing("channels.sum_rate_batch", ("self_s",))
    m["channels.sum_rate_batch.rows"] = counters["channels.sum_rate_batch.rows"]
    m["channels.draw_s"] = span("channels.draw")["total_s"]
    m["channels.save_dataset.s"] = span("channels.save_dataset")["total_s"]
    m["channels.save_dataset.bytes"] = counters["channels.save_dataset.bytes"]
    m["channels.load_dataset.s"] = span("channels.load_dataset")["total_s"]
    allocate = span("wmmse.allocate")
    timing("wmmse.allocate", ("calls", "self_s", "p50", "p90"))
    m["wmmse.winner_iterations.mean"] = ratio(counters["wmmse.winner_iterations"],
                                              allocate["calls"])
    m["wmmse.converged_frac"] = ratio(counters["wmmse.converged"], allocate["calls"])
    timing("wmmse.grid_oracle", ("calls", "self_s"))
    m["wmmse.grid_oracle.points_per_s"] = ratio(counters["wmmse.grid_oracle.points"],
                                                span("wmmse.grid_oracle")["total_s"])
    timing("trainer.train", ("self_s",))
    timing("trainer.evaluate_mean", ("calls", "self_s"))
    timing("trainer.adam_step", ("calls", "self_s"))
    m["trainer.wmmse_mean.s"] = span("trainer.wmmse_mean")["total_s"]
    m["checkpoint.save.s"] = span("checkpoint.save")["total_s"]
    m["checkpoint.load.s"] = span("checkpoint.load")["total_s"]
    timing("cli.cmd_eval", ("self_s",))
    return m, samples
