"""Compare two results files, one row per workload and end-to-end metric.

Each side's runs of a workload give a median and quartiles. The delta is the
change of the median as a share of the BEFORE median. The verdict:

- unresolved: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, unless every AFTER run beats every BEFORE run;
- worse: the median got worse by more than the bound;
- better: the median improved by more than the BEFORE side's own spread;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs in a file."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, metric in rec["metrics"].items():
            out[rec["workload"]][name].append(float(metric["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(before: list[float], after: list[float], better: str, bound: float) -> tuple[float, str]:
    """(signed delta as a share of the BEFORE median, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    b_med = statistics.median(before)
    a_med = statistics.median(after)
    if b_med:
        delta = (a_med - b_med) / abs(b_med)
    else:
        delta = 0.0 if a_med == b_med else float("inf") * (1 if a_med > b_med else -1)
    gain = sign * delta  # > 0 means AFTER is better
    all_better = all(sign * a > sign * b for a in after for b in before)
    if max(spread(before), spread(after)) > bound:
        return delta, "better" if all_better else "unresolved"
    if gain < -bound:
        return delta, "worse"
    if gain > 0 and gain > spread(before):
        return delta, "better"
    return delta, "unchanged"


def rows(before: dict, after: dict, metrics: list[dict]) -> list[dict]:
    out = []
    for workload in sorted(set(before) | set(after)):
        for m in metrics:
            b = before.get(workload, {}).get(m["name"], [])
            a = after.get(workload, {}).get(m["name"], [])
            row = {"workload": workload, "metric": m["name"], "unit": m["unit"],
                   "before": quartiles(b) if b else None,
                   "after": quartiles(a) if a else None, "n": (len(b), len(a))}
            if b and a:
                row["delta"], row["verdict"] = verdict(b, a, m["better"], m["bound"])
            else:
                row["delta"], row["verdict"] = None, "missing"
            out.append(row)
    return out


def _fmt(q) -> str:
    return "-" if q is None else f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(before_path: Path, after_path: Path, metrics: list[dict]) -> int:
    table = rows(load(before_path), load(after_path), metrics)
    header = ("workload", "metric", "before median [q1, q3]", "after median [q1, q3]",
              "delta", "verdict")
    lines = [header]
    for r in table:
        delta = "-" if r["delta"] is None else f"{100 * r['delta']:+.2f}%"
        lines.append((r["workload"], f"{r['metric']} ({r['unit']})", _fmt(r["before"]),
                      _fmt(r["after"]), delta, r["verdict"]))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0
