"""Output checks that record failures by name instead of raising."""

from __future__ import annotations

import math
import sys
import traceback
from collections import Counter

import numpy as np


class Checks:
    """Counts every check attempted and every one that failed.

    A failure is kept with the first detail seen for its name, so one bad
    run reports which check tripped without flooding the record.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.details: dict[str, str] = {}

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed[name] += 1
            self.details.setdefault(name, detail)
        return ok

    def powers(self, p, p_max: float, label: str) -> bool:
        """Every decoded power is finite and within [0, p_max]."""
        p = np.asarray(p, dtype=float)
        ok = bool(p.size and np.all(np.isfinite(p)) and np.all(p >= 0.0)
                  and np.all(p <= p_max))
        return self.check("powers.in_range", ok, f"{label}: {p.tolist()} vs p_max={p_max}")

    def finite(self, name: str, value) -> bool:
        ok = value is not None and math.isfinite(float(value))
        return self.check(name, ok, f"value {value!r}")

    def same(self, name: str, a, b) -> bool:
        return self.check(name, a == b, f"{a!r:.200} != {b!r:.200}")

    def guard(self, name: str, fn, *args, **kwargs):
        """Call fn; an exception counts as a failed check and yields None."""
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed pass must not end the benchmark
            traceback.print_exc(file=sys.stderr)
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(name, True)
        return out

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed_total,
                "failures": {name: {"count": n, "first": self.details[name]}
                             for name, n in self.failed.items()}}
