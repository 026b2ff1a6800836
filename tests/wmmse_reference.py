"""The per-start WMMSE loop that wmmse.wmmse_batch replaced, kept as its
reference: one start of one instance per sweep loop, one matrix-vector
product per block update, and the starts tried one by one in order."""

import numpy as np

from qgpc.channels import ChannelBatch, _sinr_terms, sum_rate
from qgpc.wmmse import WmmseResult


def wmmse_sweeps(channels: ChannelBatch, v0: np.ndarray) -> WmmseResult:
    """Block-coordinate sweeps from one start until the objective moves by
    at most TOL, or MAX_ITER sweeps; start is left at 0."""
    from qgpc import wmmse

    B2 = channels.gain
    alpha = channels.alpha
    p_max = channels.p_max

    def blocks(v):
        # u = g_mm v / t and w = 1 / (1 - Re(conj(u) g_mm v)) = 1 + gamma in
        # real form: the numerator alpha w Re(conj(u) g_mm) and the
        # coefficient alpha w |u|^2 from the direct power d and the
        # interference-plus-noise n, t = d + n
        _, _, bdiag, d, n = _sinr_terms(channels, v)
        t = d + n
        numer = alpha * (1.0 + d / n) * bdiag * v / t
        return numer, numer * v / t

    v = np.array(v0, dtype=float)
    obj = sum_rate(channels, v)
    trace = [obj]
    best_p, best_obj = v.copy(), obj
    numer, coeff = blocks(v)
    converged = False
    iterations = 0
    for _ in range(wmmse.MAX_ITER):
        iterations += 1
        v = np.clip(numer / np.maximum(B2 @ coeff, wmmse._V_DENOM_FLOOR), 0.0, p_max)
        numer, coeff = blocks(v)
        prev = obj
        obj = sum_rate(channels, v)
        trace.append(obj)
        if obj > best_obj:
            best_p, best_obj = v.copy(), obj
        if abs(obj - prev) <= wmmse.TOL:
            converged = True
            break
    return WmmseResult(
        p=best_p, objective=best_obj, trace=np.asarray(trace),
        converged=converged, iterations=iterations, start=0,
    )


def starts(channels: ChannelBatch) -> list[np.ndarray]:
    """Full power, one corner per pair (M > 1), then the seeded restarts."""
    from qgpc import wmmse

    m = channels.M
    p_max = channels.p_max
    out = [np.full(m, p_max)] + (list(p_max * np.eye(m)) if m > 1 else [])
    for r in range(wmmse.RANDOM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0, wmmse._RESTART_STREAM_TAG, r]))
        out.append(rng.uniform(0.0, p_max, size=m))
    return out


def wmmse_allocate(channels: ChannelBatch) -> WmmseResult:
    """The best start's record; a later start wins only by a strict
    improvement, so ties keep the earliest."""
    best = None
    for index, v0 in enumerate(starts(channels)):
        res = wmmse_sweeps(channels, v0)
        if best is None or res.objective > best.objective:
            best = res
            best.start = index
    return best
