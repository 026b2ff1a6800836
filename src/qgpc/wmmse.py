"""WMMSE power allocation and a brute-force grid oracle.

Scalar single-antenna links with amplitude-domain powers: the transmit
variable v_m is the power amplitude itself (v_m = p_m, not sqrt(p_m)).
Each sweep updates the three blocks in closed form:

    u_m = g_mm v_m / (sum_k |g_km v_k|^2 + sigma2_m)
    w_m = 1 / (1 - conj(u_m) g_mm v_m)
    v_m = alpha_m w_m Re(conj(u_m) g_mm) / (sum_k alpha_k w_k |u_k|^2 |g_mk|^2)

with v clipped to [0, p_max]. Every block minimizes the same weighted-MSE
surrogate exactly, so the sum-rate objective is non-decreasing sweep to sweep.

Sweeps only reach a stationary point, and under strong interference the
full-power start can stall at a poor one (the global optimum may silence a
pair entirely). wmmse_allocate therefore multi-starts: full power, one
corner start per pair (that pair at p_max, the rest silent), and a few
seeded uniform restarts. The best run's record is returned; everything
stays deterministic.

The grid oracle never builds its (levels^M, M) power grid. Receiver m's
interference on the grid is a sum of M one-dimensional terms, term k being
axis^2 |g_km|^2 laid along grid axis k, so each rate is formed by
broadcasting those terms over one lexicographic slab of the grid at a time.
Memory is bounded by a slab, not by the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sum_rate_batch is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .channels import ChannelRealization, sum_rate, sum_rate_batch  # noqa: F401

GRID_POINT_GUARD = 10 ** 7  # bounds the oracle's time; its memory is bounded by a slab
SLAB_POINTS = 1 << 16       # most grid points the oracle evaluates at once
_W_DENOM_FLOOR = 1e-12
_V_DENOM_FLOOR = 1e-300  # turns the 0/0 of an all-silent sweep into v = 0
_RESTART_STREAM_TAG = 0x524553  # restart r draws from SeedSequence([0, tag, r])
MAX_ITER = 100       # sweeps per start
TOL = 1e-6           # a start has converged once a sweep moves the objective by at most this
RANDOM_RESTARTS = 2  # seeded uniform starts after the full-power and corner starts


class InstanceTooLargeError(ValueError):
    """Raised when a grid search would exceed the point-count guard."""


@dataclass(eq=False)
class WmmseResult:
    p: np.ndarray          # best power vector found, in [0, p_max]
    objective: float       # weighted sum rate at p
    trace: np.ndarray      # objective after init and after each sweep
    converged: bool
    iterations: int


def _wmmse_sweeps(channels: ChannelRealization, v0: np.ndarray) -> WmmseResult:
    """Block-coordinate sweeps from one start until the objective moves by
    at most TOL.

    Non-convergence within MAX_ITER is not an error; the best iterate is
    returned with converged=False.
    """
    G = channels.G
    gdiag = np.diagonal(G)
    B2 = np.abs(G) ** 2
    alpha = channels.alpha
    p_max = channels.p_max

    def receiver_weights(v):
        total = (v ** 2) @ B2 + channels.sigma2     # per-receiver total power
        u = gdiag * v / total
        mse_denom = 1.0 - np.real(np.conj(u) * gdiag * v)
        mse_denom = np.maximum(mse_denom, _W_DENOM_FLOOR)
        return u, 1.0 / mse_denom

    v = np.array(v0, dtype=float)
    obj = sum_rate(channels, v)
    trace = [obj]
    best_p, best_obj = v.copy(), obj
    u, w = receiver_weights(v)
    converged = False
    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        coeff = alpha * w * np.abs(u) ** 2
        numer = alpha * w * np.real(np.conj(u) * gdiag)
        v = np.clip(numer / np.maximum(B2 @ coeff, _V_DENOM_FLOOR), 0.0, p_max)
        u, w = receiver_weights(v)
        prev = obj
        obj = sum_rate(channels, v)
        trace.append(obj)
        if obj > best_obj:
            best_p, best_obj = v.copy(), obj
        if abs(obj - prev) <= TOL:
            converged = True
            break
    return WmmseResult(
        p=best_p, objective=best_obj, trace=np.asarray(trace),
        converged=converged, iterations=iterations,
    )


def wmmse_allocate(channels: ChannelRealization) -> WmmseResult:
    """Best WMMSE stationary point over the starts.

    Starts, in order: full power, one corner per pair (that pair at p_max,
    the rest silent), then RANDOM_RESTARTS seeded uniform draws. Ties keep
    the earliest start, so mild instances still return the full-power run's
    answer. The winner's own monotone trace is returned.
    """
    m = channels.M
    p_max = channels.p_max
    starts = [np.full(m, p_max)] + (list(p_max * np.eye(m)) if m > 1 else [])
    for r in range(RANDOM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0, _RESTART_STREAM_TAG, r]))
        starts.append(rng.uniform(0.0, p_max, size=m))

    best = None
    for v0 in starts:
        res = _wmmse_sweeps(channels, v0)
        if best is None or res.objective > best.objective:
            best = res
    return best


def check_grid(levels: int, m: int) -> None:
    """Refuse a grid the oracle will not search: fewer than 2 levels, or
    more than GRID_POINT_GUARD points."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels ** m > GRID_POINT_GUARD:
        raise InstanceTooLargeError(
            f"{levels}^{m} grid points exceed the {GRID_POINT_GUARD} guard"
        )


def _slab_sum_rate(channels: ChannelRealization, axis: np.ndarray, picks: tuple) -> np.ndarray:
    """Weighted sum rate at every point of one slab of the grid axis^M,
    shaped like the slab.

    picks[k] selects the levels of grid axis k: an int fixes it for the whole
    slab, a slice spans it along one slab axis. term[m, k] holds
    axis^2 |g_km|^2, so receiver m's interference is the broadcast sum of
    term[m, k, picks[k]] over k in index order, the order in which
    channels._sinr_terms adds them; each rate is built from the same float
    operations as there. The sum over receivers runs in index order.
    """
    term = (np.abs(channels.G) ** 2).T[:, :, None] * axis ** 2
    spans = [k for k, pick in enumerate(picks) if isinstance(pick, slice)]
    shape = {k: (-1,) + (1,) * (len(spans) - 1 - d) for d, k in enumerate(spans)}

    def laid(m, k):
        t = term[m, k, picks[k]]
        return t.reshape(shape[k]) if k in shape else t

    total = 0.0
    for m in range(len(picks)):
        received = laid(m, 0)
        for k in range(1, len(picks)):
            received = received + laid(m, k)
        direct = laid(m, m)
        # alpha_m log2(1 + direct / (received - direct + sigma2_m)), in place
        rate = received - direct
        rate += channels.sigma2[m]
        np.divide(direct, rate, out=rate)
        rate += 1.0
        np.log2(rate, out=rate)
        rate *= channels.alpha[m]
        total = total + rate
    return total


def grid_search_oracle(channels: ChannelRealization, levels: int) -> tuple[np.ndarray, float]:
    """Exhaustive search over the uniform grid {0, ..., p_max}^M.

    Refuses grids that check_grid refuses. The grid is evaluated in
    lexicographic slabs of at most SLAB_POINTS points: the trailing axes
    whole, a block of the next axis, every earlier axis fixed. Ties go to
    the first grid point in lexicographic order (the first maximum within a
    slab, a strict improvement across slabs). The objective returned is
    sum_rate at the winning point, so it is bit-equal to scoring that point
    alone; for M < 8 every in-grid value is too, while for larger M numpy's
    pairwise sum over receivers may round an in-grid value differently.
    """
    m = channels.M
    check_grid(levels, m)
    axis = np.linspace(0.0, channels.p_max, levels)
    whole = 0  # trailing axes that every slab spans in full
    while whole < m and levels ** (whole + 1) <= SLAB_POINTS:
        whole += 1
    if whole == m:
        slabs = [(slice(None),) * m]
    else:
        step = SLAB_POINTS // levels ** whole
        slabs = ((*fixed, slice(start, start + step)) + (slice(None),) * whole
                 for fixed in np.ndindex(*([levels] * (m - whole - 1)))
                 for start in range(0, levels, step))
    grid = (levels,) * m
    best_obj, best = -np.inf, 0
    for picks in slabs:
        rates = _slab_sum_rate(channels, axis, picks)
        i = int(np.argmax(rates))
        if rates.flat[i] > best_obj:  # a slab is a contiguous run of the flat grid
            origin = [pick if isinstance(pick, int) else pick.start or 0 for pick in picks]
            best_obj, best = rates.flat[i], int(np.ravel_multi_index(origin, grid)) + i
    p = axis[np.array(np.unravel_index(best, grid))]
    return p, sum_rate(channels, p)
