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
pair entirely). WMMSE therefore multi-starts: full power, one corner start
per pair (that pair at p_max, the rest silent), and a few seeded uniform
restarts. The best run's record is returned; everything stays
deterministic. wmmse_batch runs every start of every instance of a list as
one row of a stacked sweep; wmmse_allocate is that call on one instance.

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
from .channels import (  # noqa: F401
    ChannelBatch, ChannelRealization, stack_by_size, sum_rate, sum_rate_batch,
)

GRID_POINT_GUARD = 10 ** 7  # bounds the oracle's time; its memory is bounded by a slab
SLAB_POINTS = 1 << 16       # most grid points the oracle evaluates at once
_W_DENOM_FLOOR = 1e-12
_V_DENOM_FLOOR = 1e-300  # turns the 0/0 of an all-silent sweep into v = 0
_RESTART_STREAM_TAG = 0x524553  # restart r draws from SeedSequence([0, tag, r])
MAX_ITER = 100       # sweeps per start
TOL = 1e-6           # a start has converged once a sweep moves the objective by at most this
RANDOM_RESTARTS = 2  # seeded uniform starts after the full-power and corner starts
ROW_BLOCK_ELEMENTS = 1 << 16  # most rows * M^2 a block of WMMSE rows spans


class InstanceTooLargeError(ValueError):
    """Raised when a grid search would exceed the point-count guard."""


@dataclass(eq=False)
class WmmseResult:
    p: np.ndarray          # best power vector found, in [0, p_max]
    objective: float       # weighted sum rate at p
    trace: np.ndarray      # objective after init and after each sweep
    converged: bool
    iterations: int
    start: int             # winning start: 0 full power, 1..M the corners (M > 1), then restarts


def _starts(batch: ChannelBatch) -> np.ndarray:
    """Start rows of every instance of a batch, (B * S, M), instance-major:
    full power, one corner per pair (that pair at p_max, the rest silent)
    when M > 1, then RANDOM_RESTARTS seeded uniform draws. A restart draw
    depends on its index r alone, so every instance of a size shares it."""
    m = batch.M
    unit = [np.ones((1, m))] + ([np.eye(m)] if m > 1 else [])
    for r in range(RANDOM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0, _RESTART_STREAM_TAG, r]))
        unit.append(rng.random((1, m)))  # uniform(0, p_max) is p_max times these
    return (batch.p_max[:, None, None] * np.concatenate(unit)).reshape(-1, m)


def _receiver_weights(rows: ChannelBatch, v: np.ndarray):
    """MMSE receivers u and weights w of each row at transmit amplitudes v.
    The stacked products run as one matrix-vector product per row, as a
    single power vector's would."""
    total = ((v ** 2)[:, None, :] @ rows.gain)[:, 0, :] + rows.sigma2  # per-receiver power
    u = rows.gdiag * v / total
    mse_denom = 1.0 - np.real(np.conj(u) * rows.gdiag * v)
    mse_denom = np.maximum(mse_denom, _W_DENOM_FLOOR)
    return u, 1.0 / mse_denom


def _sweep_rows(batch: ChannelBatch, inst: np.ndarray, v: np.ndarray):
    """Block-coordinate sweeps of every row, row b on realization inst[b]
    of the batch from start v[b], until a sweep moves its objective by at
    most TOL or it has run MAX_ITER sweeps; a sweep updates only the rows
    still running.

    Returns each row's best iterate and its objective, its trace (column j
    the objective after sweep j, valid up to its iteration count), whether
    it converged and its iteration count. Not converging is not an error.
    """
    rows = batch[inst]  # gathered here, so a compaction below frees the old rows
    n = len(rows)
    obj = sum_rate(rows, v)
    trace = np.empty((n, MAX_ITER + 1))
    trace[:, 0] = obj
    best_p, best_obj = v.copy(), obj.copy()
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    live = np.arange(n)  # the rows still running, in row order
    u, w = _receiver_weights(rows, v)
    for sweep in range(1, MAX_ITER + 1):
        coeff = rows.alpha * w * np.abs(u) ** 2
        numer = rows.alpha * w * np.real(np.conj(u) * rows.gdiag)
        denom = (rows.gain @ coeff[:, :, None])[:, :, 0]
        v = np.clip(numer / np.maximum(denom, _V_DENOM_FLOOR), 0.0, rows.p_max[:, None])
        u, w = _receiver_weights(rows, v)
        prev, obj = obj, sum_rate(rows, v)
        trace[live, sweep] = obj
        iterations[live] = sweep
        better = obj > best_obj[live]
        best_p[live[better]] = v[better]
        best_obj[live[better]] = obj[better]
        done = np.abs(obj - prev) <= TOL
        converged[live[done]] = True
        if done.any():
            keep = ~done
            live, rows = live[keep], rows[keep]
            v, u, w, obj = v[keep], u[keep], w[keep], obj[keep]
            if not live.size:
                break
    return best_p, best_obj, trace, converged, iterations


def wmmse_batch(realizations: list[ChannelRealization]) -> list[WmmseResult]:
    """Best WMMSE stationary point over the starts of each realization, in
    input order.

    Every (instance, start) pair is one row of a sweep; the rows of one
    size run in blocks of at most ROW_BLOCK_ELEMENTS // M^2 rows, so memory
    is bounded by a block whatever the list's length. Ties keep the earliest
    start, so mild instances still return the full-power run's answer. The
    winner's own monotone trace is returned.
    """
    results: list[WmmseResult] = [None] * len(realizations)
    for idx, batch in stack_by_size(realizations):
        starts = _starts(batch)
        n_starts = len(starts) // len(batch)
        step = max(1, ROW_BLOCK_ELEMENTS // batch.M ** 2)
        best = [None] * len(batch)  # objective of each instance's winner so far
        for lo in range(0, len(starts), step):
            rows = np.arange(lo, min(lo + step, len(starts)))
            inst = rows // n_starts  # an instance's starts may span blocks
            p, obj, trace, converged, iterations = _sweep_rows(batch, inst, starts[rows])
            won = {}  # instance -> its row in this block that beat every earlier start
            for r, (i, value) in enumerate(zip(inst.tolist(), obj.tolist())):
                if best[i] is None or value > best[i]:
                    best[i], won[i] = value, r
            for i, r in won.items():
                results[idx[i]] = WmmseResult(
                    p=p[r].copy(), objective=float(obj[r]),
                    trace=trace[r, :iterations[r] + 1].copy(),
                    converged=bool(converged[r]), iterations=int(iterations[r]),
                    start=int(rows[r] % n_starts),
                )
    return results


def wmmse_allocate(channels: ChannelRealization) -> WmmseResult:
    """Best WMMSE stationary point over the starts of one realization."""
    return wmmse_batch([channels])[0]


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
