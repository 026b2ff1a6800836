"""WMMSE power allocation and a brute-force grid oracle.

Scalar single-antenna links with amplitude-domain powers: the transmit
variable v_m is the power amplitude itself (v_m = p_m, not sqrt(p_m)).
Each sweep updates the three blocks in closed form, in real numbers only.
From the SINR kernel's direct power d_m, interference-plus-noise n_m,
t_m = d_m + n_m and gamma_m = d_m / n_m, the MMSE receiver
u_m = g_mm v_m / t_m has the weight w_m = 1 / (1 - Re(conj(u_m) g_mm v_m))
= 1 + gamma_m (Shi et al., IEEE TSP 2011), never formed as that difference,
which cancels at large SINR. The update is v_m <- alpha_m w_m |g_mm|^2 v_m
/ (t_m sum_k |g_mk|^2 c_k), c_k = alpha_k w_k |u_k|^2, clipped to [0, p_max].
Every block minimizes the same weighted-MSE surrogate exactly, so the
sum-rate objective is non-decreasing sweep to sweep.

Sweeps only reach a stationary point, and under strong interference the
full-power start can stall at a poor one (the global optimum may silence a
pair entirely). WMMSE therefore multi-starts: full power, one corner start
per pair (that pair at p_max, the rest silent), and a few seeded uniform
restarts. The best run's record is returned; everything stays
deterministic. wmmse_batch runs every start of every instance of a list as
one row of a stacked sweep; wmmse_allocate is that call on one instance.

The grid oracle never builds its (levels^M, M) power grid. Receiver m's
interference on the grid is a sum of M - 1 one-dimensional terms, term
k != m being axis^2 |g_km|^2 laid along grid axis k, so each rate is formed by
broadcasting those terms over one lexicographic slab of the grid at a time.
Memory is bounded by a slab, not by the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sum_rate_batch is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .channels import (  # noqa: F401
    ChannelBatch, ChannelRealization, _sinr_terms, size_blocks, sum_rate, sum_rate_batch,
    weighted_sum_rate)

GRID_POINT_GUARD = 10 ** 7  # bounds the oracle's time; its memory is bounded by a slab
SLAB_POINTS = 1 << 16       # most grid points the oracle evaluates at once
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
    start: int             # winning start: 0 full power, 1..M the corners (M > 1), then restarts


def _start_count(m: int) -> int:
    """Starts per instance of M = m pairs: full power, one corner per pair
    when m > 1, then RANDOM_RESTARTS seeded uniform draws."""
    return 1 + (m if m > 1 else 0) + RANDOM_RESTARTS


def _starts(batch: ChannelBatch) -> np.ndarray:
    """Start rows of every instance of a batch, (B * S, M), instance-major,
    in the order of _start_count. A restart draw depends on its index r
    alone, so every instance of a size shares it."""
    m = batch.M
    unit = [np.ones((1, m))] + ([np.eye(m)] if m > 1 else [])
    for r in range(RANDOM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0, _RESTART_STREAM_TAG, r]))
        unit.append(rng.random((1, m)))  # uniform(0, p_max) is p_max times these
    return (batch.p_max[:, None, None] * np.concatenate(unit)).reshape(-1, m)


def _mmse_blocks(rows: ChannelBatch, v: np.ndarray):
    """SINR gamma of each row at amplitudes v, and the next v update's
    numerator alpha w |g_mm|^2 v / t and coefficients c (module docstring)."""
    _, _, bdiag, direct, noise = _sinr_terms(rows, v)
    gamma = direct / noise
    total = direct + noise
    numer = rows.alpha * (1.0 + gamma) * bdiag * v / total
    return gamma, numer, numer * v / total


def _sweep_rows(batch: ChannelBatch, inst: np.ndarray, v: np.ndarray):
    """Block-coordinate sweeps of every row, row b on realization inst[b]
    of the batch from start v[b], until a sweep moves its objective by at
    most TOL or it has run MAX_ITER sweeps; a sweep updates only the rows
    still running, with one SINR-kernel call and one interference product.

    Returns each row's best iterate and its objective, its trace (column j
    the objective after sweep j, valid up to its iteration count), whether
    it converged and its iteration count. Not converging is not an error.
    """
    rows = batch[inst]  # gathered here, so a compaction below frees the old rows
    n = len(rows)
    gamma, numer, coeff = _mmse_blocks(rows, v)
    obj = weighted_sum_rate(gamma, rows.alpha)  # sum_rate(rows, v), bit for bit
    trace = np.empty((n, MAX_ITER + 1))
    trace[:, 0] = obj
    best_p, best_obj = v.copy(), obj.copy()
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    live = np.arange(n)  # the rows still running, in row order
    for sweep in range(1, MAX_ITER + 1):
        denom = (rows.gain @ coeff[:, :, None])[:, :, 0]
        v = np.clip(numer / np.maximum(denom, _V_DENOM_FLOOR), 0.0, rows.p_max[:, None])
        gamma, numer, coeff = _mmse_blocks(rows, v)
        prev, obj = obj, weighted_sum_rate(gamma, rows.alpha)
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
            numer, coeff, obj = numer[keep], coeff[keep], obj[keep]
            if not live.size:
                break
    return best_p, best_obj, trace, converged, iterations


def wmmse_batch(realizations: list[ChannelRealization]) -> list[WmmseResult]:
    """Best WMMSE stationary point over the starts of each realization, in
    input order.

    Every (instance, start) pair is one row of a sweep. Whole instances of
    one size run together, in size_blocks blocks of at most
    channels.BLOCK_BYTES of row gains, one float each (an instance with
    more runs alone), so memory is bounded by a block whatever the list's
    length. An instance's winner is the first best of its own rows: ties
    keep the earliest start, so mild instances still return the full-power
    run's answer. The winner's own monotone trace is returned.
    """
    results: list[WmmseResult] = [None] * len(realizations)
    sizes = [ch.M for ch in realizations]
    # a row gain is one float of the (rows, M, M) gains a sweep gathers
    for idx in size_blocks(sizes, lambda m: _start_count(m) * m * m * 8):
        batch = ChannelBatch.stack([realizations[i] for i in idx])
        n_starts = _start_count(batch.M)
        inst = np.repeat(np.arange(len(batch)), n_starts)
        p, obj, trace, converged, iterations = _sweep_rows(batch, inst, _starts(batch))
        won = obj.reshape(len(batch), n_starts).argmax(axis=1)
        for b, (i, start) in enumerate(zip(idx, won.tolist())):
            r = b * n_starts + start
            results[i] = WmmseResult(
                p=p[r].copy(), objective=float(obj[r]),
                trace=trace[r, :iterations[r] + 1].copy(),
                converged=bool(converged[r]), iterations=int(iterations[r]), start=start,
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
    term[m, k, picks[k]] over k != m in index order, the order in which
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
        interference = 0.0
        for k in range(len(picks)):
            if k != m:
                interference = interference + laid(m, k)
        # alpha_m log2(1 + direct / (interference + sigma2_m)), in place after the division
        rate = laid(m, m) / (interference + channels.sigma2[m])
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
