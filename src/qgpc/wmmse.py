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

The grid oracle never builds its (levels^M, M) power grid, and it skips
most of it. A pair's rate rises with its own power and falls with its
interferers' (the monotone structure of MAPEL: Qian, Zhang & Huang, IEEE TWC
2009), so a block of the grid is bounded by its pairs' top levels with their
interferers at the lowest. Blocks are searched best bound first, and once a
bound falls below the best rate found the rest cannot hold the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sum_rate_batch is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .channels import (  # noqa: F401
    ChannelBatch, _sinr_terms, size_blocks, sum_rate, sum_rate_batch,
    weighted_sum_rate)

GRID_POINT_GUARD = 10 ** 7  # bounds the oracle's time; SLAB_POINTS bounds its memory
SLAB_POINTS = 1 << 16       # most values the oracle holds at once: M per block bound or point
BLOCK_POINTS = 64           # fewest points of an oracle block, chosen by measurement
BOUND_MARGIN = 1e-12        # relative slack on a block bound, for log2's few-ulp error
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


def wmmse_batch(realizations: list[ChannelBatch]) -> list[WmmseResult]:
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


def wmmse_allocate(channels: ChannelBatch) -> WmmseResult:
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


def _rates(channels: ChannelBatch, axis: np.ndarray, idx: list, own: list) -> np.ndarray:
    """Weighted sum rate at the points of axis^M whose levels are the
    per-axis index arrays idx (of one ndim, broadcast together), with pair
    m's direct term at level own[m]: own = idx gives each point's rate.

    term[k, m] holds axis^2 |g_km|^2. Receiver m's interference sums
    term[k, m, idx[k]] over k in index order, an exact 0 at k = m, as
    channels._sinr_terms does, and each rate takes the same float operations
    as there; the sum over receivers runs in index order.
    """
    m = len(idx)
    term = channels.gain[:, :, None] * axis ** 2
    cross = term * (1.0 - np.eye(m))[:, :, None]
    interference = 0.0
    for k in range(m):  # every receiver at once: (M, *points)
        interference = interference + cross[k][:, idx[k]]
    total = 0.0
    for r in range(m):
        # alpha_r log2(1 + direct / (interference + sigma2_r)), in place after the division
        rate = term[r, r, own[r]] / (interference[r] + channels.sigma2[r])
        rate += 1.0
        np.log2(rate, out=rate)
        rate *= channels.alpha[r]
        total = total + rate
    return total


def _digit(flat: np.ndarray, j: int, n: int, levels: int) -> np.ndarray:
    """Level of axis j at the lexicographic indices flat of an n-axis grid."""
    return flat // levels ** (n - 1 - j) % levels


def _block_bounds(channels: ChannelBatch, axis: np.ndarray, lead: int) -> np.ndarray:
    """A bound on the rates of each block that fixes the lead leading axes,
    in lexicographic block order: each pair's own level at the top of its
    span in the block, each interferer at the bottom of its span."""
    m, levels = channels.M, len(axis)
    fixed = [_digit(np.arange(levels ** lead), j, lead, levels) for j in range(lead)]
    low, top = [np.zeros(1, dtype=int)] * (m - lead), [np.full(1, levels - 1)] * (m - lead)
    return _rates(channels, axis, fixed + low, fixed + top)


def grid_search_oracle(channels: ChannelBatch, levels: int) -> tuple[np.ndarray, float]:
    """Exhaustive search over the uniform grid {0, ..., p_max}^M, best-first.

    Refuses grids that check_grid refuses. A block fixes the leading axes
    and spans the fewest trailing axes that hold BLOCK_POINTS points, or
    more while the blocks' bounds (M values a block) exceed SLAB_POINTS. A
    pair's rate rises with its own power and falls with its interferers',
    so _block_bounds bounds every rate of a block. Blocks are searched in
    descending order of bound (a stable sort): the top block alone, then
    chunks of blocks of at most SLAB_POINTS values, until a block's bound,
    inflated by BOUND_MARGIN, falls strictly below the best rate found.

    The answer is that of a full scan: +, / and * round correctly, so they
    are monotone, and the margin covers log2's few-ulp error; so no block
    that could hold the best value is skipped, and ties go to the first grid
    point in lexicographic order. Memory is bounded by SLAB_POINTS values
    (by one axis at M = 1). The objective returned is sum_rate at the
    winning point, so it is bit-equal to scoring that point alone; for M < 8
    every in-grid value is too, while for larger M numpy's pairwise sum over
    receivers may round an in-grid value differently.
    """
    m = channels.M
    check_grid(levels, m)
    axis = np.linspace(0.0, channels.p_max, levels)
    whole = 0  # trailing axes that every block spans
    while whole < m and (levels ** whole < BLOCK_POINTS or m * levels ** (m - whole) > SLAB_POINTS):
        whole += 1
    lead, size = m - whole, levels ** whole
    bounds = _block_bounds(channels, axis, lead)
    bounds[np.isnan(bounds)] = np.inf  # 0 * inf at an alpha = 0 link: never skip its block
    order = np.argsort(-bounds, kind="stable")
    floor = -bounds[order] * (1.0 + BOUND_MARGIN)  # the inflated bounds, negated: ascending
    trailing = [_digit(np.arange(size)[None], j, whole, levels) for j in range(whole)]
    best_obj, best, pos, stop = -np.inf, levels ** m, 0, len(order)
    while pos < stop:
        ids = order[pos:min(stop, pos + (max(1, SLAB_POINTS // (m * size)) if pos else 1))]
        fixed = [_digit(ids[:, None], j, lead, levels) for j in range(lead)]
        rates = _rates(channels, axis, fixed + trailing, fixed + trailing).reshape(len(ids), size)
        rates[np.isnan(rates)] = -np.inf
        top = rates.max()
        hit = np.flatnonzero(rates == top)
        first = int((ids[hit // size] * size + hit % size).min())  # its grid index
        if top > best_obj or (top == best_obj and first < best):
            best_obj, best = top, first
        pos += len(ids)
        stop = int(np.searchsorted(floor, -best_obj, side="right"))
    p = axis[np.array(np.unravel_index(best, (levels,) * m))]
    return p, sum_rate(channels, p)
