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
deterministic. wmmse_batch runs every start of every instance of a stack as
one row of a stacked sweep; wmmse_allocate is that call on one instance.

The grid oracle never builds its (levels^M, M) power grid, and it skips
most of it. A pair's rate rises with its own power and falls with its
interferers' (the monotone structure of MAPEL: Qian, Zhang & Huang, IEEE TWC
2009), so a block of the grid is bounded by its pairs' top levels with their
interferers at the lowest. Blocks are searched best bound first, and once a
bound falls below the best rate found the rest cannot hold the answer. The
searches of a stack's realizations run together, round by round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sum_rate_batch is not called here; it stays bound on this module for code
# that looks it up or wraps it here (the benchmark's tracer does).
from .channels import (  # noqa: F401
    ChannelBatch, _sinr_terms, row_blocks, sum_rate, sum_rate_batch,
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
    in the order of _start_count, scaled by the batch's p_max. A restart
    draw depends on its index r alone, so every instance of a size shares it."""
    m = batch.M
    unit = [np.ones((1, m))] + ([np.eye(m)] if m > 1 else [])
    for r in range(RANDOM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([0, _RESTART_STREAM_TAG, r]))
        unit.append(rng.random((1, m)))  # uniform(0, p_max) is p_max times these
    return np.tile(batch.p_max * np.concatenate(unit), (len(batch), 1))


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
        v = np.clip(numer / np.maximum(denom, _V_DENOM_FLOOR), 0.0, rows.p_max)
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


def wmmse_batch(stack: ChannelBatch) -> list[WmmseResult]:
    """Best WMMSE stationary point over the starts of each realization of a
    stack, in stack order.

    Every (instance, start) pair is one row of a sweep. Whole instances run
    together, in row_blocks blocks sliced from the stack, of at most
    channels.BLOCK_BYTES of row gains, one float each (an instance with more
    runs alone), so memory is bounded by a block whatever the stack's
    length. An instance's winner is the first best of its own rows: ties
    keep the earliest start, so mild instances still return the full-power
    run's answer. The winner's own monotone trace is returned.
    """
    m, n_starts = stack.M, _start_count(stack.M)
    results: list[WmmseResult] = []
    # a row gain is one float of the (rows, M, M) gains a sweep gathers
    for block in row_blocks(len(stack), n_starts * m * m * 8):
        batch = stack[block]
        inst = np.repeat(np.arange(len(batch)), n_starts)
        p, obj, trace, converged, iterations = _sweep_rows(batch, inst, _starts(batch))
        won = obj.reshape(len(batch), n_starts).argmax(axis=1)
        for b, start in enumerate(won.tolist()):
            r = b * n_starts + start
            results.append(WmmseResult(
                p=p[r].copy(), objective=float(obj[r]),
                trace=trace[r, :iterations[r] + 1].copy(),
                converged=bool(converged[r]), iterations=int(iterations[r]), start=start,
            ))
    return results


def wmmse_allocate(channels: ChannelBatch) -> WmmseResult:
    """Best WMMSE stationary point over the starts of one realization."""
    return wmmse_batch(ChannelBatch.stack([channels]))[0]


def check_grid(levels: int, m: int) -> None:
    """Refuse a grid the oracle will not search: fewer than 2 levels, or
    more than GRID_POINT_GUARD points."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels ** m > GRID_POINT_GUARD:
        raise InstanceTooLargeError(
            f"{levels}^{m} grid points exceed the {GRID_POINT_GUARD} guard"
        )


def _rates(channels: ChannelBatch, axis: np.ndarray, inst, idx: list, own: list) -> np.ndarray:
    """Weighted sum rate at grid points of the realizations of a stack: a
    point lies on realization inst, at level idx[k] of the power axis
    (levels,) on axis k, with pair m's direct term at level own[m] (own =
    idx gives each point's rate). inst and the level arrays are integer
    arrays of one ndim, broadcast together.

    Each p_k^2 is read at the shape of its own index array, so sparse level
    arrays broadcast an axis's power over the grid; only the direct and
    cross gains are gathered per point. Receiver m's interference sums
    |g_km|^2 p_k^2 over k in index order, an exact 0 at k = m, as
    channels._sinr_terms does, and each rate takes the same float
    operations as there; the sum over receivers runs in index order.
    """
    power = [axis[level] ** 2 for level in idx]  # p_k^2 at each point
    own_power = power if own is idx else [axis[level] ** 2 for level in own]
    # each point's realization, receiver first: |g_km|^2 (0 at k = m) and |g_mm|^2
    cross = np.take(np.moveaxis(channels.cross, 0, -1), inst, axis=2)
    direct = np.take(np.diagonal(channels.gain, axis1=1, axis2=2).T, inst, axis=1)
    interference = 0.0
    for k, p2 in enumerate(power):  # every receiver at once: (M, *points)
        interference = interference + cross[k] * p2
    total = 0.0
    for r, p2 in enumerate(own_power):
        # alpha_r log2(1 + direct / (interference + sigma2_r)), in place after the division
        rate = direct[r] * p2 / (interference[r] + channels.sigma2[r])
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
    (B, levels^lead) for a stack of B, blocks in lexicographic order: each
    pair's own level at the top of its span in the block, each interferer
    at the bottom of its span."""
    m, levels = channels.M, len(axis)
    fixed = [_digit(np.arange(levels ** lead)[None], j, lead, levels) for j in range(lead)]
    low, top = ([np.full((1, 1), level)] * (m - lead) for level in (0, levels - 1))
    inst = np.arange(len(channels))[:, None]
    return _rates(channels, axis, inst, fixed + low, fixed + top)


def _search(rows: ChannelBatch, levels: int, lead: int) -> np.ndarray:
    """The first best point of each realization's grid, as (B, M) powers,
    for blocks that fix the lead leading axes (grid_search_oracle).

    Each realization keeps its own best-first search, run in rounds over the
    whole stack: every top block, then every live realization's next chunk
    of blocks up to its own stop, evaluated together in _rates calls of at
    most SLAB_POINTS values; after a round each realization takes its best
    rate, its first tied grid point and its new stop.
    """
    n, m = len(rows), rows.M
    whole = m - lead
    size, blocks = levels ** whole, levels ** lead
    axis = np.linspace(0.0, rows.p_max, levels)
    bounds = _block_bounds(rows, axis, lead)
    bounds[np.isnan(bounds)] = np.inf  # 0 * inf at an alpha = 0 link: never skip its block
    order = np.argsort(-bounds, axis=1, kind="stable")
    floor = -np.take_along_axis(bounds, order, axis=1) * (1.0 + BOUND_MARGIN)  # ascending rows
    # a _rates call's points are (*trailing grid, block): the block axis last
    shape = (1,) * whole + (-1,)
    trailing = list(np.indices((levels,) * whole + (1,), sparse=True))[:-1]
    per_call = max(1, SLAB_POINTS // (m * size))  # blocks a _rates call takes
    best_obj, best = np.full(n, -np.inf), np.full(n, levels ** m)
    pos, stop, chunk = np.zeros(n, dtype=int), np.full(n, blocks), 1
    while (live := np.flatnonzero(pos < stop)).size:
        take = np.minimum(stop[live] - pos[live], chunk)
        starts = np.cumsum(take) - take  # each live realization's first block of the round
        inst = np.repeat(live, take)
        ids = order[inst, pos[inst] + np.arange(len(inst)) - np.repeat(starts, take)]
        top, first = np.empty(len(ids)), np.empty(len(ids), dtype=int)
        for lo in range(0, len(ids), per_call):
            part = slice(lo, lo + per_call)
            fixed = [_digit(ids[part], j, lead, levels).reshape(shape) for j in range(lead)]
            rates = _rates(rows, axis, inst[part].reshape(shape), fixed + trailing,
                           fixed + trailing).reshape(size, -1)
            rates[np.isnan(rates)] = -np.inf
            top[part] = rates.max(axis=0)
            first[part] = ids[part] * size + (rates == top[part]).argmax(axis=0)
        round_top = np.maximum.reduceat(top, starts)
        tied = np.where(top == np.repeat(round_top, take), first, levels ** m)
        round_first = np.minimum.reduceat(tied, starts)  # its grid index
        better = (round_top > best_obj[live]) | ((round_top == best_obj[live])
                                                 & (round_first < best[live]))
        best_obj[live[better]], best[live[better]] = round_top[better], round_first[better]
        pos[live] += take
        stop[live] = (floor[live] <= -best_obj[live, None]).sum(axis=1)  # searchsorted, right
        chunk = per_call
    digits = np.stack([_digit(best, j, m, levels) for j in range(m)], axis=-1)
    return axis[digits]


def grid_search_oracle(channels: ChannelBatch,
                       levels: int) -> tuple[np.ndarray, float | np.ndarray]:
    """Exhaustive search over the uniform grid {0, ..., p_max}^M, best-first,
    of one realization, giving (p, objective), or of each realization of a
    stack of B, giving (P (B, M), objectives (B,)).

    Refuses grids that check_grid refuses. A block fixes the leading axes
    and spans the fewest trailing axes that hold BLOCK_POINTS points, or
    more while the blocks' bounds (M values a block) exceed SLAB_POINTS. A
    pair's rate rises with its own power and falls with its interferers',
    so _block_bounds bounds every rate of a block. Each realization's blocks
    are searched in descending order of bound (a stable sort): the top block
    alone, then chunks of blocks of at most SLAB_POINTS values, until a
    block's bound, inflated by BOUND_MARGIN, falls strictly below the best
    rate found. Whole realizations run together (_search) on the stack's
    one power axis, in row_blocks slices of the stack, each realization
    counting M bound values a block; one realization is a stack of one.

    The answer is that of a full scan: +, / and * round correctly, so they
    are monotone, and the margin covers log2's few-ulp error; so no block
    that could hold the best value is skipped, and ties go to the first grid
    point in lexicographic order. Memory is bounded by a row block and
    SLAB_POINTS values (by one axis at M = 1). The objective returned is
    sum_rate at the winning point, so it is bit-equal to scoring that point
    alone; for M < 8 every in-grid value is too, while for larger M numpy's
    pairwise sum over receivers may round an in-grid value differently.
    """
    one = channels.gain.ndim == 2
    stack = ChannelBatch.stack([channels]) if one else channels
    m = stack.M
    check_grid(levels, m)
    whole = 0  # trailing axes that every block spans
    while whole < m and (levels ** whole < BLOCK_POINTS or m * levels ** (m - whole) > SLAB_POINTS):
        whole += 1
    P = np.empty((len(stack), m))
    for rows in row_blocks(len(stack), 8 * m * levels ** (m - whole)):
        P[rows] = _search(stack[rows], levels, m - whole)
    objectives = sum_rate(stack, P)
    return (P[0], float(objectives[0])) if one else (P, objectives)
