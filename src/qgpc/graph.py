"""Interference graph construction and star-subgraph decomposition.

Each network instance becomes a complete directed graph: node m is pair m
with features [phi(|g_mm|^2), alpha_m], and the ordered edge (k, m) carries
phi(|g_km|^2), the standardized interference gain from transmitter k into
receiver m. phi maps a gain through log10, standardizes with constants
frozen from the training set, and lands affinely in [0, pi] so the values
can feed rotation angles directly.

The decomposition covers the graph with N overlapping stars, node i being
the center of star i with s = min(k, N - 1) of the other nodes drawn
uniformly without replacement as leaves. The draw is counter-based: every
(graph, center, candidate leaf) gets a splitmix64 key (Steele, Lea & Flood,
OOPSLA 2014) of its seed and its own counter, and the s candidates with the
smallest keys are the leaves, so every star of a block is drawn in one
loop-free pass and a graph's stars depend only on its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelBatch

NODE_FEATURES = 2  # columns of InterferenceGraph.node_features: direct gain, weight


@dataclass(frozen=True)
class FeatureScaler:
    """Frozen log-domain standardization mapped into [0, pi]."""

    mu: float
    sigma: float
    z_clip: float = 3.0

    def angle(self, x) -> np.ndarray:
        x = np.maximum(np.asarray(x, dtype=float), 1e-300)
        with np.errstate(over="ignore"):  # a subnormal sigma: the clip saturates the inf
            z = (np.log10(x) - self.mu) / self.sigma
        z = np.clip(z, -self.z_clip, self.z_clip)
        return (z + self.z_clip) / (2.0 * self.z_clip) * np.pi


def fit_feature_scaler(channels: ChannelBatch) -> FeatureScaler:
    """Fit mu/sigma over log10 of every squared gain of the training stack,
    in one pass."""
    if not len(channels):
        raise ValueError("cannot fit a scaler on an empty training set")
    logs = np.log10(np.maximum(channels.gain, 1e-300)).ravel()
    return FeatureScaler(mu=float(np.mean(logs)), sigma=max(float(np.std(logs)), 1e-12))


@dataclass(eq=False)
class InterferenceGraph:
    node_features: np.ndarray        # (N, NODE_FEATURES); column 0 already angle-scaled
    edge_angle: np.ndarray           # (N, N); [k, m] = phi(|g_km|^2), diagonal unused

    @property
    def N(self) -> int:
        return self.node_features.shape[0]


def build_graph(channels: ChannelBatch, scaler: FeatureScaler) -> InterferenceGraph:
    """Complete graph over the M pairs of one realization."""
    edge = scaler.angle(channels.gain)
    feats = np.stack([np.diagonal(edge), channels.alpha], axis=1)  # a copy, before the zeroing
    np.fill_diagonal(edge, 0.0)
    return InterferenceGraph(node_features=feats, edge_angle=edge)


_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's increment, 2^64 / golden ratio
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def mix64(*parts) -> np.ndarray:
    """splitmix64 hash of non-negative integers below 2^64 (scalars or
    broadcastable arrays), folded left to right: h = f(p_0), then
    h = f(h ^ p_i), where f is the splitmix64 output function of x + gamma
    and h starts at 0. All arithmetic wraps mod 2^64. Returns a uint64 array
    of the broadcast shape, or one np.uint64 when every part is a scalar."""
    h = np.uint64(0)
    for part in parts:
        # at least 1-d: numpy warns on the wrap of a scalar product, not of an array's
        z = np.array(part, dtype=np.uint64, ndmin=1) ^ h
        z += _GAMMA
        z ^= z >> np.uint64(30)
        z *= _MUL1
        z ^= z >> np.uint64(27)
        z *= _MUL2
        z ^= z >> np.uint64(31)
        h = z.reshape(np.broadcast_shapes(np.shape(part), np.shape(h)))
    return h[()]


def decompose_stars(n: int, k: int, seeds) -> np.ndarray:
    """Leaves of the n stars over n nodes for each seed: (n, s) for a scalar
    seed, (B, n, s) for a (B,) array of uint64 seeds, s = min(k, n - 1).
    Row i holds the s leaves of center i, ascending, drawn uniformly without
    replacement from the other nodes: candidate j of center i (node
    j + (j >= i)) has key mix64(seed, i * (n - 1) + j), and the s smallest
    keys win. The keys of one row are distinct, since the splitmix64 output
    function is a bijection, so the draw has no ties."""
    if k < 0:
        raise ValueError("k must be non-negative")
    seeds = np.asarray(seeds, dtype=np.uint64)
    s = min(k, n - 1)
    if s == 0:
        return np.empty(seeds.shape + (n, 0), dtype=np.intp)
    counters = np.arange(n * (n - 1), dtype=np.uint64).reshape(n, n - 1)
    keys = mix64(seeds[..., None, None], counters)
    j = np.sort(np.argpartition(keys, s - 1, axis=-1)[..., :s], axis=-1)
    return j + (j >= np.arange(n)[:, None])
