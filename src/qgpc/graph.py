"""Interference graph construction and star-subgraph decomposition.

Each network instance becomes a complete directed graph: node m is pair m
with features [phi(|g_mm|^2), alpha_m], and the ordered edge (k, m) carries
phi(|g_km|^2), the standardized interference gain from transmitter k into
receiver m. phi maps a gain through log10, standardizes with constants
frozen from the training set, and lands affinely in [0, pi] so the values
can feed rotation angles directly.

The decomposition covers the graph with N overlapping stars, node i being
the center of star i with min(k, N - 1) of the other nodes drawn uniformly
without replacement as leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelRealization

NODE_FEATURES = 2  # columns of InterferenceGraph.node_features: direct gain, weight


@dataclass(frozen=True)
class FeatureScaler:
    """Frozen log-domain standardization mapped into [0, pi]."""

    mu: float
    sigma: float
    z_clip: float = 3.0

    def angle(self, x) -> np.ndarray:
        x = np.maximum(np.asarray(x, dtype=float), 1e-300)
        z = (np.log10(x) - self.mu) / self.sigma
        z = np.clip(z, -self.z_clip, self.z_clip)
        return (z + self.z_clip) / (2.0 * self.z_clip) * np.pi


def fit_feature_scaler(realizations: list[ChannelRealization], z_clip: float = 3.0) -> FeatureScaler:
    """Fit mu/sigma over log10 of every squared gain in the training set."""
    if not realizations:
        raise ValueError("cannot fit a scaler on an empty training set")
    logs = np.concatenate([
        np.log10(np.maximum(np.abs(ch.G) ** 2, 1e-300)).ravel() for ch in realizations
    ])
    sigma = float(np.std(logs))
    return FeatureScaler(mu=float(np.mean(logs)), sigma=max(sigma, 1e-12), z_clip=z_clip)


@dataclass(eq=False)
class InterferenceGraph:
    node_features: np.ndarray        # (N, NODE_FEATURES); column 0 already angle-scaled
    edge_angle: np.ndarray           # (N, N); [k, m] = phi(|g_km|^2), diagonal unused

    @property
    def N(self) -> int:
        return self.node_features.shape[0]


def build_graph(channels: ChannelRealization, scaler: FeatureScaler) -> InterferenceGraph:
    """Complete graph over the M pairs of one realization."""
    gains = np.abs(channels.G) ** 2
    feats = np.stack([scaler.angle(np.diagonal(gains)), channels.alpha], axis=1)
    edge = scaler.angle(gains)
    np.fill_diagonal(edge, 0.0)
    return InterferenceGraph(node_features=feats, edge_angle=edge)


def decompose_stars(n: int, k: int, seed: int) -> np.ndarray:
    """Leaves of the n stars over n nodes: row i holds the min(k, n - 1)
    leaves of center i in draw order, drawn uniformly without replacement
    from the other nodes. Deterministic for a fixed seed; rows are drawn in
    center order 0..n-1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = np.random.default_rng(seed)
    leaves = np.empty((n, min(k, n - 1)), dtype=np.intp)
    if leaves.shape[1]:
        for i in range(n):  # index j of the other nodes is node j + (j >= i)
            draw = rng.choice(n - 1, size=leaves.shape[1], replace=False)
            leaves[i] = draw + (draw >= i)
    return leaves
