"""Interference graph construction and star-subgraph decomposition.

Each network instance becomes a complete directed graph: node m is pair m
with features [phi(|g_mm|^2), alpha_m], and the ordered edge (k, m) carries
phi(|g_km|^2), the standardized interference gain from transmitter k into
receiver m. phi maps a gain through log10, standardizes with constants
frozen from the training set, and lands affinely in [0, pi] so the values
can feed rotation angles directly.

The decomposition covers the graph with N overlapping stars, node i being
the center of star i with at most k neighbors drawn uniformly without
replacement as leaves.
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
    adjacency: tuple[tuple[int, ...], ...]
    alpha: np.ndarray                # (N,) raw objective weights
    p_max: float

    @property
    def N(self) -> int:
        return self.node_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


@dataclass(eq=False)
class StarSubgraph:
    center: int
    leaves: tuple[int, ...]
    edge_feats: np.ndarray  # (len(leaves),) angle of ordered edge leaf -> center

    def __post_init__(self):
        self.leaves = tuple(int(v) for v in self.leaves)
        self.edge_feats = np.asarray(self.edge_feats, dtype=float)
        if self.center in self.leaves:
            raise ValueError(f"star center {self.center} cannot be its own leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError(f"duplicate leaves in star {self.leaves}")
        if self.edge_feats.shape != (len(self.leaves),):
            raise ValueError("one edge feature per leaf required")


def build_graph(channels: ChannelRealization, scaler: FeatureScaler) -> InterferenceGraph:
    """Complete graph over the M pairs of one realization."""
    m = channels.M
    gains = np.abs(channels.G) ** 2
    feats = np.stack([scaler.angle(np.diagonal(gains)), channels.alpha], axis=1)
    edge = scaler.angle(gains)
    np.fill_diagonal(edge, 0.0)
    adjacency = tuple(
        tuple(j for j in range(m) if j != i) for i in range(m)
    )
    return InterferenceGraph(
        node_features=feats, edge_angle=edge, adjacency=adjacency,
        alpha=channels.alpha.copy(), p_max=channels.p_max,
    )


def decompose_stars(graph: InterferenceGraph, k: int, seed: int) -> list[StarSubgraph]:
    """One star per node: center i plus min(k, degree) leaves drawn uniformly
    without replacement from its neighborhood. Deterministic for a fixed seed;
    leaf draws are consumed in center order 0..N-1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = np.random.default_rng(seed)
    stars = []
    for i in range(graph.N):
        neigh = np.asarray(graph.adjacency[i], dtype=int)
        take = min(k, neigh.size)
        leaves = rng.choice(neigh, size=take, replace=False) if take else np.empty(0, dtype=int)
        stars.append(StarSubgraph(
            center=i,
            leaves=tuple(int(v) for v in leaves),
            edge_feats=graph.edge_angle[leaves, i] if take else np.empty(0),
        ))
    return stars
