"""Classical message-passing baseline with max aggregation.

Layer ell maps node states h via two small ReLU MLPs: the message for the
ordered edge u -> v is mlp_msg([h_u, e_uv]); node v aggregates incoming
messages with an elementwise max (zeros when it has no neighbors) and
updates through h_v <- mlp_upd([h_v, agg_v]). A linear head plus scaled
sigmoid decodes powers. The computation per node is independent of node
order, so relabeling nodes permutes the outputs exactly.

Backpropagation is written out by hand; max aggregation routes gradients to
the argmax message with first-index tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelRealization, sigmoid, sum_rate, weighted_sum_rate_grad
from .graph import NODE_FEATURES, InterferenceGraph


@dataclass(eq=False)
class GcnLayerParams:
    msg_w1: np.ndarray
    msg_b1: np.ndarray
    msg_w2: np.ndarray
    msg_b2: np.ndarray
    upd_w1: np.ndarray
    upd_c1: np.ndarray
    upd_w2: np.ndarray
    upd_c2: np.ndarray


@dataclass(eq=False)
class GcnParams:
    layers: list[GcnLayerParams]
    head_w: np.ndarray
    head_b: float

    @staticmethod
    def _layer_shapes(feature_dim: int, hidden: int, n_layers: int) -> list[list[tuple]]:
        dims = [feature_dim] + [hidden] * n_layers
        shapes = []
        for ell in range(n_layers):
            di = dims[ell]
            shapes.append([
                (di + 1, hidden), (hidden,), (hidden, hidden), (hidden,),
                (di + hidden, hidden), (hidden,), (hidden, hidden), (hidden,),
            ])
        return shapes

    @staticmethod
    def param_count(feature_dim: int, hidden: int, n_layers: int) -> int:
        total = 0
        for layer in GcnParams._layer_shapes(feature_dim, hidden, n_layers):
            total += sum(int(np.prod(s)) for s in layer)
        return total + hidden + 1

    @classmethod
    def from_flat(cls, flat, feature_dim: int, hidden: int, n_layers: int) -> "GcnParams":
        flat = np.asarray(flat, dtype=float)
        want = cls.param_count(feature_dim, hidden, n_layers)
        if flat.shape != (want,):
            raise ValueError(f"expected {want} parameters, got shape {flat.shape}")
        pos = 0
        layers = []
        for shapes in cls._layer_shapes(feature_dim, hidden, n_layers):
            arrays = []
            for s in shapes:
                size = int(np.prod(s))
                arrays.append(flat[pos:pos + size].reshape(s).copy())
                pos += size
            layers.append(GcnLayerParams(*arrays))
        head_w = flat[pos:pos + hidden].copy()
        head_b = float(flat[pos + hidden])
        return cls(layers=layers, head_w=head_w, head_b=head_b)

    def flatten(self) -> np.ndarray:
        chunks = []
        for layer in self.layers:
            for arr in (layer.msg_w1, layer.msg_b1, layer.msg_w2, layer.msg_b2,
                        layer.upd_w1, layer.upd_c1, layer.upd_w2, layer.upd_c2):
                chunks.append(np.asarray(arr, dtype=float).ravel())
        chunks.append(np.asarray(self.head_w, dtype=float).ravel())
        chunks.append(np.array([self.head_b]))
        return np.concatenate(chunks)


def _complete_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered edges u -> v of the complete graph on n nodes, grouped by
    destination v and ascending in u within a group."""
    dst = np.repeat(np.arange(n), n - 1)
    j = np.tile(np.arange(n - 1), n)
    return j + (j >= dst), dst


def _forward(graph: InterferenceGraph, params: GcnParams):
    """Returns (p, caches) where caches hold every intermediate for backprop."""
    n = graph.N
    hidden = params.head_w.shape[0]
    src, dst = _complete_edges(n)
    edge_col = graph.edge_angle[src, dst][:, None]
    h = np.asarray(graph.node_features, dtype=float)
    caches = []
    for layer in params.layers:
        x = np.concatenate([h[src], edge_col], axis=1)
        z1 = x @ layer.msg_w1 + layer.msg_b1
        a1 = np.maximum(z1, 0.0)
        msgs = a1 @ layer.msg_w2 + layer.msg_b2
        if n > 1:
            grouped = msgs.reshape(n, n - 1, hidden)  # [v, j]: the j-th message into v
            agg = grouped.max(axis=1)
            amax = np.argmax(grouped, axis=1) + (n - 1) * np.arange(n)[:, None]  # msgs row
        else:
            agg, amax = np.zeros((n, hidden)), None
        u = np.concatenate([h, agg], axis=1)
        z1u = u @ layer.upd_w1 + layer.upd_c1
        a1u = np.maximum(z1u, 0.0)
        h_next = a1u @ layer.upd_w2 + layer.upd_c2
        caches.append((h, x, z1, a1, msgs, amax, u, z1u, a1u))
        h = h_next
    zhead = h @ params.head_w + params.head_b
    sig = sigmoid(zhead)
    p = graph.p_max * sig
    return p, (h, sig, src, caches)


def gcn_forward(graph: InterferenceGraph, params: GcnParams) -> np.ndarray:
    """Power vector in (0, p_max) for one graph."""
    return _forward(graph, params)[0]


def gcn_loss_and_grad(graph: InterferenceGraph, channels: ChannelRealization,
                      params: GcnParams) -> tuple[float, np.ndarray]:
    """Negative weighted sum rate and its gradient in flatten() layout."""
    p, (h_final, sig, src, caches) = _forward(graph, params)
    hidden = params.head_w.shape[0]

    loss = -sum_rate(channels, p)
    dloss_dp = -weighted_sum_rate_grad(channels, p)
    gz = dloss_dp * graph.p_max * sig * (1.0 - sig)

    d_head_w = h_final.T @ gz
    d_head_b = float(np.sum(gz))
    dh = np.outer(gz, params.head_w)

    grad_layers: list[list[np.ndarray]] = []
    for layer, cache in zip(reversed(params.layers), reversed(caches)):
        h_in, x, z1, a1, msgs, amax, u, z1u, a1u = cache
        di = h_in.shape[1]

        da1u = dh @ layer.upd_w2.T
        d_upd_w2 = a1u.T @ dh
        d_upd_c2 = dh.sum(axis=0)
        dz1u = da1u * (z1u > 0)
        d_upd_w1 = u.T @ dz1u
        d_upd_c1 = dz1u.sum(axis=0)
        du = dz1u @ layer.upd_w1.T
        dh_in = du[:, :di].copy()
        dagg = du[:, di:]

        dmsgs = np.zeros_like(msgs)
        if amax is not None:
            dmsgs[amax, np.arange(hidden)] = dagg  # each (row, column) feeds one max

        da1 = dmsgs @ layer.msg_w2.T
        d_msg_w2 = a1.T @ dmsgs
        d_msg_b2 = dmsgs.sum(axis=0)
        dz1 = da1 * (z1 > 0)
        d_msg_w1 = x.T @ dz1
        d_msg_b1 = dz1.sum(axis=0)
        dx = dz1 @ layer.msg_w1.T
        np.add.at(dh_in, src, dx[:, :di])

        grad_layers.append([d_msg_w1, d_msg_b1, d_msg_w2, d_msg_b2,
                            d_upd_w1, d_upd_c1, d_upd_w2, d_upd_c2])
        dh = dh_in
    grad_layers.reverse()

    chunks = []
    for arrays in grad_layers:
        chunks.extend(arr.ravel() for arr in arrays)
    chunks.append(d_head_w.ravel())
    chunks.append(np.array([d_head_b]))
    return loss, np.concatenate(chunks)


class GcnModel:
    """Adapter bundling the architecture hyperparameters for the trainer."""

    name = "gcn"

    def __init__(self, hidden: int = 16, layers: int = 2):
        self.hidden = hidden
        self.layers = layers

    def param_count(self) -> int:
        return GcnParams.param_count(NODE_FEATURES, self.hidden, self.layers)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=self.param_count())

    def unflatten(self, flat) -> GcnParams:
        return GcnParams.from_flat(flat, NODE_FEATURES, self.hidden, self.layers)

    def forward(self, channels: ChannelRealization, graph: InterferenceGraph,
                flat_params, star_seed: int) -> np.ndarray:
        return gcn_forward(graph, self.unflatten(flat_params))

    def loss_and_grad(self, channels: ChannelRealization, graph: InterferenceGraph,
                      flat_params, star_seed: int) -> tuple[float, np.ndarray]:
        return gcn_loss_and_grad(graph, channels, self.unflatten(flat_params))

    def arch_dict(self) -> dict:
        return {"hidden": self.hidden, "layers": self.layers}
