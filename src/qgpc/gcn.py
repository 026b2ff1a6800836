"""Classical message-passing baseline with max aggregation.

Layer ell maps node states h via two small ReLU MLPs: the message for the
ordered edge u -> v is mlp_msg([h_u, e_uv]); node v aggregates incoming
messages with an elementwise max (zeros when it has no neighbors) and
updates through h_v <- mlp_upd([h_v, agg_v]). A linear head plus scaled
sigmoid decodes powers. The computation per node is independent of node
order, so relabeling nodes permutes the outputs exactly.

Backpropagation is written out by hand; max aggregation routes gradients to
the argmax message with first-index tie-breaking.

The batch path both models share (trainer.BatchModel) hands the GCN
blocks of same-size graphs, stacked (B, N, .): each MLP product is one GEMM
over the block's edge or node rows, and the backward returns one gradient
per graph. BLOCK_EDGES, the GCN's row budget, bounds the N(N-1) edge rows
of a block, so the working set does not grow with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import sigmoid
from .graph import NODE_FEATURES, InterferenceGraph
from .trainer import BatchModel

BLOCK_EDGES = 2048  # message rows per kernel call: 256 KB per (rows, 16) temporary


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


def _complete_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered edges u -> v of the complete graph on n nodes, grouped by
    destination v and ascending in u within a group."""
    dst = np.repeat(np.arange(n), n - 1)
    j = np.tile(np.arange(n - 1), n)
    return j + (j >= dst), dst


@dataclass(eq=False)
class _Tape:
    """A forward pass over B graphs of N nodes each, kept for the backward."""

    src: np.ndarray      # (E,) source node of each edge, grouped by destination
    dst: np.ndarray      # (E,) destination node of each edge
    h: list[np.ndarray]  # (B, N, .) embeddings entering each layer, then the final ones
    caches: list[tuple]  # per layer: x, z1, a1, amax, u, z1u, a1u
    p_max: np.ndarray    # (B, 1) power cap of each graph
    sig: np.ndarray      # (B, N) decoded power fractions
    p: np.ndarray        # (B, N) decoded powers


def _per_graph_product(a: np.ndarray, d: np.ndarray, b: int) -> np.ndarray:
    """a_b.T @ d_b for each of the b graphs whose rows are stacked in a and d."""
    rows = a.shape[0] // b
    return np.matmul(a.reshape(b, rows, a.shape[1]).transpose(0, 2, 1),
                     d.reshape(b, rows, d.shape[1]))


def _row_sums(d: np.ndarray, b: int) -> np.ndarray:
    """Column sums of each graph's stacked rows of d: (b, columns)."""
    return d.reshape(b, d.shape[0] // b, d.shape[1]).sum(axis=1)


class GcnModel(BatchModel):
    """Adapter bundling the architecture hyperparameters for the trainer."""

    name = "gcn"
    forward = BatchModel.forward  # bound here too, where tracers look it up

    def __init__(self, hidden: int = 16, layers: int = 2):
        self.hidden = hidden
        self.layers = layers

    def param_count(self) -> int:
        return GcnParams.param_count(NODE_FEATURES, self.hidden, self.layers)

    def unflatten(self, flat) -> GcnParams:
        return GcnParams.from_flat(flat, NODE_FEATURES, self.hidden, self.layers)

    def arch_dict(self) -> dict:
        return {"hidden": self.hidden, "layers": self.layers}

    def _rows(self, n: int) -> int:
        return n * (n - 1)

    def _row_budget(self) -> int:
        return BLOCK_EDGES

    def _prepare(self, flat_params, grad: bool) -> GcnParams:
        return self.unflatten(flat_params)

    def _forward(self, graphs: list[InterferenceGraph], params: GcnParams,
                 star_seeds) -> _Tape:
        """One pass over graphs of equal size, stacked (B, N, .); every MLP
        product is one GEMM over the stacked edge or node rows. The GCN draws
        no stars."""
        b, n = len(graphs), graphs[0].N
        hidden = params.head_w.shape[0]
        src, dst = _complete_edges(n)
        edge_col = np.stack([g.edge_angle for g in graphs])[:, src, dst, None]
        h = np.stack([np.asarray(g.node_features, dtype=float) for g in graphs])
        hs, caches = [h], []
        for layer in params.layers:
            x = np.concatenate([h[:, src], edge_col], axis=2)
            x = x.reshape(b * src.size, h.shape[2] + 1)
            z1 = x @ layer.msg_w1 + layer.msg_b1
            a1 = np.maximum(z1, 0.0)
            msgs = a1 @ layer.msg_w2 + layer.msg_b2
            if n > 1:
                grouped = msgs.reshape(b, n, n - 1, hidden)  # [b, v, j]: the j-th message into v
                amax = np.argmax(grouped, axis=2)[:, :, None]  # first index wins a tie
                agg = np.take_along_axis(grouped, amax, axis=2)[:, :, 0]
            else:
                agg, amax = np.zeros((b, n, hidden)), None
            u = np.concatenate([h, agg], axis=2).reshape(b * n, -1)
            z1u = u @ layer.upd_w1 + layer.upd_c1
            a1u = np.maximum(z1u, 0.0)
            h = (a1u @ layer.upd_w2 + layer.upd_c2).reshape(b, n, hidden)
            hs.append(h)
            caches.append((x, z1, a1, amax, u, z1u, a1u))
        # a stacked (B, N, H) @ (H,) product gives each graph the bits of its
        # own product; a (B * N, H) one rounds a row by its position in the block
        sig = sigmoid(hs[-1] @ params.head_w + params.head_b)
        p_max = np.array([g.p_max for g in graphs])[:, None]
        return _Tape(src, dst, hs, caches, p_max, sig, p_max * sig)

    def _backward(self, tape: _Tape, params: GcnParams, dloss_dp: np.ndarray) -> np.ndarray:
        """Per-graph gradients (B, P) in from_flat layout from the loss
        gradient dloss_dp (B, N) at the powers."""
        gz = dloss_dp * tape.p_max * tape.sig * (1.0 - tape.sig)  # at the head's pre-activation
        b, n = gz.shape
        hidden = params.head_w.shape[0]
        src, dst = tape.src, tape.dst
        layer_grads: list[list[np.ndarray]] = []
        dh = gz[:, :, None] * params.head_w
        for layer, h_in, cache in zip(reversed(params.layers), reversed(tape.h[:-1]),
                                      reversed(tape.caches)):
            x, z1, a1, amax, u, z1u, a1u = cache
            di = h_in.shape[2]
            dh = dh.reshape(b * n, hidden)
            dz1u = (dh @ layer.upd_w2.T) * (z1u > 0)
            du = (dz1u @ layer.upd_w1.T).reshape(b, n, di + hidden)

            dmsgs = np.zeros((b, n, n - 1, hidden))
            if amax is not None:  # each max feeds one row
                np.put_along_axis(dmsgs, amax, du[:, :, None, di:], axis=2)
            dmsgs = dmsgs.reshape(b * src.size, hidden)
            dz1 = (dmsgs @ layer.msg_w2.T) * (z1 > 0)
            dx = (dz1 @ layer.msg_w1.T)[:, :di]

            # slot 0 of axis 1 holds the update path, slot v + 1 the edge into
            # destination v: summing axis 1 adds each source's edges in edge order
            into = np.zeros((b, n + 1, n, di))
            into[:, 0] = du[:, :, :di]
            into.reshape(b, (n + 1) * n, di)[:, (dst + 1) * n + src] = dx.reshape(b, src.size, di)
            layer_grads.insert(0, [
                _per_graph_product(x, dz1, b), _row_sums(dz1, b),
                _per_graph_product(a1, dmsgs, b), _row_sums(dmsgs, b),
                _per_graph_product(u, dz1u, b), _row_sums(dz1u, b),
                _per_graph_product(a1u, dh, b), _row_sums(dh, b),
            ])
            dh = into.sum(axis=1)
        chunks = [g.reshape(b, -1) for grads in layer_grads for g in grads]
        chunks += [np.matmul(gz[:, None, :], tape.h[-1])[:, 0], gz.sum(axis=1)[:, None]]
        return np.concatenate(chunks, axis=1)
