"""Classical message-passing baseline with max aggregation.

Layer ell maps node states h via two small ReLU MLPs: the message for the
ordered edge u -> v is mlp_msg([h_u, e_uv]); node v aggregates incoming
messages with an elementwise max (zeros when it has no neighbors) and
updates through h_v <- mlp_upd([h_v, agg_v]). A linear head gives scores,
which trainer.BatchModel decodes into powers. The computation per node is
independent of node order, so relabeling nodes permutes the outputs exactly.

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

from .graph import NODE_FEATURES
from .trainer import BatchModel

BLOCK_EDGES = 2048  # message rows per kernel call: 256 KB per (rows, 16) temporary


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

    def _shapes(self) -> list[tuple[int, ...]]:
        """Per layer: the message MLP's weights and biases, then the update
        MLP's; last the head's weights and bias."""
        hidden, shapes = self.hidden, []
        for di in [NODE_FEATURES] + [hidden] * (self.layers - 1):
            shapes += [(di + 1, hidden), (hidden,), (hidden, hidden), (hidden,),
                       (di + hidden, hidden), (hidden,), (hidden, hidden), (hidden,)]
        return shapes + [(hidden,), ()]

    def arch_dict(self) -> dict:
        return {"hidden": self.hidden, "layers": self.layers}

    def _rows(self, n: int) -> int:
        return n * (n - 1)

    def _row_budget(self) -> int:
        return BLOCK_EDGES

    def _prepare(self, flat_params, grad: bool) -> list[np.ndarray]:
        return self.unflatten(flat_params)

    def _forward(self, features: np.ndarray, edge: np.ndarray, params: list[np.ndarray],
                 stars) -> tuple[np.ndarray, _Tape]:
        """One pass over graphs of equal size, stacked (B, N, .); every MLP
        product is one GEMM over the stacked edge or node rows. The GCN draws
        no stars."""
        b, n = features.shape[:2]
        hidden = self.hidden
        src, dst = _complete_edges(n)
        edge_col = edge[:, src, dst, None]
        h, hs, caches = features, [features], []
        for ell in range(self.layers):
            (msg_w1, msg_b1, msg_w2, msg_b2,
             upd_w1, upd_c1, upd_w2, upd_c2) = params[8 * ell:8 * ell + 8]
            x = np.concatenate([h[:, src], edge_col], axis=2)
            x = x.reshape(b * src.size, h.shape[2] + 1)
            z1 = x @ msg_w1 + msg_b1
            a1 = np.maximum(z1, 0.0)
            msgs = a1 @ msg_w2 + msg_b2
            if n > 1:
                grouped = msgs.reshape(b, n, n - 1, hidden)  # [b, v, j]: the j-th message into v
                amax = np.argmax(grouped, axis=2)[:, :, None]  # first index wins a tie
                agg = np.take_along_axis(grouped, amax, axis=2)[:, :, 0]
            else:
                agg, amax = np.zeros((b, n, hidden)), None
            u = np.concatenate([h, agg], axis=2).reshape(b * n, -1)
            z1u = u @ upd_w1 + upd_c1
            a1u = np.maximum(z1u, 0.0)
            h = (a1u @ upd_w2 + upd_c2).reshape(b, n, hidden)
            hs.append(h)
            caches.append((x, z1, a1, amax, u, z1u, a1u))
        # a stacked (B, N, H) @ (H,) product gives each graph the bits of its
        # own product; a (B * N, H) one rounds a row by its position in the block
        head_w, head_b = params[-2:]
        return hs[-1] @ head_w + head_b, _Tape(src, dst, hs, caches)

    def _backward(self, tape: _Tape, params, gz: np.ndarray) -> list[np.ndarray]:
        """Per-graph gradients of each parameter array from the loss
        gradient gz (B, N) at the head's pre-activation."""
        b, n = gz.shape
        hidden = self.hidden
        src, dst = tape.src, tape.dst
        grads: list[np.ndarray] = []
        dh = gz[:, :, None] * params[-2]
        for ell in range(self.layers - 1, -1, -1):
            msg_w1, _, msg_w2, _, upd_w1, _, upd_w2, _ = params[8 * ell:8 * ell + 8]
            x, z1, a1, amax, u, z1u, a1u = tape.caches[ell]
            di = tape.h[ell].shape[2]
            dh = dh.reshape(b * n, hidden)
            dz1u = (dh @ upd_w2.T) * (z1u > 0)
            du = (dz1u @ upd_w1.T).reshape(b, n, di + hidden)

            dmsgs = np.zeros((b, n, n - 1, hidden))
            if amax is not None:  # each max feeds one row
                np.put_along_axis(dmsgs, amax, du[:, :, None, di:], axis=2)
            dmsgs = dmsgs.reshape(b * src.size, hidden)
            dz1 = (dmsgs @ msg_w2.T) * (z1 > 0)
            dx = (dz1 @ msg_w1.T)[:, :di]

            # slot 0 of axis 1 holds the update path, slot v + 1 the edge into
            # destination v: summing axis 1 adds each source's edges in edge order
            into = np.zeros((b, n + 1, n, di))
            into[:, 0] = du[:, :, :di]
            into.reshape(b, (n + 1) * n, di)[:, (dst + 1) * n + src] = dx.reshape(b, src.size, di)
            grads[:0] = [
                _per_graph_product(x, dz1, b), _row_sums(dz1, b),
                _per_graph_product(a1, dmsgs, b), _row_sums(dmsgs, b),
                _per_graph_product(u, dz1u, b), _row_sums(dz1u, b),
                _per_graph_product(a1u, dh, b), _row_sums(dh, b),
            ]
            dh = into.sum(axis=1)
        return grads + [np.matmul(gz[:, None, :], tape.h[-1])[:, 0], gz.sum(axis=1)]
