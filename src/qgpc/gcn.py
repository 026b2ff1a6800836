"""Classical message-passing baseline with max aggregation.

Layer ell maps node states h via two small ReLU MLPs: the message for the
ordered edge u -> v is mlp_msg([h_u, e_uv]); node v aggregates incoming
messages with an elementwise max (zeros when it has no neighbors) and
updates through h_v <- mlp_upd([h_v, agg_v]). A linear head gives scores,
which trainer.BatchModel decodes into powers. The computation per node is
independent of node order, so relabeling nodes permutes the outputs exactly.

Backpropagation is written out by hand; max aggregation routes gradients to
the maximal message, the first in source order on a tie.

The batch path both models share (trainer.BatchModel) hands the GCN
blocks of same-size graphs, stacked (B, N, .), and the backward returns one
gradient per graph. The message MLP's first layer splits into a node term
h_u W + b, one product over the block's node rows gathered to the edges,
and an edge term e_uv w; its second layer is one product over the edge
rows, and its bias joins after the max, on node rows. A forward prepared
without the gradient keeps no tape. A block holds graphs whose N(N-1) edge
rows' hidden activations and messages, H floats each, fit
channels.BLOCK_BYTES (2048 edge rows at H = 16), so the working set does not
grow with the batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import NODE_FEATURES
from .trainer import BatchModel


@functools.cache
def _complete_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered edges u -> v of the complete graph on n nodes: edge j * n + v
    is the j-th edge into v, whose sources ascend in j (read-only, cached)."""
    dst = np.tile(np.arange(n), n - 1)
    j = np.repeat(np.arange(n - 1), n)
    src = j + (j >= dst)
    src.flags.writeable = dst.flags.writeable = False
    return src, dst


@dataclass(eq=False)
class _Tape:
    """A forward pass over B graphs of N nodes each, kept for the backward."""

    edge: np.ndarray     # (B * E, 1) edge angle of each edge row
    h: list[np.ndarray]  # (B, N, .) embeddings entering each layer, then the final ones
    caches: list[tuple]  # per layer: a1, won (B, N-1, N, H): the edge rows of each max, u, a1u


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

    def _item_bytes(self, n: int) -> int:
        """A graph's N(N-1) edge rows each keep the message MLP's hidden
        activation and its message live, H floats each."""
        return n * (n - 1) * 2 * self.hidden * 8

    def _prepare(self, flat_params, grad: bool) -> tuple[list[np.ndarray], bool]:
        return self.unflatten(flat_params), grad

    def _forward(self, features: np.ndarray, edge: np.ndarray, prepared,
                 stars) -> tuple[np.ndarray, _Tape | None]:
        """One pass over graphs of equal size, stacked (B, N, .); the tape is
        None unless prepared for the gradient. The GCN draws no stars."""
        (params, grad), (b, n) = prepared, features.shape[:2]
        hidden = self.hidden
        src, dst = _complete_edges(n)
        edge_col = edge[:, src, dst, None]
        h, hs, caches = features, [features], []
        for ell in range(self.layers):
            (msg_w1, msg_b1, msg_w2, msg_b2,
             upd_w1, upd_c1, upd_w2, upd_c2) = params[8 * ell:8 * ell + 8]
            di = h.shape[2]
            # the message MLP's input layer splits into a node term and an edge term
            node = (h.reshape(b * n, di) @ msg_w1[:di] + msg_b1).reshape(b, n, hidden)
            a1 = np.take(node, src, axis=1)
            a1 += edge_col * msg_w1[di]
            a1 = np.maximum(a1, 0.0, out=a1).reshape(-1, hidden)
            msgs = (a1 @ msg_w2).reshape(b, n - 1, n, hidden)  # [b, j, v]: the j-th into v
            top = msgs.max(axis=1) if n > 1 else np.zeros((b, n, hidden))
            won = None
            if grad:  # the first j to reach the max ranks highest and takes its gradient
                won = msgs == top[:, None]
                rank = won * np.arange(n - 1, 0, -1, dtype=np.min_scalar_type(n))[:, None, None]
                won &= rank == rank.max(axis=1, keepdims=True, initial=0)
            # max(x + b2) = max(x) + b2 in floats too, as rounding is monotone
            agg = top + msg_b2 if n > 1 else top
            u = np.concatenate([h, agg], axis=2).reshape(b * n, -1)
            a1u = np.maximum(u @ upd_w1 + upd_c1, 0.0)
            h = (a1u @ upd_w2 + upd_c2).reshape(b, n, hidden)
            hs.append(h)
            caches.append((a1, won, u, a1u))
        # a stacked (B, N, H) @ (H,) product gives each graph the bits of its
        # own product; a (B * N, H) one rounds a row by its position in the block
        head_w, head_b = params[-2:]
        return h @ head_w + head_b, _Tape(edge_col.reshape(-1, 1), hs, caches) if grad else None

    def _backward(self, tape: _Tape, prepared, gz: np.ndarray) -> list[np.ndarray]:
        """Per-graph gradients of each parameter array from the loss
        gradient gz (B, N) at the head's pre-activation."""
        params, (b, n) = prepared[0], gz.shape
        hidden = self.hidden
        src, dst = _complete_edges(n)
        grads: list[np.ndarray] = []
        dh = gz[:, :, None] * params[-2]
        for ell in range(self.layers - 1, -1, -1):
            msg_w1, _, msg_w2, _, upd_w1, _, upd_w2, _ = params[8 * ell:8 * ell + 8]
            a1, won, u, a1u = tape.caches[ell]
            di = tape.h[ell].shape[2]
            dh = dh.reshape(b * n, hidden)
            dz1u = dh @ upd_w2.T
            dz1u *= a1u > 0
            du = (dz1u @ upd_w1.T).reshape(b, n, di + hidden)

            dmsgs = (won * du[:, None, :, di:]).reshape(b * src.size, hidden)
            dz1 = dmsgs @ msg_w2.T
            dz1 *= a1 > 0
            # node (v, u) of axis 1, 2 holds the edge u -> v: summing axis 1
            # adds each source's edges in destination order
            into = np.zeros((b, n, n, hidden))
            into.reshape(b, n * n, hidden)[:, dst * n + src] = dz1.reshape(b, src.size, hidden)
            dnode = into.sum(axis=1).reshape(b * n, hidden)
            grads[:0] = [
                np.concatenate([_per_graph_product(tape.h[ell].reshape(b * n, di), dnode, b),
                                _per_graph_product(tape.edge, dz1, b)], axis=1),
                _row_sums(dnode, b),
                _per_graph_product(a1, dmsgs, b),
                du[:, :, di:].sum(axis=1) if n > 1 else np.zeros((b, hidden)),
                _per_graph_product(u, dz1u, b), _row_sums(dz1u, b),
                _per_graph_product(a1u, dh, b), _row_sums(dh, b),
            ]
            dh = du[:, :, :di] + (dnode @ msg_w1[:di].T).reshape(b, n, di)
        return grads + [np.matmul(gz[:, None, :], tape.h[-1])[:, 0], gz.sum(axis=1)]
