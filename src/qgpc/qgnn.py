"""Quantum graph neural network for power allocation.

Each message between a star center and one leaf runs a shared parameterized
circuit on 2F+1 qubits: qubits [0, F) encode the center, [F, 2F) the leaf,
and qubit 2F the connecting edge. Input encoding is one RY per qubit; each
of ``depth`` entangling blocks applies trainable RY and RZ rotations on
every qubit followed by a CNOT ring. The message is the vector of Z
expectations on the center qubits, so embeddings live in [-1, 1]^F.

A layer updates every center to the mean of its leaf messages (identity when
a star has no leaves). Re-encoding between layers maps an embedding h to the
angle (h + 1) * pi / 2. After L layers the power for node m is

    p_m = p_max * sigmoid(decode_scale * h_m[0] + decode_bias)

Circuit parameters are shared across nodes and leaves, so the trainable
count L * depth * (2F+1) * 2 + 2 is independent of the graph size and of k.

Engine: every message of a layer runs the same circuit. The batch path both
models share (trainer.BatchModel, which also applies the sigmoid) cuts blocks
from a trainer.Split: a block of B graphs of N nodes holds its embeddings as
(B, N, F) and each layer's stars as (B, N, s) leaves, ascending per star, from
one keyed graph.decompose_stars call per layer (frozen ones once per split),
and its N * s (center, leaf, edge) rows, s per center, go through one
kernel call. A block holds graphs whose rows' psi and phi = psi U, 2^n and
2^(n+1) floats, fit channels.BLOCK_BYTES (680 rows at M = 4, k = 2). Every
kernel product runs per graph, a stacked (graphs, rows, K) matmul, except
the trainable slots' contraction, whose products all hold OUTER_GRAPHS
graphs (the last zero-padded); so a graph's powers, loss and gradient have
the same bits in any block. A forward prepared without the gradient keeps
no tape. The RY encoding of |0...0> is the real product state
psi = (x)_q [cos(a_q/2), sin(a_q/2)]; the trainable part is one
2^n x 2^n unitary U, built from (F, depth) and the angles alone: in each
entangling block a qubit's RY and RZ fold into one 2x2 factor, the CNOT
ring is a fixed permutation of the basis columns, and U is the product of
the blocks' permuted Kronecker products. The tests state the same circuit
gate by gate for qsim. The messages are |psi U|^2 @ Z-signs; the tape keeps
each layer's half-angle cosines and sines, psi and phi = psi U for the
backward.
Gradients are exact: each slot x enters as exp(-i x P / 2), so d/dx is half
the circuit at x + pi, and one adjoint pass (Jones & Gacon, arXiv:2009.02823)
over the kept states contracts every slot, chained through the re-encoding
map and the objective; an input slot contracts the adjoint vector with the
product-state factors one qubit at a time. The model never runs qsim, the
tests' oracle for this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import NODE_FEATURES, decompose_stars
# run_batch is not called here; it stays bound on this module for code that
# looks it up or wraps it here (the benchmark's tracer does).
from .qsim import run_batch  # noqa: F401
from .trainer import BatchModel

HALF_PI = np.pi / 2.0
OUTER_GRAPHS = 16  # graphs per product of the adjoint outer products with grad_blocks


def input_slot_count(feature_dim: int) -> int:
    return 2 * feature_dim + 1


def slots_per_layer(feature_dim: int, depth: int) -> int:
    """Trainable angle count of one layer's circuit."""
    return depth * (2 * feature_dim + 1) * 2


def embedding_to_angle(h) -> np.ndarray:
    """Re-encoding map [-1, 1] -> [0, pi]."""
    return (np.asarray(h, dtype=float) + 1.0) * HALF_PI


def node_input_angles(features) -> np.ndarray:
    """Initial rotation angles of node features (..., N, F). Column 0 is
    already angle-scaled by the graph feature map; weight columns are scaled
    by pi/2 and clipped."""
    ang = np.array(features, dtype=float, copy=True)
    ang[..., 1:] = np.clip(ang[..., 1:] * (np.pi / 2.0), 0.0, np.pi)
    return ang


def initial_embeddings(features) -> np.ndarray:
    """Layer-0 embeddings: node feature angles pulled back into [-1, 1]."""
    return node_input_angles(features) * (2.0 / np.pi) - 1.0


# -i P^T of RY and RZ: for row states a rotation exp(-i t P / 2) is its
# transpose, cos(t/2) I + sin(t/2) (-i P^T)
_RY_RZ = np.array([[[0.0, 1.0], [-1.0, 0.0]], [[-1j, 0.0], [0.0, 1j]]])


@lru_cache(maxsize=8)
def _ring_gather(n: int) -> np.ndarray:
    """Where each entry of an entangling block on n qubits comes from,
    (4^n,), read-only: block entry (b, perm[b']) is entry (b, b') of the
    Kronecker product of the qubits' 2x2 factors, whose index holds qubit
    q's factor entry (i, j) as base-4 digit q, 2 i + j; perm is the CNOT
    ring q -> q + 1 (mod n) on the basis columns."""
    dim = 2 ** n
    perm = np.arange(dim)
    for q in range(n):
        perm ^= ((perm >> q) & 1) << (q + 1) % n
    spread = ((np.arange(dim)[:, None] >> np.arange(n)) & 1) @ 4 ** np.arange(n)
    gather = np.empty((dim, dim), dtype=int)
    gather[:, perm] = 2 * spread[:, None] + spread
    gather = gather.ravel()
    gather.flags.writeable = False
    return gather


def _unitaries(n: int, depth: int, thetas: np.ndarray) -> np.ndarray:
    """The trainable part U of the n-qubit message circuit at each row of
    thetas (T, depth * n * 2), as [Re U | Im U] (T, 2^n, 2^(n+1)); block d's
    RY and RZ angles on qubit q sit at columns 2 (d n + q) and 2 (d n + q) + 1.
    Row b of U is the circuit applied to basis state b: states psi -> psi @ U.
    A block's two rotations on qubit q fold into one 2x2 factor, the block is
    the Kronecker product of its factors with the columns permuted by the
    CNOT ring (``_ring_gather``), and U is the product of the blocks in order."""
    t, dim = len(thetas), 2 ** n
    half = 0.5 * thetas.reshape(t, depth, n, 2, 1, 1)
    rot = np.cos(half) * np.eye(2) + np.sin(half) * _RY_RZ  # (T, depth, n, 2, 2, 2)
    factors = (rot[:, :, :, 0] @ rot[:, :, :, 1]).reshape(t, depth, n, 4)
    entries = factors[:, :, 0]  # qubit 0's entries; each qubit above adds a base-4 digit
    for q in range(1, n):
        entries = (factors[:, :, q, :, None] * entries[:, :, None, :]).reshape(t, depth, -1)
    blocks = np.take(entries, _ring_gather(n), axis=2).reshape(t, depth, dim, dim)
    u = blocks[:, 0]
    for d in range(1, depth):
        u = u @ blocks[:, d]
    return np.concatenate([u.real, u.imag], axis=2)


def _product_state(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of (x)_q RY(a_q)|0> = (x)_q [c_q, s_q], c = cos(a/2) and
    s = sin(a/2) of the angles (R, n), qubit 0 least significant: (R, 2^n)."""
    psi = np.ones((len(c), 1))
    for q in range(c.shape[1]):
        psi = np.concatenate([c[:, q, None] * psi, s[:, q, None] * psi], axis=1)
    return psi


def _shifted_dots(c: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """psi(a + pi e_q) . v for every row and qubit q, from c = cos(a/2) and
    s = sin(a/2) (R, n) and v (R, 2^n) -> (R, n), without forming the
    shifted states. v is contracted with one qubit's factor [c_q, s_q] at a
    time, qubit 0 first, carrying the all-unshifted row and one row per
    qubit already contracted with its shifted factor [-s_q, c_q]."""
    x = v[:, None, :]  # (R, 1 + qubits shifted so far, amplitudes left)
    for q in range(c.shape[1]):
        x = x.reshape(len(x), x.shape[1], -1, 2)
        lo, hi = x[..., 0], x[..., 1]
        cq, sq = c[:, q, None, None], s[:, q, None, None]
        x = np.concatenate([lo * cq + hi * sq, hi[:, :1] * cq - lo[:, :1] * sq], axis=1)
    return x[:, 1:, 0]


def _per_graph(a: np.ndarray, b: np.ndarray, graphs: int) -> np.ndarray:
    """a @ b for rows of a stacked as ``graphs`` equal runs, one product per
    graph: BLAS rounds a row by the shape of the product it sits in, so a
    graph's rows keep their bits in any block."""
    return (a.reshape(graphs, -1, a.shape[1]) @ b).reshape(len(a), -1)


class _Kernel:
    """A layer's message circuit at trainable angles theta: the block U as
    [Re U | Im U], in closed form (``_unitaries``); with ``grad``, also the
    blocks at theta + pi e_s, one per trainable slot s, from the same call.
    Rows come as ``graphs`` equal runs, one per graph. Every product runs
    per graph, or in products of one fixed shape, so a graph's results do
    not depend on its block."""

    def __init__(self, feature_dim: int, depth: int, theta: np.ndarray, grad: bool = False):
        n = input_slot_count(feature_dim)
        self.signs = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(feature_dim)) & 1)
        shifts = np.pi * np.eye(theta.size) if grad else np.empty((0, theta.size))
        blocks = _unitaries(n, depth, np.vstack([theta, theta + shifts]))
        self.block = blocks[0]
        self.grad_blocks = blocks[1:].reshape(len(shifts), self.block.size).T  # (2^(2n+1), S)

    def messages(self, angles: np.ndarray,
                 graphs: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Z expectations (R, F) of the center qubits for input angles (R, n),
        and the rows for ``vjp``: the half-angle factors cos(a/2) and
        sin(a/2), the product states psi (R, 2^n) and phi = psi U (R,
        2^(n+1)) as [Re | Im]."""
        c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
        psi = _product_state(c, s)
        phi = _per_graph(psi, self.block, graphs)
        dim = self.block.shape[0]
        prob = phi[:, :dim] ** 2
        prob += phi[:, dim:] ** 2
        return _per_graph(prob, self.signs, graphs), (c, s, psi, phi)

    def vjp(self, rows: tuple, w: np.ndarray, graphs: int) -> tuple[np.ndarray, ...]:
        """Gradients of sum_{r, f} w[r, f] <Z_f>_r at each row's input slots
        (R, n) and at the trainable slots, summed over each graph's rows
        (graphs, S). With y = obs * conj(phi), obs = sum_f w[r, f] Z_f, slot
        x gives 2 Re(y . dphi/dx): psi(a + pi e_q) . Re(U y) for input slot q
        (``_shifted_dots``), and Re <sum_r psi_r^T y_r, U(theta + pi e_s)>
        over a graph's rows for trainable slot s."""
        c, s, psi, phi = rows  # as ``messages`` formed them
        y = np.tile(_per_graph(w, self.signs.T, graphs), 2)
        y *= phi  # [Re y | -Im y]
        inputs = _shifted_dots(c, s, _per_graph(y, self.block.T, graphs))
        psi_t = psi.reshape(graphs, -1, psi.shape[1]).transpose(0, 2, 1)
        y = y.reshape(graphs, -1, y.shape[1])
        trainable = np.empty((graphs, self.grad_blocks.shape[1]))
        # each chunk of graphs' outer products is one product of the same
        # shape, the last chunk zero-padded: BLAS gives a row of a product of
        # fixed shape the same bits wherever it sits and whatever the other
        # rows hold, and one product reads grad_blocks once, not per graph
        outer = np.zeros((OUTER_GRAPHS, psi_t.shape[1], y.shape[2]))
        for lo in range(0, graphs, OUTER_GRAPHS):
            n = min(OUTER_GRAPHS, graphs - lo)
            np.matmul(psi_t[lo:lo + n], y[lo:lo + n], out=outer[:n])  # sum_r psi_r^T y_r
            outer[n:] = 0.0
            trainable[lo:lo + n] = (outer.reshape(OUTER_GRAPHS, -1) @ self.grad_blocks)[:n]
        return inputs, trainable


def _row_angles(h: np.ndarray, edge: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Input angles (B * N * s, 2F+1) of a block's message rows, star by
    star: the center's and the leaf's embeddings and the edge leaf -> center,
    for embeddings h (B, N, F), edge angles (B, N, N), sorted leaves (B, N, s)."""
    graph = np.arange(len(leaves))[:, None, None]
    center = np.broadcast_to(np.arange(leaves.shape[1])[:, None], leaves.shape)
    angle = embedding_to_angle(h)
    rows = np.concatenate([angle[graph, center], angle[graph, leaves],
                           edge[graph, leaves, center][..., None]], axis=3)
    return rows.reshape(-1, rows.shape[3])


def _layer_forward(kernel: _Kernel, h: np.ndarray, edge: np.ndarray,
                   leaves: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """Every center moves to the mean message of its s leaves, and the
    rows the backward reads; with no leaves (s = 0) h passes through."""
    b, n, s = leaves.shape
    if s == 0:
        return h.copy(), None
    msgs, rows = kernel.messages(_row_angles(h, edge, leaves), b)
    return msgs.reshape(b, n, s, -1).sum(axis=2) * (1.0 / s), rows


def _layer_backward(kernel: _Kernel, rows: tuple | None, leaves: np.ndarray,
                    g_out: np.ndarray, grad_theta: np.ndarray) -> np.ndarray:
    """Loss gradient at the layer input from ``g_out`` at its output; adds
    each graph's trainable-angle gradient into its row of ``grad_theta``."""
    b, n, s = leaves.shape
    if s == 0:
        return g_out
    f = g_out.shape[2]
    w = np.repeat(g_out.reshape(b * n, f) / s, s, axis=0)  # rows are star-major
    inputs, theta_grad = kernel.vjp(rows, w, b)
    grad_theta += theta_grad
    inputs = inputs.reshape(b, n, s, -1) * HALF_PI
    g_in = inputs[..., :f].sum(axis=2)
    np.add.at(g_in, (np.arange(b)[:, None, None], leaves), inputs[..., f:2 * f])
    return g_in


@dataclass(eq=False)
class _Tape:
    """A forward pass over B graphs of N nodes each, kept for the backward."""

    h: list[np.ndarray]       # (B, N, F) embeddings entering each layer, then the final ones
    leaves: list[np.ndarray]  # (B, N, s) each layer's star leaves, ascending per star
    rows: list[tuple | None]  # each layer's message rows, as _Kernel.messages gives them


class QgnnModel(BatchModel):
    """Adapter bundling the architecture hyperparameters for the trainer."""

    name = "qgnn"
    draws_stars = True
    forward = BatchModel.forward  # bound here too, where tracers look it up

    def __init__(self, layers: int = 2, depth: int = 1, k: int = 2):
        self.layers = layers
        self.depth = depth
        self.k = k

    def _shapes(self) -> list[tuple[int, ...]]:
        """Each layer's trainable angles, then the decode scale and bias."""
        return [(slots_per_layer(NODE_FEATURES, self.depth),)] * self.layers + [(), ()]

    def arch_dict(self) -> dict:
        return {"layers": self.layers, "depth": self.depth, "k": self.k}

    def _item_bytes(self, n: int) -> int:
        """A graph's N min(k, N-1) message rows each keep their product state
        psi and phi = psi U on the tape, 2^n and 2^(n+1) floats (n qubits)."""
        return n * min(self.k, n - 1) * 3 * 2 ** input_slot_count(NODE_FEATURES) * 8

    def _prepare(self, flat_params, grad: bool) -> tuple[list[np.ndarray], list[_Kernel], bool]:
        params = self.unflatten(flat_params)
        kernels = [_Kernel(NODE_FEATURES, self.depth, theta, grad) for theta in params[:-2]]
        return params, kernels, grad

    def _stars(self, n: int, star_seeds: np.ndarray) -> list[np.ndarray]:
        """Layer ell of graph b draws its stars with seed star_seeds[b] + ell
        (uint64, wrapping), one draw per layer for all the seeds. The leaves
        are sorted here, so a layer's bits do not depend on the order a draw
        lists them in."""
        return [np.sort(decompose_stars(n, self.k, star_seeds + np.uint64(ell)), axis=2)
                for ell in range(self.layers)]

    def _forward(self, features: np.ndarray, edge: np.ndarray, prepared,
                 stars: list[np.ndarray]) -> tuple[np.ndarray, _Tape | None]:
        """Scores of graphs of equal size, stacked (B, N, .); the tape is
        None unless prepared for the gradient, so a forward-only pass drops
        each layer's rows once the layer is done."""
        params, kernels, grad = prepared
        h = initial_embeddings(features)
        tape = _Tape([h], stars, []) if grad else None
        for kernel, leaves in zip(kernels, stars, strict=True):
            h, rows = _layer_forward(kernel, h, edge, leaves)
            if grad:
                tape.h.append(h)
                tape.rows.append(rows)
        scale, bias = params[-2:]
        return scale * h[:, :, 0] + bias, tape

    def _backward(self, tape: _Tape, prepared, gz: np.ndarray) -> list[np.ndarray]:
        """Per-graph gradients of each parameter array from the loss
        gradient gz (B, N) at the head scores."""
        params, kernels, _ = prepared
        grads = [np.zeros((len(gz), theta.size)) for theta in params[:-2]]
        grads += [(gz * tape.h[-1][:, :, 0]).sum(axis=1), gz.sum(axis=1)]
        g = np.zeros_like(tape.h[-1])
        g[:, :, 0] = gz * params[-2]
        for ell in range(len(kernels) - 1, -1, -1):
            g = _layer_backward(kernels[ell], tape.rows[ell], tape.leaves[ell], g, grads[ell])
        return grads
