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

Engine: every message of a layer runs the same circuit. The batch path
both models share (trainer.BatchModel, which also applies the sigmoid)
groups a call's graphs by size into blocks; a block of B graphs of N nodes
holds its embeddings as (B, N, F) and each layer's stars as (B, N, s)
leaves, ascending per star and drawn for the whole block by one keyed
graph.decompose_stars call, so the N * s (center, leaf, edge) rows of each
of its graphs go through one kernel call. BLOCK_AMPLITUDES bounds a block's
rows times 2^n. The RY encoding of |0...0> is the real product state
(x)_q [cos(a_q/2), sin(a_q/2)]; the trainable block is one 2^n x 2^n
unitary U, built by the gate-level simulator from the basis states; the
messages are |psi U^T|^2 @ Z-signs. Gradients are exact: parameter shift on
the trainable slots (2 shifted unitaries per slot), the analytic
product-state derivative on the input slots (equal to the shift rule for RY
on |0>), chained through the re-encoding map and the sum-rate objective.
The gate-level simulator stays the independent oracle the tests hold this
kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import NODE_FEATURES, decompose_stars
# run_batch is not called here; it stays bound on this module for code that
# looks it up or wraps it here (the benchmark's tracer does).
from .qsim import CircuitSpec, Gate, _apply_gates, _z_signs, run_batch  # noqa: F401
from .trainer import BatchModel

HALF_PI = np.pi / 2.0
BLOCK_AMPLITUDES = 8192  # amplitudes per kernel temporary: 64 KB of float64


def input_slot_count(feature_dim: int) -> int:
    return 2 * feature_dim + 1


def slots_per_layer(feature_dim: int, depth: int) -> int:
    """Trainable angle count of one layer's circuit."""
    return depth * (2 * feature_dim + 1) * 2


@lru_cache(maxsize=64)
def build_qgcl_circuit(feature_dim: int, depth: int) -> CircuitSpec:
    """Message circuit: RY input encoding on all 2F+1 qubits, then ``depth``
    blocks of per-qubit trainable RY+RZ followed by a CNOT ring. Cached: a
    spec is immutable."""
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    nq = 2 * feature_dim + 1
    gates = [Gate("RY", (q,), q) for q in range(nq)]
    slot = nq
    for _ in range(depth):
        for q in range(nq):
            gates.append(Gate("RY", (q,), slot))
            slot += 1
            gates.append(Gate("RZ", (q,), slot))
            slot += 1
        for q in range(nq):
            gates.append(Gate("CNOT", (q, (q + 1) % nq)))
    return CircuitSpec(n=nq, gates=tuple(gates), angle_slots=slot)


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


def _unitaries(spec: CircuitSpec, thetas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(real, imaginary) parts of the trainable block at each row of thetas,
    from one gate-level run over the basis states with the encoding angles at
    0. Row b of U is the block applied to basis state b: states psi -> psi @ U."""
    dim = 2 ** spec.n
    angles = np.zeros((len(thetas) * dim, spec.angle_slots))
    angles[:, spec.n:] = np.repeat(thetas, dim, axis=0)
    u = _apply_gates(np.tile(np.eye(dim, dtype=complex), (len(thetas), 1)), spec, angles)
    return [(v.real.copy(), v.imag.copy()) for v in u.reshape(-1, dim, dim)]


def _probs(psi: np.ndarray, u: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    return (psi @ u[0]) ** 2 + (psi @ u[1]) ** 2


def _product_state(cos_half: np.ndarray, sin_half: np.ndarray) -> np.ndarray:
    """Rows of (x)_q [cos_q, sin_q], qubit 0 least significant: (R, n) -> (R, 2^n)."""
    psi = np.ones((len(cos_half), 1))
    for q in range(cos_half.shape[1]):
        psi = np.concatenate([cos_half[:, q, None] * psi, sin_half[:, q, None] * psi], axis=1)
    return psi


class _Kernel:
    """A layer's message circuit in closed form at trainable angles theta;
    with ``shifted``, also the block at theta_s +- pi/2 for each slot s."""

    def __init__(self, spec: CircuitSpec, theta: np.ndarray, shifted: bool = False):
        self.signs = np.stack([_z_signs(spec.n, (q,)) for q in range(spec.n // 2)], axis=1)
        shifts = HALF_PI * np.eye(theta.size) if shifted else np.empty((0, theta.size))
        self.block, *rest = _unitaries(spec, np.vstack([theta, theta + shifts, theta - shifts]))
        self.shifted = list(zip(rest[:len(shifts)], rest[len(shifts):]))

    def messages(self, angles: np.ndarray) -> np.ndarray:
        """Z expectations (R, F) of the center qubits for input angles (R, n)."""
        psi = _product_state(np.cos(0.5 * angles), np.sin(0.5 * angles))
        return _probs(psi, self.block) @ self.signs

    def vjp(self, angles: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_f w[r, f] d<Z_f>/d(slot s) for each row r and slot s, input
        slots first: (R, slots). Each slot is reduced to its column at once."""
        n = angles.shape[1]
        obs = w @ self.signs.T  # row r's diagonal observable sum_f w[r, f] Z_f
        c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
        psi = _product_state(c, s)
        out_re, out_im = psi @ self.block[0], psi @ self.block[1]
        grad = np.empty((len(angles), n + len(self.shifted)))
        for q in range(n):  # d/da [cos(a/2), sin(a/2)] = [-sin(a/2), cos(a/2)] / 2
            dc, ds = c.copy(), s.copy()
            dc[:, q], ds[:, q] = -0.5 * s[:, q], 0.5 * c[:, q]
            dpsi = _product_state(dc, ds)
            d_prob = out_re * (dpsi @ self.block[0]) + out_im * (dpsi @ self.block[1])
            grad[:, q] = 2.0 * np.sum(d_prob * obs, axis=1)
        for i, (plus, minus) in enumerate(self.shifted):
            grad[:, n + i] = 0.5 * np.sum((_probs(psi, plus) - _probs(psi, minus)) * obs, axis=1)
        return grad


def _row_angles(h: np.ndarray, edge: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Input angles (B * N * s, 2F+1) of a block's message rows, star by
    star: the center's and the leaf's embeddings and the edge leaf -> center,
    for embeddings h (B, N, F), edge angles (B, N, N), sorted leaves (B, N, s)."""
    graph = np.arange(len(leaves))[:, None, None]
    center = np.broadcast_to(np.arange(leaves.shape[1])[:, None], leaves.shape)
    rows = np.concatenate([embedding_to_angle(h[graph, center]),
                           embedding_to_angle(h[graph, leaves]),
                           edge[graph, leaves, center][..., None]], axis=3)
    return rows.reshape(-1, rows.shape[3])


def _layer_forward(kernel: _Kernel, h: np.ndarray, edge: np.ndarray,
                   leaves: np.ndarray) -> np.ndarray:
    """Every center moves to the mean message of its s leaves; with no
    leaves (s = 0) the embeddings pass through."""
    b, n, s = leaves.shape
    if s == 0:
        return h.copy()
    msgs = kernel.messages(_row_angles(h, edge, leaves))
    mean = np.add.reduceat(msgs, np.arange(0, msgs.shape[0], s), axis=0) * (1.0 / s)
    return mean.reshape(h.shape)


def _layer_backward(kernel: _Kernel, h: np.ndarray, edge: np.ndarray, leaves: np.ndarray,
                    g_out: np.ndarray, grad_theta: np.ndarray) -> np.ndarray:
    """Loss gradient at the layer input from ``g_out`` at its output; adds
    each graph's trainable-angle gradient into its row of ``grad_theta``."""
    b, n, s = leaves.shape
    if s == 0:
        return g_out
    f = h.shape[2]
    center = np.repeat(np.arange(b * n), s)
    g_in = np.zeros((b * n, f))
    slots = kernel.vjp(_row_angles(h, edge, leaves), g_out.reshape(b * n, f)[center] / s)
    leaf = (leaves + n * np.arange(b)[:, None, None]).ravel()
    np.add.at(g_in, center, slots[:, :f] * HALF_PI)
    np.add.at(g_in, leaf, slots[:, f:2 * f] * HALF_PI)
    np.add.at(grad_theta, center // n, slots[:, 2 * f + 1:])
    return g_in.reshape(h.shape)


@dataclass(eq=False)
class _Tape:
    """A forward pass over B graphs of N nodes each, kept for the backward."""

    edge: np.ndarray          # (B, N, N) edge angles
    h: list[np.ndarray]       # (B, N, F) embeddings entering each layer, then the final ones
    leaves: list[np.ndarray]  # (B, N, s) each layer's star leaves, ascending per star


class QgnnModel(BatchModel):
    """Adapter bundling the architecture hyperparameters for the trainer."""

    name = "qgnn"
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

    def _rows(self, n: int) -> int:
        return n * min(self.k, n - 1)

    def _row_budget(self) -> int:  # each (rows, 2^n) kernel temporary holds BLOCK_AMPLITUDES
        return BLOCK_AMPLITUDES >> input_slot_count(NODE_FEATURES)

    def _prepare(self, flat_params, grad: bool) -> tuple[list[np.ndarray], list[_Kernel]]:
        params = self.unflatten(flat_params)
        spec = build_qgcl_circuit(NODE_FEATURES, self.depth)
        return params, [_Kernel(spec, theta, shifted=grad) for theta in params[:-2]]

    def _forward(self, features: np.ndarray, edge: np.ndarray, prepared,
                 star_seeds: np.ndarray) -> tuple[np.ndarray, _Tape]:
        """Layer ell of graph b draws its stars with seed star_seeds[b] + ell
        (uint64, wrapping), one draw per layer for the whole block. The
        leaves are sorted here, so a layer's bits do not depend on the order
        a draw lists them in."""
        params, kernels = prepared
        h, leaves = [initial_embeddings(features)], []
        for ell, kernel in enumerate(kernels):
            stars = decompose_stars(features.shape[1], self.k, star_seeds + np.uint64(ell))
            leaves.append(np.sort(stars, axis=2))
            h.append(_layer_forward(kernel, h[-1], edge, leaves[-1]))
        scale, bias = params[-2:]
        return scale * h[-1][:, :, 0] + bias, _Tape(edge, h, leaves)

    def _backward(self, tape: _Tape, prepared, gz: np.ndarray) -> list[np.ndarray]:
        """Per-graph gradients of each parameter array from the loss
        gradient gz (B, N) at the head scores."""
        params, kernels = prepared
        b, n = gz.shape
        starts = np.arange(0, b * n, n)
        grads = [np.zeros((b, theta.size)) for theta in params[:-2]]
        grads += [np.add.reduceat((gz * tape.h[-1][:, :, 0]).ravel(), starts),
                  np.add.reduceat(gz.ravel(), starts)]
        g = np.zeros_like(tape.h[-1])
        g[:, :, 0] = gz * params[-2]
        for ell in range(len(kernels) - 1, -1, -1):
            g = _layer_backward(kernels[ell], tape.h[ell], tape.edge, tape.leaves[ell],
                                g, grads[ell])
        return grads
