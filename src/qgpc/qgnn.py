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

Engine: every message of a layer runs the same circuit, so a call stacks
the (center, leaf, edge) rows of all stars of all its instances. The RY
encoding of |0...0> is the real product state (x)_q [cos(a_q/2), sin(a_q/2)];
the trainable block is one 2^n x 2^n unitary U, built by the gate-level
simulator from the basis states; the messages are |psi U^T|^2 @ Z-signs.
Gradients are exact: parameter shift on the trainable slots (2 shifted
unitaries per slot), the analytic product-state derivative on the input
slots (equal to the shift rule for RY on |0>), chained through the
re-encoding map and the sum-rate objective. The gate-level simulator stays
the independent oracle the tests hold this kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChannelRealization, sigmoid, sum_rate, weighted_sum_rate_grad
from .graph import NODE_FEATURES, InterferenceGraph, decompose_stars
# run_batch is not called here; it stays bound on this module for code that
# looks it up or wraps it here (the benchmark's tracer does).
from .qsim import CircuitSpec, Gate, _apply_gates, _z_signs, run_batch  # noqa: F401

HALF_PI = np.pi / 2.0
BLOCK_AMPLITUDES = 8192  # amplitudes per kernel temporary: 64 KB of float64


def input_slot_count(feature_dim: int) -> int:
    return 2 * feature_dim + 1


def slots_per_layer(feature_dim: int, depth: int) -> int:
    """Trainable angle count of one layer's circuit."""
    return depth * (2 * feature_dim + 1) * 2


def build_qgcl_circuit(feature_dim: int, depth: int) -> CircuitSpec:
    """Message circuit: RY input encoding on all 2F+1 qubits, then ``depth``
    blocks of per-qubit trainable RY+RZ followed by a CNOT ring."""
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


@lru_cache(maxsize=64)
def _spec_for(feature_dim: int, depth: int) -> CircuitSpec:
    return build_qgcl_circuit(feature_dim, depth)


@dataclass(eq=False)
class QgnnParams:
    layers: list[np.ndarray]  # trainable angles of each layer's circuit
    decode_scale: float
    decode_bias: float

    @staticmethod
    def param_count(feature_dim: int, n_layers: int, depth: int) -> int:
        return n_layers * slots_per_layer(feature_dim, depth) + 2

    @classmethod
    def from_flat(cls, flat, feature_dim: int, n_layers: int, depth: int) -> "QgnnParams":
        flat = np.asarray(flat, dtype=float)
        spl = slots_per_layer(feature_dim, depth)
        want = cls.param_count(feature_dim, n_layers, depth)
        if flat.shape != (want,):
            raise ValueError(f"expected {want} parameters, got shape {flat.shape}")
        layers = [flat[i * spl:(i + 1) * spl].copy() for i in range(n_layers)]
        return cls(layers=layers, decode_scale=float(flat[-2]), decode_bias=float(flat[-1]))

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            self.layers + [np.array([self.decode_scale, self.decode_bias])]
        )


def embedding_to_angle(h) -> np.ndarray:
    """Re-encoding map [-1, 1] -> [0, pi]."""
    return (np.asarray(h, dtype=float) + 1.0) * HALF_PI


def node_input_angles(graph: InterferenceGraph) -> np.ndarray:
    """Initial rotation angles per node. Column 0 is already angle-scaled by
    the graph feature map; weight columns are scaled by pi/2 and clipped."""
    ang = np.array(graph.node_features, dtype=float, copy=True)
    ang[:, 1:] = np.clip(ang[:, 1:] * (np.pi / 2.0), 0.0, np.pi)
    return ang


def initial_embeddings(graph: InterferenceGraph) -> np.ndarray:
    """Layer-0 embeddings: node feature angles pulled back into [-1, 1]."""
    return node_input_angles(graph) * (2.0 / np.pi) - 1.0


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
        # rows per call, so each (rows, 2^n) temporary holds BLOCK_AMPLITUDES
        self.step = max(1, BLOCK_AMPLITUDES // len(self.signs))

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


@dataclass(frozen=True)
class _Rows:
    """A layer's message rows over stacked nodes, star by star, each star's
    leaves ascending so its mean does not depend on the draw order."""

    center: np.ndarray  # (R,) stacked node index of the star center
    leaf: np.ndarray    # (R,) stacked node index of the leaf
    edge: np.ndarray    # (R,) angle of the edge leaf -> center
    fan: np.ndarray     # (R,) leaf count of the row's star
    first: np.ndarray   # first row of each star

    def angles(self, h: np.ndarray, blk: slice) -> np.ndarray:
        return np.concatenate([embedding_to_angle(h[self.center[blk]]),
                               embedding_to_angle(h[self.leaf[blk]]), self.edge[blk, None]], 1)


def _layer_rows(graphs: list[InterferenceGraph], leaves: list[np.ndarray], offsets) -> _Rows:
    """Rows of each graph's (N, s) leaf array, its nodes stacked from its offset."""
    sizes = np.array([len(lv) for lv in leaves])
    node_fan = np.repeat([lv.shape[1] for lv in leaves], sizes)
    center = np.repeat(np.arange(node_fan.size), node_fan)
    graph = np.repeat(np.arange(len(leaves)), [lv.size for lv in leaves])
    local = np.concatenate([np.sort(lv, axis=1).ravel() for lv in leaves])
    # edge leaf -> center of graph b is entry [leaf, center] of its raveled (N, N) block
    block = np.cumsum(sizes ** 2) - sizes ** 2
    angles = np.concatenate([g.edge_angle.ravel() for g in graphs])
    edge = angles[block[graph] + local * sizes[graph] + center - offsets[graph]]
    fan = node_fan[node_fan > 0]
    return _Rows(center, local + offsets[graph], edge, np.repeat(fan, fan), np.cumsum(fan) - fan)


def _layer_forward(spec: CircuitSpec, theta: np.ndarray, h: np.ndarray,
                   rows: _Rows) -> np.ndarray:
    """Centers with leaves move to their mean leaf message; others keep h."""
    h_next = np.array(h, dtype=float, copy=True)
    if rows.center.size:
        kernel = _Kernel(spec, theta)
        msgs = np.concatenate([kernel.messages(rows.angles(h, slice(lo, lo + kernel.step)))
                               for lo in range(0, rows.center.size, kernel.step)])
        inv = 1.0 / rows.fan[rows.first]
        h_next[rows.center[rows.first]] = np.add.reduceat(msgs, rows.first, axis=0) * inv[:, None]
    return h_next


def _layer_backward(spec: CircuitSpec, theta: np.ndarray, h: np.ndarray, rows: _Rows,
                    g_out: np.ndarray, grad_theta: np.ndarray, node_graph: np.ndarray,
                    ) -> np.ndarray:
    """Loss gradient at the layer input from ``g_out`` at its output; adds
    each graph's trainable-angle gradient into its row of ``grad_theta``."""
    g_in = np.array(g_out, copy=True)
    if rows.center.size:
        f = h.shape[1]
        g_in[rows.center[rows.first]] = 0.0
        kernel = _Kernel(spec, theta, shifted=True)
        for lo in range(0, rows.center.size, kernel.step):
            blk = slice(lo, lo + kernel.step)
            center = rows.center[blk]
            slots = kernel.vjp(rows.angles(h, blk), g_out[center] / rows.fan[blk, None])
            np.add.at(g_in, center, slots[:, :f] * HALF_PI)
            np.add.at(g_in, rows.leaf[blk], slots[:, f:2 * f] * HALF_PI)
            np.add.at(grad_theta, node_graph[center], slots[:, 2 * f + 1:])
    return g_in


@dataclass(eq=False)
class _Tape:
    """A forward pass over graphs stacked node-wise, kept for the backward."""

    spec: CircuitSpec
    offsets: np.ndarray     # (B,) first stacked node of each graph
    node_graph: np.ndarray  # (N,) graph of each stacked node
    h: list[np.ndarray]     # embeddings entering each layer, then the final ones
    rows: list[_Rows]       # each layer's message rows
    p_max: np.ndarray       # (N,) power cap of each node
    sig: np.ndarray         # (N,) decoded power fraction


def _forward_tape(graphs: list[InterferenceGraph], params: QgnnParams, k: int,
                  star_seeds) -> _Tape:
    """Layer ell of graph b draws its stars with seed star_seeds[b] + ell."""
    f = graphs[0].feature_dim
    spec = _spec_for(f, params.layers[0].size // (2 * input_slot_count(f)))
    sizes = [g.N for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1])
    h, rows = [np.concatenate([initial_embeddings(g) for g in graphs])], []
    for ell, theta in enumerate(params.layers):
        leaves = [decompose_stars(g.N, k, seed + ell) for g, seed in zip(graphs, star_seeds)]
        rows.append(_layer_rows(graphs, leaves, offsets))
        h.append(_layer_forward(spec, theta, h[-1], rows[-1]))
    sig = sigmoid(params.decode_scale * h[-1][:, 0] + params.decode_bias)
    return _Tape(spec, offsets, np.repeat(np.arange(len(graphs)), sizes), h, rows,
                 np.repeat([g.p_max for g in graphs], sizes), sig)


def _loss_and_grad(tape: _Tape, channels: list[ChannelRealization], params: QgnnParams,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph losses (B,) and gradients (B, P) in flat layout."""
    p = tape.p_max * tape.sig
    losses = np.empty(len(channels))
    dloss_dp = np.empty_like(p)
    for b, (ch, lo) in enumerate(zip(channels, tape.offsets)):
        losses[b] = -sum_rate(ch, p[lo:lo + ch.M])
        dloss_dp[lo:lo + ch.M] = -weighted_sum_rate_grad(ch, p[lo:lo + ch.M])
    gz = dloss_dp * (tape.p_max * tape.sig * (1.0 - tape.sig))
    spl = params.layers[0].size
    grads = np.zeros((len(channels), len(params.layers) * spl + 2))
    grads[:, -2] = np.add.reduceat(gz * tape.h[-1][:, 0], tape.offsets)
    grads[:, -1] = np.add.reduceat(gz, tape.offsets)
    g = np.zeros_like(tape.h[-1])
    g[:, 0] = gz * params.decode_scale
    for ell in range(len(params.layers) - 1, -1, -1):
        g = _layer_backward(tape.spec, params.layers[ell], tape.h[ell], tape.rows[ell],
                            g, grads[:, ell * spl:(ell + 1) * spl], tape.node_graph)
    return losses, grads


class QgnnModel:
    """Adapter bundling the architecture hyperparameters for the trainer."""

    name = "qgnn"

    def __init__(self, layers: int = 2, depth: int = 1, k: int = 2):
        self.layers = layers
        self.depth = depth
        self.k = k

    def param_count(self) -> int:
        return QgnnParams.param_count(NODE_FEATURES, self.layers, self.depth)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=self.param_count())

    def unflatten(self, flat) -> QgnnParams:
        return QgnnParams.from_flat(flat, NODE_FEATURES, self.layers, self.depth)

    def forward(self, channels: ChannelRealization, graph: InterferenceGraph,
                flat_params, star_seed: int) -> np.ndarray:
        """Powers of one instance: the stacked pass at B = 1."""
        tape = _forward_tape([graph], self.unflatten(flat_params), self.k, [star_seed])
        return tape.p_max * tape.sig

    def forward_batch(self, instances, flat_params, star_seeds) -> list[np.ndarray]:
        """Powers of every instance from one stacked pass."""
        tape = _forward_tape([inst.graph for inst in instances], self.unflatten(flat_params),
                             self.k, star_seeds)
        return np.split(tape.p_max * tape.sig, tape.offsets[1:])

    def loss_and_grad_batch(self, instances, flat_params, star_seeds,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance losses (B,) and gradients (B, P) from one stacked pass."""
        params = self.unflatten(flat_params)
        tape = _forward_tape([inst.graph for inst in instances], params, self.k, star_seeds)
        return _loss_and_grad(tape, [inst.channels for inst in instances], params)

    def arch_dict(self) -> dict:
        return {"layers": self.layers, "depth": self.depth, "k": self.k}
