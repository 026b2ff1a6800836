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

Gradients are exact: parameter-shift rules on both the trainable and the
input slots, chained through the re-encoding map and the analytic derivative
of the sum-rate objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChannelRealization, sigmoid, sum_rate, weighted_sum_rate_grad
from .graph import NODE_FEATURES, InterferenceGraph, StarSubgraph, decompose_stars
from .qsim import CircuitSpec, Gate, expectations_z, run_batch


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
class QgclLayerParams:
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)


@dataclass(eq=False)
class QgnnParams:
    layers: list[QgclLayerParams]
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
        layers = [
            QgclLayerParams(flat[i * spl:(i + 1) * spl].copy()) for i in range(n_layers)
        ]
        return cls(layers=layers, decode_scale=float(flat[-2]), decode_bias=float(flat[-1]))

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [layer.theta for layer in self.layers]
            + [np.array([self.decode_scale, self.decode_bias])]
        )


def embedding_to_angle(h) -> np.ndarray:
    """Re-encoding map [-1, 1] -> [0, pi]."""
    return (np.asarray(h, dtype=float) + 1.0) * (np.pi / 2.0)


def node_input_angles(graph: InterferenceGraph) -> np.ndarray:
    """Initial rotation angles per node. Column 0 is already angle-scaled by
    the graph feature map; weight columns are scaled by pi/2 and clipped."""
    ang = np.array(graph.node_features, dtype=float, copy=True)
    ang[:, 1:] = np.clip(ang[:, 1:] * (np.pi / 2.0), 0.0, np.pi)
    return ang


def initial_embeddings(graph: InterferenceGraph) -> np.ndarray:
    """Layer-0 embeddings: node feature angles pulled back into [-1, 1]."""
    return node_input_angles(graph) * (2.0 / np.pi) - 1.0


def _star_rows(star: StarSubgraph, embeddings: np.ndarray, layer: QgclLayerParams,
               ) -> np.ndarray:
    """Message-circuit rows of one star, one per leaf: center angles, leaf
    angles, the edge angle, then the layer's trainable angles."""
    f = embeddings.shape[1]
    rows = np.empty((len(star.leaves), 2 * f + 1 + layer.theta.size))
    rows[:, :f] = embedding_to_angle(embeddings[star.center])
    rows[:, f:2 * f] = embedding_to_angle(embeddings[list(star.leaves)])
    rows[:, 2 * f] = star.edge_feats
    rows[:, 2 * f + 1:] = layer.theta
    return rows


def qgcl_forward(star: StarSubgraph, embeddings: np.ndarray, layer: QgclLayerParams,
                 spec: CircuitSpec, rows: np.ndarray | None = None) -> np.ndarray:
    """New center embedding: mean leaf message, computed order-independently.
    A star with no leaves passes the center embedding through unchanged.
    ``rows`` are the star's circuit rows when the caller has built them."""
    feature_dim = (spec.n - 1) // 2
    if not star.leaves:
        return np.array(embeddings[star.center], dtype=float, copy=True)
    if rows is None:
        rows = _star_rows(star, embeddings, layer)
    msgs = expectations_z(run_batch(spec, rows), spec.n, range(feature_dim))
    inv = 1.0 / len(star.leaves)
    return np.array([math.fsum(msgs[:, q]) * inv for q in range(feature_dim)])


def _layer_pass(h: np.ndarray, stars: list[StarSubgraph], layer: QgclLayerParams,
                spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """One QGCL layer: the new embeddings and the circuit rows their messages
    came from, stacked in star then leaf order (the backward pass reuses them)."""
    new_h = np.empty_like(h)
    rows = []
    for star in stars:
        rows.append(_star_rows(star, h, layer))
        new_h[star.center] = qgcl_forward(star, h, layer, spec, rows[-1])
    return new_h, np.concatenate(rows)


def _stars_for_layers(graph, k, star_seed, n_layers, stars_by_layer):
    if stars_by_layer is not None:
        if len(stars_by_layer) != n_layers:
            raise ValueError("need one star list per layer")
        return list(stars_by_layer)
    return [decompose_stars(graph, k, star_seed + ell) for ell in range(n_layers)]


def _forward_tape(graph, params, k, star_seed, stars_by_layer):
    """Run every layer. Returns the message circuit, each layer's stars, the
    embeddings entering each layer plus the final ones, and each layer's rows."""
    depth = params.layers[0].theta.size // (2 * input_slot_count(graph.feature_dim))
    spec = _spec_for(graph.feature_dim, depth)
    stars_all = _stars_for_layers(graph, k, star_seed, len(params.layers), stars_by_layer)
    h_list = [initial_embeddings(graph)]
    rows_all = []
    for layer, stars in zip(params.layers, stars_all):
        h, rows = _layer_pass(h_list[-1], stars, layer, spec)
        h_list.append(h)
        rows_all.append(rows)
    return spec, stars_all, h_list, rows_all


def qgnn_forward(graph: InterferenceGraph, params: QgnnParams, k: int, star_seed: int,
                 stars_by_layer: list[list[StarSubgraph]] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Run all layers and decode powers. Layer ell draws its stars with seed
    star_seed + ell unless explicit stars are supplied. Returns (p, h)."""
    _, _, h_list, _ = _forward_tape(graph, params, k, star_seed, stars_by_layer)
    h = h_list[-1]
    p = graph.p_max * sigmoid(params.decode_scale * h[:, 0] + params.decode_bias)
    return p, h


def _slot_jacobian(spec: CircuitSpec, rows: np.ndarray, feature_dim: int) -> np.ndarray:
    """d<Z_q>/d(slot) for every row: returns (R, angle_slots, F).

    Valid because each slot of the message circuit feeds exactly one gate,
    so a slot-level shift equals the single-occurrence shift.
    """
    r, s = rows.shape
    shifts = np.zeros((s, 2, s))
    idx = np.arange(s)
    shifts[idx, 0, idx] = +np.pi / 2.0
    shifts[idx, 1, idx] = -np.pi / 2.0
    big = (rows[:, None, None, :] + shifts[None, :, :, :]).reshape(r * s * 2, s)
    vals = expectations_z(run_batch(spec, big), spec.n, range(feature_dim))
    vals = vals.reshape(r, s, 2, feature_dim)
    return 0.5 * (vals[:, :, 0, :] - vals[:, :, 1, :])


def qgnn_loss_and_grad(graph: InterferenceGraph, channels: ChannelRealization,
                       params: QgnnParams, k: int, star_seed: int,
                       stars_by_layer: list[list[StarSubgraph]] | None = None,
                       ) -> tuple[float, np.ndarray]:
    """Negative weighted sum rate and its exact gradient in flat layout
    (layer angles in order, then decode_scale, decode_bias)."""
    spec, stars_all, h_list, rows_all = _forward_tape(
        graph, params, k, star_seed, stars_by_layer)
    feature_dim = graph.feature_dim
    n_input = input_slot_count(feature_dim)
    h_final = h_list[-1]

    sig = sigmoid(params.decode_scale * h_final[:, 0] + params.decode_bias)
    p = graph.p_max * sig

    loss = -sum_rate(channels, p)
    dloss_dp = -weighted_sum_rate_grad(channels, p)

    dp_dz = graph.p_max * sig * (1.0 - sig)
    gz = dloss_dp * dp_dz
    grad_scale = float(np.sum(gz * h_final[:, 0]))
    grad_bias = float(np.sum(gz))

    # Backward pass through the layers, on the rows the forward pass ran.
    grad_layers = [np.zeros_like(layer.theta) for layer in params.layers]
    G = np.zeros_like(h_final)
    G[:, 0] = gz * params.decode_scale
    half_pi = np.pi / 2.0
    for ell in range(len(params.layers) - 1, -1, -1):
        rows = rows_all[ell]
        jac = _slot_jacobian(spec, rows, feature_dim) if len(rows) else None
        G_prev = np.zeros_like(G)
        row = 0
        for star in stars_all[ell]:
            i = star.center
            if not star.leaves:
                G_prev[i] += G[i]
                continue
            w = G[i] / len(star.leaves)
            for leaf in star.leaves:
                contrib = jac[row] @ w  # (angle_slots,)
                grad_layers[ell] += contrib[n_input:]
                G_prev[i] += contrib[:feature_dim] * half_pi
                G_prev[leaf] += contrib[feature_dim:2 * feature_dim] * half_pi
                row += 1
        G = G_prev

    flat = np.concatenate(grad_layers + [np.array([grad_scale, grad_bias])])
    return loss, flat


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
        p, _ = qgnn_forward(graph, self.unflatten(flat_params), self.k, star_seed)
        return p

    def loss_and_grad(self, channels: ChannelRealization, graph: InterferenceGraph,
                      flat_params, star_seed: int) -> tuple[float, np.ndarray]:
        return qgnn_loss_and_grad(graph, channels, self.unflatten(flat_params),
                                  self.k, star_seed)

    def arch_dict(self) -> dict:
        return {"layers": self.layers, "depth": self.depth, "k": self.k}
