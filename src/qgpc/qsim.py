"""Dense statevector simulator for small parameterized circuits.

Little-endian convention: basis index i assigns bit (i >> q) & 1 to qubit q,
so qubit 0 is the least significant bit. Supported gates are RX, RY, RZ
(one target plus an angle slot) and H, CNOT, CZ (no slot; CNOT/CZ take
(control, target)). Rotations follow the half-angle convention, e.g.

    RY(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]

Every gate is applied the same way, as a matrix on its target axes: a
rotation is a (B, 2, 2) stack at the batch's row angles, H a fixed 2x2, and
CNOT and CZ fixed 4x4s indexed by (control bit, target bit). The target
axes of the (B, 2, ..., 2) state move to the front, one stacked matmul
applies the gate, and the axes move back.

Expectations are exact; there is no shot sampling. Angle slots may be shared
by several gates, in which case the parameter-shift derivative sums the
per-occurrence shift terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QUBIT_LIMIT = 20
NORM_TOL = 1e-10

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "CNOT", "CZ")
_ARITY = {"RX": 1, "RY": 1, "RZ": 1, "H": 1, "CNOT": 2, "CZ": 2}

# each rotation is exp(-i t P / 2) = cos(t/2) I - i sin(t/2) P for its Pauli P
_PAULIS = {
    "RX": np.array([[0, 1], [1, 0]]),
    "RY": np.array([[0, -1j], [1j, 0]]),
    "RZ": np.array([[1, 0], [0, -1]]),
}
# two-qubit rows and columns are indexed 2 * (control bit) + (target bit)
_FIXED = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
}


class CircuitError(ValueError):
    """Raised for malformed circuits, states, or gradient requests."""


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle_slot: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        want = _ARITY.get(self.kind)
        if want is None:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != want:
            raise CircuitError(f"{self.kind} takes {want} target(s), got {self.targets}")
        if self.kind in ROTATION_KINDS and self.angle_slot is None:
            raise CircuitError(f"{self.kind} requires an angle slot")
        if self.kind in FIXED_KINDS and self.angle_slot is not None:
            raise CircuitError(f"{self.kind} takes no angle slot")
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"duplicate targets in {self.kind}{self.targets}")


@dataclass(frozen=True)
class CircuitSpec:
    n: int
    gates: tuple[Gate, ...]
    angle_slots: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not 1 <= self.n <= QUBIT_LIMIT:
            raise CircuitError(f"qubit count {self.n} outside [1, {QUBIT_LIMIT}]")
        for g in self.gates:
            if any(t < 0 or t >= self.n for t in g.targets):
                raise CircuitError(f"gate target out of range in {g}")
            if g.angle_slot is not None and not 0 <= g.angle_slot < self.angle_slots:
                raise CircuitError(f"angle slot {g.angle_slot} out of range")


@dataclass(eq=False)
class StateVector:
    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (2 ** self.n,):
            raise CircuitError(f"amplitude vector has shape {self.amps.shape}")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise CircuitError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")


@dataclass(frozen=True)
class Observable:
    """Weighted sum of Pauli-Z strings: terms are (coeff, qubit subset)."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        clean = tuple(
            (float(c), tuple(sorted(int(q) for q in qs))) for c, qs in self.terms
        )
        object.__setattr__(self, "terms", clean)
        for _, qs in clean:
            if len(set(qs)) != len(qs):
                raise CircuitError(f"repeated qubit in Z string {qs}")

    @classmethod
    def single_z(cls, q: int) -> "Observable":
        return cls(((1.0, (q,)),))


def _apply_gates(amps: np.ndarray, spec: CircuitSpec, angles: np.ndarray,
                 gate_shifts: dict[int, float] | None = None) -> np.ndarray:
    """Apply spec.gates to a batch of states and return the new states.

    amps has shape (B, 2**n); angles has shape (B, angle_slots). gate_shifts
    maps gate index -> additive angle offset for that single occurrence.
    """
    b, n = amps.shape[0], spec.n
    a = amps.reshape((b,) + (2,) * n)
    for gi, g in enumerate(spec.gates):
        if g.kind in ROTATION_KINDS:
            th = angles[:, g.angle_slot]
            if gate_shifts and gi in gate_shifts:
                th = th + gate_shifts[gi]
            half = 0.5 * th
            m = (np.cos(half)[:, None, None] * np.eye(2)
                 - 1j * np.sin(half)[:, None, None] * _PAULIS[g.kind])
        else:
            m = _FIXED[g.kind]
        # qubit q is axis n - q of a; the gate's axes go first, in target order
        axes = [n - q for q in g.targets]
        front = range(1, len(axes) + 1)
        moved = np.moveaxis(a, axes, front)
        out = m @ moved.reshape(b, 2 ** len(axes), 2 ** (n - len(axes)))
        a = np.moveaxis(out.reshape(moved.shape), front, axes)
    return a.reshape(b, -1)


def _check_angles(spec: CircuitSpec, angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (spec.angle_slots,):
        raise CircuitError(
            f"angles have shape {angles.shape}, expected ({spec.angle_slots},)"
        )
    return angles


def _fresh_batch(spec: CircuitSpec, b: int) -> np.ndarray:
    amps = np.zeros((b, 2 ** spec.n), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def run_circuit(spec: CircuitSpec, angles) -> StateVector:
    """Evolve |0...0> through the circuit with the given slot angles."""
    angles = _check_angles(spec, angles)
    amps = _apply_gates(_fresh_batch(spec, 1), spec, angles[None, :])
    return StateVector(spec.n, amps[0])


def run_batch(spec: CircuitSpec, angles: np.ndarray) -> np.ndarray:
    """Evolve one state per row of angles; returns amplitudes (B, 2**n)."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != spec.angle_slots:
        raise CircuitError(
            f"angle batch has shape {angles.shape}, expected (B, {spec.angle_slots})"
        )
    return _apply_gates(_fresh_batch(spec, angles.shape[0]), spec, angles)


@lru_cache(maxsize=256)
def _z_signs(n: int, support: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(2 ** n)
    bits = np.zeros(2 ** n, dtype=np.int64)
    for q in support:
        bits ^= (idx >> q) & 1
    return 1.0 - 2.0 * bits


def expectation(state: StateVector, obs: Observable) -> float:
    """Exact expectation of a Z-string observable."""
    probs = np.abs(state.amps) ** 2
    val = 0.0
    for coeff, support in obs.terms:
        for q in support:
            if q >= state.n:
                raise CircuitError(f"observable qubit {q} outside state of {state.n}")
        val += coeff * float(probs @ _z_signs(state.n, support))
    return val


def expectations_z(amps: np.ndarray, n: int, qubits) -> np.ndarray:
    """Batch single-qubit Z expectations: amps (B, 2**n) -> (B, len(qubits))."""
    probs = np.abs(amps) ** 2
    signs = np.stack([_z_signs(n, (int(q),)) for q in qubits], axis=1)
    return probs @ signs


def _expectation_shifted(spec, angles, obs, gate_shifts) -> float:
    amps = _apply_gates(_fresh_batch(spec, 1), spec, angles[None, :], gate_shifts)
    return expectation(StateVector(spec.n, amps[0]), obs)


def param_shift_grad(spec: CircuitSpec, angles, obs: Observable, slots=None) -> np.ndarray:
    """Exact gradient of the expectation with respect to the requested slots.

    Each occurrence of a slot contributes (E(+pi/2) - E(-pi/2)) / 2 with the
    shift applied to that occurrence alone; shared slots sum their terms.
    Slots referenced by no gate get derivative 0.
    """
    angles = _check_angles(spec, angles)
    if slots is None:
        slots = range(spec.angle_slots)
    slots = [int(s) for s in slots]
    occurrences: dict[int, list[int]] = {}
    for gi, g in enumerate(spec.gates):
        if g.angle_slot is not None:
            occurrences.setdefault(g.angle_slot, []).append(gi)
    grad = np.zeros(len(slots))
    for out_i, s in enumerate(slots):
        if not 0 <= s < spec.angle_slots:
            raise CircuitError(f"gradient slot {s} out of range")
        total = 0.0
        for gi in occurrences.get(s, ()):
            plus = _expectation_shifted(spec, angles, obs, {gi: +np.pi / 2})
            minus = _expectation_shifted(spec, angles, obs, {gi: -np.pi / 2})
            total += 0.5 * (plus - minus)
        grad[out_i] = total
    return grad
