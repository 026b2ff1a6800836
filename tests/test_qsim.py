"""Statevector simulator: states, expectations, parameter-shift gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qgpc.qsim import (
    FIXED_KINDS, QUBIT_LIMIT, ROTATION_KINDS, CircuitError, CircuitSpec, Gate, Observable,
    StateVector, expectation, expectations_z, param_shift_grad, run_batch, run_circuit,
)


def _spec(n, gates, slots=0):
    return CircuitSpec(n=n, gates=tuple(gates), angle_slots=slots)


def _random_circuit(rng, max_qubits=6, max_slots=12, n_gates=18):
    n = int(rng.integers(2, max_qubits + 1))
    slots = int(rng.integers(1, max_slots + 1))
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["RX", "RY", "RZ", "H", "CNOT", "CZ"])
        if kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (int(rng.integers(n)),), int(rng.integers(slots))))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
    return _spec(n, gates, slots), rng.uniform(-np.pi, np.pi, slots)


def _random_observable(rng, n):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, n + 1))
        qs = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        terms.append((float(rng.uniform(-1, 1)), qs))
    return Observable(tuple(terms))


def _fd_grad(spec, angles, obs, h=1e-5):
    fd = np.zeros(spec.angle_slots)
    for j in range(spec.angle_slots):
        e = np.zeros(spec.angle_slots)
        e[j] = h
        plus = expectation(run_circuit(spec, angles + e), obs)
        minus = expectation(run_circuit(spec, angles - e), obs)
        fd[j] = (plus - minus) / (2 * h)
    return fd


def test_empty_circuit_is_identity():
    spec = _spec(3, [])
    st = run_circuit(spec, np.zeros(0))
    want = np.zeros(8, dtype=complex)
    want[0] = 1.0
    assert np.array_equal(st.amps, want)


def test_ry_half_pi_amplitudes():
    spec = _spec(1, [Gate("RY", (0,), 0)], 1)
    st = run_circuit(spec, [np.pi / 2])
    assert st.amps[0] == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
    assert st.amps[1] == pytest.approx(np.sin(np.pi / 4), abs=1e-15)
    assert expectation(st, Observable.single_z(0)) == pytest.approx(0.0, abs=1e-12)


def test_ry_pi_then_cnot_reaches_basis_state_three():
    spec = _spec(2, [Gate("RY", (0,), 0), Gate("CNOT", (0, 1))], 1)
    st = run_circuit(spec, [np.pi])
    assert abs(st.amps[3]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(st.amps[:3], 0.0, atol=1e-12)
    # a control above its target, two qubits apart: |100> -> |101> = 5
    spec = _spec(3, [Gate("RY", (2,), 0), Gate("CNOT", (2, 0))], 1)
    st = run_circuit(spec, [np.pi])
    assert abs(st.amps[5]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(st.amps, 5), 0.0, atol=1e-12)


def test_bell_state_parity():
    spec = _spec(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
    st = run_circuit(spec, np.zeros(0))
    assert expectation(st, Observable(((1.0, (0, 1)),))) == pytest.approx(1.0, abs=1e-12)
    assert expectation(st, Observable.single_z(0)) == pytest.approx(0.0, abs=1e-12)


def test_cz_flips_phase_of_one_one():
    spec = _spec(2, [Gate("RY", (0,), 0), Gate("RY", (1,), 0), Gate("CZ", (0, 1))], 1)
    st = run_circuit(spec, [np.pi])
    assert st.amps[3] == pytest.approx(-1.0, abs=1e-12)
    # qubits two apart: CZ(0, 2) negates |101> = 5
    spec = _spec(3, [Gate("RY", (0,), 0), Gate("RY", (2,), 0), Gate("CZ", (0, 2))], 1)
    st = run_circuit(spec, [np.pi])
    assert st.amps[5] == pytest.approx(-1.0, abs=1e-12)


def test_rx_rz_match_matrix_algebra():
    theta = 0.77
    spec = _spec(1, [Gate("RX", (0,), 0)], 1)
    st = run_circuit(spec, [theta])
    assert st.amps[0] == pytest.approx(np.cos(theta / 2), abs=1e-15)
    assert st.amps[1] == pytest.approx(-1j * np.sin(theta / 2), abs=1e-15)
    spec = _spec(1, [Gate("H", (0,)), Gate("RZ", (0,), 0)], 1)
    st = run_circuit(spec, [theta])
    assert st.amps[0] == pytest.approx(np.exp(-0.5j * theta) / np.sqrt(2), abs=1e-15)
    assert st.amps[1] == pytest.approx(np.exp(+0.5j * theta) / np.sqrt(2), abs=1e-15)


@st.composite
def _circuits(draw):
    """A circuit over all six gate kinds and 2-5 rows of angles in [-1e3, 1e3]."""
    n = draw(st.integers(2, 6))
    slots = draw(st.integers(1, 12))
    qubit = st.integers(0, n - 1)
    gates = []
    for kind in draw(st.lists(st.sampled_from(ROTATION_KINDS + FIXED_KINDS), max_size=30)):
        if kind in ROTATION_KINDS:
            gates.append(Gate(kind, (draw(qubit),), draw(st.integers(0, slots - 1))))
        elif kind == "H":
            gates.append(Gate("H", (draw(qubit),)))
        else:
            gates.append(Gate(kind, tuple(draw(st.lists(qubit, min_size=2, max_size=2,
                                                        unique=True)))))
    rows = draw(hnp.arrays(float, (draw(st.integers(2, 5)), slots),
                           elements=st.floats(-1e3, 1e3)))
    return _spec(n, gates, slots), rows


@settings(max_examples=100)
@given(_circuits())
def test_random_circuits_preserve_norm_and_determinism(circuit):
    spec, rows = circuit
    batch = run_batch(spec, rows)
    assert np.array_equal(batch, run_batch(spec, rows))
    np.testing.assert_allclose(np.sum(np.abs(batch) ** 2, axis=1), 1.0, rtol=0, atol=1e-10)
    for row, amps in zip(rows, batch):
        assert np.array_equal(amps, run_circuit(spec, row).amps)


def test_circuit_followed_by_its_inverse_returns_to_vacuum():
    rng = np.random.default_rng(29)
    spec, angles = _random_circuit(rng, n_gates=12)
    gates = list(spec.gates)
    full_angles = list(angles)
    slot = spec.angle_slots
    for g in reversed(spec.gates):
        if g.kind in ("RX", "RY", "RZ"):
            gates.append(Gate(g.kind, g.targets, slot))
            full_angles.append(-angles[g.angle_slot])
            slot += 1
        else:
            gates.append(g)  # H, CNOT, CZ are self-inverse
    combined = _spec(spec.n, gates, slot)
    st = run_circuit(combined, np.asarray(full_angles))
    want = np.zeros(2 ** spec.n, dtype=complex)
    want[0] = 1.0
    assert np.allclose(st.amps, want, atol=1e-10)


def test_batch_matches_single_runs_exactly():
    rng = np.random.default_rng(31)
    spec, _ = _random_circuit(rng)
    rows = rng.uniform(-np.pi, np.pi, (7, spec.angle_slots))
    batch = run_batch(spec, rows)
    for i in range(rows.shape[0]):
        assert np.array_equal(batch[i], run_circuit(spec, rows[i]).amps)
    qubits = list(range(min(3, spec.n)))
    ez = expectations_z(batch, spec.n, qubits)
    for i in range(rows.shape[0]):
        for col, q in enumerate(qubits):
            want = expectation(StateVector(spec.n, batch[i]), Observable.single_z(q))
            assert ez[i, col] == pytest.approx(want, abs=1e-12)


def test_qubit_ceiling_enforced():
    with pytest.raises(CircuitError):
        _spec(QUBIT_LIMIT + 1, [])
    spec = _spec(QUBIT_LIMIT, [Gate("RY", (0,), 0)], 1)
    st = run_circuit(spec, [0.3])
    assert st.amps.shape == (2 ** QUBIT_LIMIT,)


def test_gate_and_spec_validation():
    with pytest.raises(CircuitError):
        Gate("RY", (0,))  # rotation without slot
    with pytest.raises(CircuitError):
        Gate("CNOT", (0, 1), 0)  # fixed gate with slot
    with pytest.raises(CircuitError):
        Gate("CNOT", (1, 1))  # duplicate targets
    with pytest.raises(CircuitError):
        Gate("SWAP", (0, 1))  # unknown kind
    with pytest.raises(CircuitError):
        _spec(2, [Gate("RY", (2,), 0)], 1)  # target out of range
    with pytest.raises(CircuitError):
        _spec(2, [Gate("RY", (0,), 1)], 1)  # slot out of range
    with pytest.raises(CircuitError):
        run_circuit(_spec(1, [Gate("RY", (0,), 0)], 1), [0.1, 0.2])  # angle count
    with pytest.raises(CircuitError):
        StateVector(1, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(CircuitError):
        Observable(((1.0, (0, 0)),))  # repeated qubit in Z string


def test_expectation_rejects_out_of_range_qubit():
    st = run_circuit(_spec(1, []), np.zeros(0))
    with pytest.raises(CircuitError):
        expectation(st, Observable.single_z(3))


def test_param_shift_single_rotation_worked_values():
    spec = _spec(1, [Gate("RY", (0,), 0)], 1)
    obs = Observable.single_z(0)
    assert param_shift_grad(spec, [0.0], obs)[0] == pytest.approx(0.0, abs=1e-12)
    assert param_shift_grad(spec, [np.pi / 2], obs)[0] == pytest.approx(-1.0, abs=1e-12)


def test_param_shift_unreferenced_slot_is_zero():
    spec = _spec(1, [Gate("RY", (0,), 0)], 2)
    grad = param_shift_grad(spec, [0.4, 0.9], Observable.single_z(0))
    assert grad[1] == 0.0


def test_param_shift_slot_out_of_range():
    spec = _spec(1, [Gate("RY", (0,), 0)], 1)
    with pytest.raises(CircuitError):
        param_shift_grad(spec, [0.4], Observable.single_z(0), slots=[2])


def test_param_shift_matches_finite_differences():
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec, angles = _random_circuit(rng)
        obs = _random_observable(rng, spec.n)
        grad = param_shift_grad(spec, angles, obs)
        fd = _fd_grad(spec, angles, obs)
        assert np.allclose(grad, fd, atol=1e-6)


def test_param_shift_shared_slot_sums_occurrences():
    # one slot feeding two RY gates on the same qubit: E = cos(2 theta)
    spec = _spec(1, [Gate("RY", (0,), 0), Gate("RY", (0,), 0)], 1)
    theta = 0.3
    grad = param_shift_grad(spec, [theta], Observable.single_z(0))
    assert grad[0] == pytest.approx(-2.0 * np.sin(2.0 * theta), abs=1e-12)
