"""Acceptance suite: one test per deliverable requirement.

Each test asserts its stated tolerance and prints a single summary line with
the measured numbers. Run with

    pytest tests/test_acceptance.py -v -s

to see those lines; the desk-scale training test dominates the runtime
(a few minutes).
"""

import time

import numpy as np
import pytest

import qgpc.cli as cli
from qgpc import channels as ch
from qgpc.channels import sinr, weighted_sum_rate
from qgpc.cli import main
from qgpc import qgnn
from qgpc.gcn import GcnModel
from qgpc.graph import InterferenceGraph, build_graph, decompose_stars, fit_feature_scaler
from qgpc.qgnn import QgnnModel
from qgpc.qsim import CircuitSpec, Gate, Observable, expectation, param_shift_grad, run_circuit
from qgpc.trainer import Instance
from qgpc.wmmse import grid_search_oracle, wmmse_allocate


def _instance(m, seed):
    sc = ch.generate_scenario(m, 100.0, 2.0, 10.0, seed=seed)
    return ch.realize_channels(sc, seed=seed + 10_000)


def _random_circuit(rng):
    n = int(rng.integers(1, 9))            # up to 8 qubits
    slots = int(rng.integers(1, 33))       # up to 32 angle slots, some shared
    gates = []
    for _ in range(int(rng.integers(4, 25))):
        kinds = ["RX", "RY", "RZ", "H"] + (["CNOT", "CZ"] if n >= 2 else [])
        kind = str(rng.choice(kinds))
        if kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (int(rng.integers(n)),), int(rng.integers(slots))))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
    spec = CircuitSpec(n=n, gates=tuple(gates), angle_slots=slots)
    angles = rng.uniform(-np.pi, np.pi, slots)
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(n, 3) + 1))
        qs = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        terms.append((float(rng.uniform(-2, 2)), qs))
    return spec, angles, Observable(tuple(terms))


def test_acceptance_1_parameter_shift_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_grad, worst_norm = 0.0, 0.0
    for _ in range(100):
        spec, angles, obs = _random_circuit(rng)
        state = run_circuit(spec, angles)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(state.amps)) - 1.0))
        grad = param_shift_grad(spec, angles, obs)
        fd = np.zeros(spec.angle_slots)
        for j in range(spec.angle_slots):
            e = np.zeros(spec.angle_slots)
            e[j] = 1e-5
            fd[j] = (expectation(run_circuit(spec, angles + e), obs)
                     - expectation(run_circuit(spec, angles - e), obs)) / 2e-5
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd))))
    elapsed = time.perf_counter() - started
    assert worst_norm <= 1e-10
    assert worst_grad <= 1e-6
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (100 random circuits, parameter-shift vs finite diff): "
          f"max grad err {worst_grad:.2e}, max norm drift {worst_norm:.2e}, "
          f"{elapsed:.1f}s: PASS")


def test_acceptance_2_wmmse_tracks_grid_oracle():
    started = time.perf_counter()
    worst = np.inf
    for i in range(50):
        inst = _instance(2 + i % 2, seed=3000 + i)
        res = wmmse_allocate(inst)
        _, oracle_obj = grid_search_oracle(inst, 33)
        worst = min(worst, res.objective / oracle_obj)
        assert res.objective >= 0.98 * oracle_obj
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 (WMMSE vs 33-level grid oracle, 50 instances): "
          f"worst ratio {worst:.5f}, {elapsed:.1f}s: PASS")


def test_acceptance_3_wmmse_objective_never_decreases():
    worst = np.inf
    for i in range(100):
        inst = _instance(1 + i % 6, seed=4000 + i)
        res = wmmse_allocate(inst)
        if len(res.trace) > 1:
            worst = min(worst, float(np.min(np.diff(res.trace))))
        assert np.all(np.diff(res.trace) >= -1e-9)
    print(f"\nACCEPTANCE 3 (WMMSE ascent, 100 instances, M up to 6): "
          f"most negative step {worst:.2e}: PASS")


def test_acceptance_4_qgnn_gradient_fidelity():
    started = time.perf_counter()
    inst = _instance(4, seed=777)
    graph = build_graph(inst, fit_feature_scaler([inst]))
    n_params = QgnnModel(layers=2, depth=2).param_count()
    flat0 = np.random.default_rng(42).uniform(-0.5, 0.5, n_params)
    model = QgnnModel(layers=2, depth=2, k=2)
    (_,), (grad,) = model.loss_and_grad_batch([Instance("i", inst, graph)], flat0, [9])

    def f(flat):
        p = model.forward_batch([Instance("i", inst, graph)], flat, [9])[0]
        return -weighted_sum_rate(sinr(inst, p), inst.alpha)

    fd = np.zeros(n_params)
    for j in range(n_params):
        e = np.zeros(n_params)
        e[j] = 1e-5
        fd[j] = (f(flat0 + e) - f(flat0 - e)) / 2e-5
    rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - started
    assert rel <= 1e-4
    print(f"\nACCEPTANCE 4 (full-model gradient vs finite diff, N=4, 2 layers, "
          f"depth 2, {n_params} params): rel err {rel:.2e}, {elapsed:.1f}s: PASS")


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    return {
        "test": [float(r[2]) for r in rows],
        "wmmse": [float(r[3]) for r in rows],
    }


def test_acceptance_5_desk_scale_training_beats_fractions_of_wmmse(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    started = time.perf_counter()
    base = ["--set", f"io.out_dir={tmp_path}"]
    assert main(base + ["gen"]) == 0
    assert main(base + ["train"]) == 0
    assert main(base + ["--set", "model.arch=gcn", "train"]) == 0
    q = _read_csv(tmp_path / "qgnn_train_report.csv")
    g = _read_csv(tmp_path / "gcn_train_report.csv")
    wmmse = q["wmmse"][-1]
    assert g["wmmse"][-1] == wmmse
    q_final, g_final = q["test"][-1], g["test"][-1]
    elapsed = time.perf_counter() - started
    assert q_final >= 0.95 * wmmse
    assert g_final >= 0.90 * wmmse
    assert elapsed < 1800.0
    print(f"\nACCEPTANCE 5 (default config: M=4, 300 train, 50 epochs): "
          f"qgnn {q_final:.4f} bps/Hz = {q_final / wmmse:.4f} x wmmse ({wmmse:.4f}), "
          f"gcn {g_final:.4f} = {g_final / wmmse:.4f} x wmmse, "
          f"qgnn/gcn {q_final / g_final:.4f} (report only), "
          f"{elapsed / 60:.1f} min: PASS")


def test_acceptance_6_structural_invariants(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)

    # star decomposition covers every node as center exactly once
    inst = _instance(5, seed=600)
    graph = build_graph(inst, fit_feature_scaler([inst]))
    for seed in range(20):
        stars = decompose_stars(graph.N, k=2, seeds=seed)
        assert len(stars) == 5  # row i is the star centered on node i
        for center, leaves in enumerate(stars):
            assert all(leaf in range(5) and leaf != center for leaf in leaves)

    # leaf-order invariance of the star update, bit-exact
    model = QgnnModel(layers=1, depth=1, k=6)
    rng = np.random.default_rng(61)
    prepared = model._prepare(rng.uniform(-1, 1, 12), grad=True)  # a forward that keeps its tape
    star_graph = InterferenceGraph(rng.uniform(0, np.pi, (7, 2)), np.zeros((7, 7)))
    star_graph.edge_angle[1:, 0] = rng.uniform(0, np.pi, 6)
    others = [[j for j in range(7) if j != i] for i in range(1, 7)]

    def center_update(leaves):  # star 0's center after the layer
        calls = []

        def draw(n, k, seeds):
            calls.append(seeds)
            return np.broadcast_to(leaves, seeds.shape + leaves.shape)

        with monkeypatch.context() as patch:
            patch.setattr(qgnn, "decompose_stars", draw)
            stars = model._stars(7, np.zeros(1, dtype=np.uint64))
            h = model._forward(star_graph.node_features[None], star_graph.edge_angle[None],
                               prepared, stars)[1].h[1][0, 0]
        assert len(calls) == 1  # the layer drew its stars through the patch
        return h

    base = center_update(np.array([[1, 2, 3, 4, 5, 6]] + others))
    for order in [(5, 4, 3, 2, 1, 0), (1, 3, 0, 5, 2, 4), (2, 0, 4, 1, 5, 3)]:
        leaves = np.array([[(1, 2, 3, 4, 5, 6)[i] for i in order]] + others)
        permuted = center_update(leaves)
        assert np.array_equal(permuted, base)

    # GCN permutation equivariance, bit-exact
    flat = np.random.default_rng(62).uniform(-0.5, 0.5, GcnModel(hidden=8, layers=2).param_count())
    gcn_model = GcnModel(hidden=8, layers=2)
    p = gcn_model.forward(inst, graph, flat, 0)
    perm = np.array([4, 2, 0, 1, 3])
    ea = np.empty_like(graph.edge_angle)
    for a in range(5):
        for b in range(5):
            ea[perm[a], perm[b]] = graph.edge_angle[a, b]
    pg = InterferenceGraph(
        node_features=np.asarray(graph.node_features)[np.argsort(perm)],
        edge_angle=ea,
    )
    assert np.array_equal(gcn_model.forward(inst, pg, flat, 0)[perm], p)

    # trainable parameter count independent of graph size and of k
    assert {QgnnModel(2, 1, k).param_count() for k in (1, 2, 3, 9)} == {22}
    flat_q = np.random.default_rng(63).uniform(-0.1, 0.1, 22)
    for m, k in [(2, 1), (4, 2), (6, 5)]:
        inst_m = _instance(m, seed=650 + m)
        graph_m = build_graph(inst_m, fit_feature_scaler([inst_m]))
        p_m = QgnnModel(2, 1, k).forward_batch([Instance("m", inst_m, graph_m)], flat_q, [1])[0]
        assert p_m.shape == (m,)  # same 22 parameters drive every size

    # byte-identical CSV reports from two identical training invocations
    blobs = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        args = [
            "--set", f"io.out_dir={d}", "--set", "scenario.M=3",
            "--set", "scenario.train_size=12", "--set", "scenario.test_size=6",
            "--set", "model.layers=1", "--set", "model.k=1",
            "--set", "train.epochs=2",
        ]
        assert main(args + ["gen"]) == 0
        assert main(args + ["train"]) == 0
        blobs.append((d / "qgnn_train_report.csv").read_bytes())
    assert blobs[0] == blobs[1]

    print("\nACCEPTANCE 6 (star coverage, exact leaf-order invariance, exact GCN "
          "equivariance, size-independent parameter count, byte-identical "
          "reruns): PASS")
