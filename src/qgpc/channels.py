"""Interference channel generation and the weighted sum-rate objective.

A network instance is M device-to-device pairs dropped in a d x d square.
``G[k, m]`` is the complex amplitude gain from transmitter k to receiver m.
Power variables are real amplitudes in ``[0, p_max]`` that enter the SINR
inside the squared magnitude:

    gamma_m = |g_mm p_m|^2 / (sum_{k != m} |g_km p_k|^2 + sigma2_m)

and the objective is ``sum_m alpha_m log2(1 + gamma_m)`` in bps/Hz.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATASET_VERSION = 1
_HEADER_KEYS = ("M", "sigma2", "alpha", "p_max", "train", "test")

# Default drop geometry and link constants, overridable through configs.
DEFAULT_PAIRS = 4
DEFAULT_AREA_SIDE = 100.0
DEFAULT_MIN_RANGE = 2.0
DEFAULT_MAX_RANGE = 10.0
DEFAULT_PATHLOSS_EXP = 3.0
DEFAULT_NOISE_POWER = 1e-2
DEFAULT_WEIGHT = 1.0
DEFAULT_P_MAX = 1.0


class GeometryError(ValueError):
    """Raised when drop geometry constraints are unsatisfiable."""


class DimensionError(ValueError):
    """Raised when a vector does not match the instance size."""


@dataclass(eq=False)
class Scenario:
    """Transmitter/receiver positions for one drop of M pairs."""

    M: int
    d: float
    d_min: float
    d_max: float
    seed: int
    tx_pos: np.ndarray  # (M, 2) meters
    rx_pos: np.ndarray  # (M, 2) meters


@dataclass(eq=False)
class ChannelRealization:
    """One fading draw over a scenario, plus the link constants."""

    G: np.ndarray       # (M, M) complex, G[k, m] = gain tx k -> rx m
    sigma2: np.ndarray  # (M,) receiver noise power, > 0
    alpha: np.ndarray   # (M,) objective weights, >= 0
    p_max: float

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=complex)
        m = self.G.shape[0]
        if self.G.shape != (m, m):
            raise DimensionError(f"G must be square, got {self.G.shape}")
        self.sigma2 = np.broadcast_to(np.asarray(self.sigma2, dtype=float), (m,)).copy()
        self.alpha = np.broadcast_to(np.asarray(self.alpha, dtype=float), (m,)).copy()
        if not np.all(np.isfinite(self.G.view(float))):
            raise ValueError("G contains non-finite entries")
        if not np.all(np.isfinite(self.sigma2) & (self.sigma2 > 0)):
            raise ValueError("sigma2 must be positive and finite")
        if not np.all(np.isfinite(self.alpha) & (self.alpha >= 0)):
            raise ValueError("alpha must be non-negative and finite")
        if not (np.isfinite(self.p_max) and self.p_max > 0):
            raise ValueError("p_max must be positive and finite")

    @property
    def M(self) -> int:
        return self.G.shape[0]


def pathloss(r, exponent: float):
    """Distance gain (1 + r)^(-exponent); finite at r = 0."""
    return (1.0 + np.asarray(r, dtype=float)) ** (-exponent)


def generate_scenario(M: int, d: float, d_min: float, d_max: float, seed: int) -> Scenario:
    """Drop M transmitters uniformly in the square and each receiver at a
    uniform range/bearing from its transmitter, rejection-sampled into the square."""
    if M < 1:
        raise GeometryError("M must be >= 1")
    if not (0 < d_min <= d_max <= d):
        raise GeometryError(f"need 0 < d_min <= d_max <= d, got {d_min}, {d_max}, {d}")
    rng = np.random.default_rng(seed)
    tx = rng.uniform(0.0, d, size=(M, 2))
    rx = np.empty((M, 2))
    for i in range(M):
        while True:
            r = rng.uniform(d_min, d_max)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            cand = tx[i] + r * np.array([np.cos(phi), np.sin(phi)])
            if 0.0 <= cand[0] <= d and 0.0 <= cand[1] <= d:
                rx[i] = cand
                break
    return Scenario(M=M, d=d, d_min=d_min, d_max=d_max, seed=seed, tx_pos=tx, rx_pos=rx)


def realize_channels(
    scenario: Scenario,
    pathloss_exp: float = DEFAULT_PATHLOSS_EXP,
    sigma2: float | np.ndarray = DEFAULT_NOISE_POWER,
    alpha: float | np.ndarray = DEFAULT_WEIGHT,
    p_max: float = DEFAULT_P_MAX,
    seed: int = 0,
    fading: bool = True,
) -> ChannelRealization:
    """Draw complex gains over a scenario.

    Amplitude gain = sqrt(pathloss(distance)) times unit-variance complex
    Gaussian fading. With ``fading=False`` the fading factor is exactly 1,
    so pathloss_exp = 0 gives |g_km| = 1 for every link.
    """
    m = scenario.M
    diff = scenario.tx_pos[:, None, :] - scenario.rx_pos[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))  # dist[k, m] = tx k to rx m
    amp = np.sqrt(pathloss(dist, pathloss_exp))
    if fading:
        rng = np.random.default_rng(seed)
        fade = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    else:
        fade = np.ones((m, m), dtype=complex)
    return ChannelRealization(G=amp * fade, sigma2=sigma2, alpha=alpha, p_max=p_max)


@dataclass(eq=False)
class ChannelBatch:
    """Realizations of one size M stacked along a leading axis of B. Only
    |G|^2 and the direct gains g_mm are kept: nothing batched reads the
    other complex gains, and they would be two thirds of its bytes."""

    gain: np.ndarray    # (B, M, M) |G|^2
    gdiag: np.ndarray   # (B, M) complex direct gains g_mm
    sigma2: np.ndarray  # (B, M)
    alpha: np.ndarray   # (B, M)
    p_max: np.ndarray   # (B,)

    @classmethod
    def stack(cls, realizations: list[ChannelRealization]) -> "ChannelBatch":
        """Stack realizations that share M, in the order given."""
        sizes = {ch.M for ch in realizations}
        if len(sizes) != 1:
            raise DimensionError(f"a batch needs one size M, got {sorted(sizes)}")
        # |G|^2 one realization at a time: a stacked complex G would be a
        # temporary twice the size of the batch's gains
        return cls(gain=np.stack([np.abs(ch.G) ** 2 for ch in realizations]),
                   gdiag=np.stack([np.diagonal(ch.G) for ch in realizations]),
                   sigma2=np.stack([ch.sigma2 for ch in realizations]),
                   alpha=np.stack([ch.alpha for ch in realizations]),
                   p_max=np.array([ch.p_max for ch in realizations]))

    def __len__(self) -> int:
        return self.gain.shape[0]

    def __getitem__(self, rows) -> "ChannelBatch":
        """The realizations at the given row indices, as a batch."""
        return ChannelBatch(gain=self.gain[rows], gdiag=self.gdiag[rows],
                            sigma2=self.sigma2[rows], alpha=self.alpha[rows],
                            p_max=self.p_max[rows])

    @property
    def M(self) -> int:
        return self.gain.shape[-1]


def stack_by_size(realizations: list[ChannelRealization]):
    """(indices, ChannelBatch) for each group of same-size realizations,
    smallest M first; the indices point into ``realizations``."""
    sizes = np.array([ch.M for ch in realizations])
    for m in np.unique(sizes):
        idx = np.flatnonzero(sizes == m)
        yield idx, ChannelBatch.stack([realizations[i] for i in idx])


def _sinr_terms(channels: ChannelRealization | ChannelBatch, p):
    """Powers as an array, |G|^2, the direct received power and the
    interference-plus-noise denominator. On a realization p is (M,) or
    (B, M); on a batch it is (B, M), row b on realization b. Column m of
    the interference sums |g_km|^2 p_k^2 over k in index order, so a row
    gives the same bits as that power vector on its realization alone."""
    p = np.asarray(p, dtype=float)
    m = channels.M
    if isinstance(channels, ChannelBatch):
        if p.shape != (len(channels), m):
            raise DimensionError(f"power has shape {p.shape}, expected ({len(channels)}, {m})")
        gain = channels.gain
    else:
        if p.ndim not in (1, 2) or p.shape[-1] != m:
            raise DimensionError(f"power has shape {p.shape}, expected ({m},) or (B, {m})")
        gain = np.abs(channels.G) ** 2
    p2 = p ** 2
    direct = p2 * np.diagonal(gain, axis1=-2, axis2=-1)
    denom = np.einsum("...k,...km->...m", p2, gain) - direct + channels.sigma2
    return p, gain, direct, denom


def sinr(channels: ChannelRealization | ChannelBatch, p) -> np.ndarray:
    """Per-receiver SINR of power vectors p (see _sinr_terms for the
    shapes); the amplitude p_k scales the gain inside |.|^2."""
    _, _, direct, denom = _sinr_terms(channels, p)
    return direct / denom


def weighted_sum_rate(gamma, alpha):
    """sum_m alpha_m log2(1 + gamma_m) in bps/Hz over the last axis: a float
    for gamma of shape (M,), an array of B values for shape (B, M). alpha is
    (M,), or (B, M) with one weight vector per row."""
    gamma = np.asarray(gamma, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if gamma.shape[-1:] != alpha.shape[-1:] or alpha.ndim > gamma.ndim:
        raise DimensionError(f"gamma {gamma.shape} vs alpha {alpha.shape}")
    if np.any(gamma < 0):
        raise ValueError("gamma must be non-negative")
    rate = np.sum(alpha * np.log2(1.0 + gamma), axis=-1)
    return float(rate) if rate.ndim == 0 else rate


def sum_rate(channels: ChannelRealization | ChannelBatch, p):
    """Objective of power vectors: a float for one vector on a realization,
    one value per row for a (B, M) batch of vectors or on a ChannelBatch."""
    return weighted_sum_rate(sinr(channels, p), channels.alpha)


def sum_rate_batch(channels: ChannelRealization, P: np.ndarray) -> np.ndarray:
    """Objective for a batch of power vectors, P of shape (B, M)."""
    if np.ndim(P) != 2:
        raise DimensionError(f"batch has shape {np.shape(P)}, expected (B, {channels.M})")
    return weighted_sum_rate(sinr(channels, P), channels.alpha)


def weighted_sum_rate_grad(channels: ChannelRealization | ChannelBatch, p) -> np.ndarray:
    """Analytic d(weighted sum rate)/dp at power vectors p, shaped like p."""
    p, gain, direct, denom = _sinr_terms(channels, p)
    bdiag = np.diagonal(gain, axis1=-2, axis2=-1)
    pref = channels.alpha / (np.log(2.0) * (1.0 + direct / denom))  # d obj / d gamma_m
    grad = pref * 2.0 * bdiag * p / denom
    cross = pref * direct / denom ** 2  # weight on each interference term
    grad -= 2.0 * p * ((gain * cross[..., None, :]).sum(axis=-1) - bdiag * cross)
    return grad


def sigmoid(z) -> np.ndarray:
    """Logistic function, the power decode of both models. The split form
    uses exp(-z) for z >= 0 and exp(z) for z < 0, so it never overflows;
    an exp that underflows to 0 gives the exact saturated value."""
    z = np.asarray(z, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _encode_complex_matrix(G: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in G]


def _decode_complex_matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def save_dataset(
    path,
    train: list[ChannelRealization],
    test: list[ChannelRealization],
    meta: dict | None = None,
) -> None:
    """Write a line-delimited dataset: one header object, then one record per
    realization with the complex gains as [re, im] pairs. All realizations in
    a file share M, sigma2, alpha and p_max, which live in the header."""
    items = list(train) + list(test)
    if not items:
        raise ValueError("dataset must contain at least one realization")
    first = items[0]
    for ch in items:
        if ch.M != first.M or not np.array_equal(ch.sigma2, first.sigma2) \
                or not np.array_equal(ch.alpha, first.alpha) or ch.p_max != first.p_max:
            raise ValueError("all realizations in a dataset must share link constants")
    header = {
        "version": DATASET_VERSION,
        "kind": "d2d-dataset",
        "M": first.M,
        "sigma2": [float(x) for x in first.sigma2],
        "alpha": [float(x) for x in first.alpha],
        "p_max": float(first.p_max),
        "seed": int((meta or {}).get("seed", 0)),
        "train": len(train),
        "test": len(test),
    }
    if meta:
        for key, val in meta.items():
            if key not in header:
                header[key] = val
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for split, group in (("train", train), ("test", test)):
        for idx, ch in enumerate(group):
            rec = {"split": split, "idx": idx, "G": _encode_complex_matrix(ch.G)}
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def is_json_number(x) -> bool:
    """True for a parsed JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _header_values(header: dict, path) -> tuple[int, np.ndarray, np.ndarray, float]:
    """M, sigma2, alpha and p_max of a dataset header, each checked for the
    JSON type save_dataset writes; ChannelRealization checks their range."""
    m = header["M"]
    wants = {
        "M": (type(m) is int and m >= 1, "a positive integer"),
        "train": (type(header["train"]) is int, "an integer"),
        "test": (type(header["test"]) is int, "an integer"),
        "p_max": (is_json_number(header["p_max"]), "a number"),
    }
    for key in ("sigma2", "alpha"):
        value = header[key]
        wants[key] = (is_json_number(value) or (
            isinstance(value, list) and len(value) == m and all(map(is_json_number, value))
        ), "a number or a list of M numbers")
    for key, (ok, want) in wants.items():
        if not ok:
            raise ValueError(f"dataset header in {path}: {key} must be {want}, "
                             f"got {header[key]!r}")
    return (m, np.asarray(header["sigma2"], dtype=float), np.asarray(header["alpha"], dtype=float),
            float(header["p_max"]))


def load_dataset(path) -> tuple[list[ChannelRealization], list[ChannelRealization], dict]:
    """Read a dataset file written by save_dataset; returns (train, test, header)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("version") != DATASET_VERSION \
            or header.get("kind") != "d2d-dataset":
        raise ValueError(f"unrecognized dataset header in {path}")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"dataset header in {path} lacks {', '.join(missing)}")
    m, sigma2, alpha, p_max = _header_values(header, path)
    train: list[ChannelRealization] = []
    test: list[ChannelRealization] = []
    for line_no, ln in enumerate(lines[1:], start=2):
        rec = json.loads(ln)
        where = f"{path} line {line_no}"
        if not isinstance(rec, dict) or "split" not in rec or "G" not in rec:
            raise ValueError(f"{where}: a record needs a split and G")
        if rec["split"] not in ("train", "test"):
            raise ValueError(f"{where}: unknown split tag {rec['split']!r}")
        try:
            G = _decode_complex_matrix(rec["G"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: G is not a matrix of [re, im] pairs") from exc
        if G.shape != (m, m):
            raise ValueError(f"{where}: G has shape {G.shape}, header says M={m}")
        ch = ChannelRealization(G=G, sigma2=sigma2, alpha=alpha, p_max=p_max)
        (train if rec["split"] == "train" else test).append(ch)
    if len(train) != header["train"] or len(test) != header["test"]:
        raise ValueError("record counts do not match dataset header")
    return train, test, header
