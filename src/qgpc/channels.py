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
import reprlib  # echoed values are cut short: a value may be any length
import sys
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

DATASET_VERSION = 2  # 1 was one JSON line per realization
# the JSON types of a dataset header's keys, for check_json; save_dataset adds others
_HEADER = {"M": 0, "sigma2": [0.0], "alpha": [0.0], "p_max": 0.0, "train": 0, "test": 0}
_MEMBERS = ("header", "G_train", "G_test")

# Default drop geometry and link constants, overridable through configs.
DEFAULT_PAIRS = 4
DEFAULT_AREA_SIDE = 100.0
DEFAULT_MIN_RANGE = 2.0
DEFAULT_MAX_RANGE = 10.0
DEFAULT_PATHLOSS_EXP = 3.0
DEFAULT_NOISE_POWER = 1e-2
DEFAULT_WEIGHT = 1.0
DEFAULT_P_MAX = 1.0
# the bytes a block's items keep live, as each kernel counts them: 85 desk QGNN
# graphs (680 message rows), 2048 edge rows of a 16-wide GCN, 2^16 WMMSE row gains
BLOCK_BYTES = 1 << 19


class RealizationError(ValueError):
    """Raised when the draw or the check of realization ``index`` of a stack
    fails; the message itself names no index."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class GeometryError(RealizationError):
    """Raised when drop geometry constraints are unsatisfiable."""


class DimensionError(ValueError):
    """Raised when a vector does not match the instance size."""


class SplitError(ValueError):
    """A split's realization ``index`` that save_dataset and load_dataset refuse."""

    def __init__(self, path, split: str, exc: RealizationError):
        super().__init__(f"{path} G_{split}[{exc.index}]: {exc}")
        self.split, self.index = split, exc.index


@dataclass(eq=False)
class Scenario:
    """Transmitter/receiver positions of one drop of M pairs, or a stack of B."""

    tx_pos: np.ndarray  # (M, 2) or (B, M, 2) meters
    rx_pos: np.ndarray  # (M, 2) or (B, M, 2) meters


def check_link(m: int, sigma2, alpha, p_max) -> tuple[np.ndarray, np.ndarray]:
    """The link-constant rule: M >= 1; sigma2 and alpha each a number or M of
    them; sigma2 > 0, alpha >= 0 and p_max > 0, all finite. Returns copies of
    the (M,) sigma2 and alpha; a ValueError names the constant."""
    if m < 1:
        raise ValueError(f"M must be >= 1, got {m}")
    for key, value in (("sigma2", sigma2), ("alpha", alpha)):
        if np.shape(value) not in ((), (m,)):
            raise ValueError(f"{key} must be a number or a list of M={m} numbers, "
                             f"got {reprlib.repr(value)}")
    sigma2, alpha = (np.broadcast_to(np.asarray(x, dtype=float), (m,)).copy()
                     for x in (sigma2, alpha))
    if not np.all(np.isfinite(sigma2) & (sigma2 > 0)):
        raise ValueError("sigma2 must be positive and finite")
    if not np.all(np.isfinite(alpha) & (alpha >= 0)):
        raise ValueError("alpha must be non-negative and finite")
    if not (np.isfinite(p_max) and p_max > 0):
        raise ValueError("p_max must be positive and finite")
    return sigma2, alpha


def check_dataset_link(m: int, sigma2, alpha, p_max) -> tuple[np.ndarray, np.ndarray]:
    """check_link, and alpha not all 0 (every sum rate would be 0): a dataset's rule."""
    sigma2, alpha = check_link(m, sigma2, alpha, p_max)
    if not alpha.any():
        raise ValueError("alpha must not be all 0")
    return sigma2, alpha


def check_geometry(M: int, d: float, d_min: float, d_max: float) -> None:
    """The drop geometry rule: M >= 1 and 0 < d_min <= d_max <= d, or GeometryError."""
    if M < 1:
        raise GeometryError(f"M must be >= 1, got {M}")
    if not (0 < d_min <= d_max <= d):
        raise GeometryError(f"d_min, d_max need 0 < d_min <= d_max <= d, got {d_min}, {d_max}, {d}")


def _check_stack(G: np.ndarray, sigma2: np.ndarray, p_max) -> np.ndarray:
    """|G|^2 of a complex (n, M, M) gain stack, once every |G|^2 and each power
    received at p_max plus the (M,) sigma2 are found finite. Raises RealizationError
    at the first bad index with the message a check of that item alone gives."""
    gain = np.abs(G)
    with np.errstate(over="ignore"):  # an overflow is refused below
        gain *= gain  # the bits of np.abs(G) ** 2
    bad_gain = ~np.isfinite(gain).all(axis=(-2, -1))
    # the SINR kernel's largest sums, every transmitter at p_max plus noise
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN: refused
        received = float(p_max) * float(p_max) * gain.sum(axis=-2) + sigma2
    bad = bad_gain | ~np.isfinite(received).all(axis=-1)
    if bad.any():
        j = int(bad.argmax())
        raise RealizationError("|G|^2 must be finite" if bad_gain[j] else
                               "the power received at p_max must be finite", j)
    return gain


@dataclass(eq=False)
class ChannelBatch:
    """Channels of one size M, one realization or a stack of B along a
    leading axis. A stack has a length, iterates over its realizations and
    gives one as views at an int index, a stack at any other index; one
    realization has no length. Only the real |G|^2 is kept: the SINR, its
    gradient, the graph features and every WMMSE block read no phase, and
    the complex gains would triple the bytes."""

    gain: np.ndarray    # (..., M, M) |G|^2, [k, m] from tx k to rx m
    cross: np.ndarray   # (..., M, M) |G|^2 with its diagonal zeroed, built once
    sigma2: np.ndarray  # (..., M) receiver noise power, > 0
    alpha: np.ndarray   # (..., M) objective weights, >= 0
    p_max: np.ndarray | float  # (B,) for a stack

    @classmethod
    def from_gains(cls, G, sigma2, alpha, p_max) -> "ChannelBatch":
        """The channels of complex gains G, (M, M) or a (B, M, M) stack
        whose items share the link constants (check_link, which takes
        all-zero weights), checked once over the stack (_check_stack)."""
        G = np.asarray(G, dtype=complex)
        if G.ndim not in (2, 3) or G.shape[-2] != G.shape[-1]:
            raise DimensionError(f"G must be square, got {G.shape}")
        lead, m = G.shape[:-2], G.shape[-1]
        sigma2, alpha = check_link(m, sigma2, alpha, p_max)
        gain = _check_stack(G.reshape(-1, m, m), sigma2, p_max).reshape(G.shape)
        return cls(gain, gain * (1.0 - np.eye(m)), np.broadcast_to(sigma2, lead + (m,)),
                   np.broadcast_to(alpha, lead + (m,)),
                   np.full(lead, float(p_max)) if lead else float(p_max))

    @classmethod
    def stack(cls, realizations) -> "ChannelBatch":
        """Stack single realizations that share M, in the order given."""
        gain = np.array([ch.gain for ch in realizations])
        return cls(gain, gain * (1.0 - np.eye(gain.shape[-1])),  # from_gains' zeroing
                   *(np.array([getattr(ch, name) for ch in realizations])
                     for name in ("sigma2", "alpha", "p_max")))

    def __len__(self) -> int:
        if self.gain.ndim == 2:
            raise TypeError("one realization has no len(): it is not a stack")
        return self.gain.shape[0]

    def __iter__(self):
        n = len(self)  # one realization is not a stack of M rows
        # a from_gains stack's link constants are one row broadcast: its rows share one view
        link = (repeat(a[0], n) if n and not a.strides[0] else a for a in (self.sigma2, self.alpha))
        return map(ChannelBatch, self.gain, self.cross, *link, self.p_max)

    def __getitem__(self, rows) -> "ChannelBatch":
        len(self)  # one realization has no rows to index
        return ChannelBatch(self.gain[rows], self.cross[rows], self.sigma2[rows],
                            self.alpha[rows], self.p_max[rows])

    @property
    def M(self) -> int:
        return self.gain.shape[-1]


def pathloss(r, exponent: float):
    """Distance gain (1 + r)^(-exponent); finite at r = 0."""
    return (1.0 + np.asarray(r, dtype=float)) ** (-exponent)


POOL_PER_PAIR = 2  # receiver attempts an instance draws at a time, per pair
MAX_ATTEMPTS = 10_000  # a pair that finds no receiver position in these gives up


def generate_scenario(M: int, d: float, d_min: float, d_max: float, seed) -> Scenario:
    """Drop M transmitters uniformly in the square and each receiver at a
    uniform range/bearing from its transmitter, rejection-sampled into the
    square. ``seed`` is one seed in [0, 2^64), giving (M, 2) positions, or a
    1-D array of B, giving (B, M, 2), instance b drawn from its own
    generator exactly as its seed alone would draw it.

    An instance draws its transmitters, then a pool of POOL_PER_PAIR * M
    (range, bearing) attempts, and another pool whenever one runs out. Pair
    i takes the next attempts in the order drawn until one lands in the
    square, in one pass over every instance per pair. A pair that finds no
    position in MAX_ATTEMPTS attempts raises GeometryError with the
    instance's index (in a 10 m square with d_min = 10, no point is 10 m
    from a transmitter near the centre)."""
    check_geometry(M, d, d_min, d_max)
    seeds = np.asarray(seed, dtype=np.uint64)
    rngs = [np.random.default_rng(s) for s in seeds.reshape(-1).tolist()]
    n, k = len(rngs), POOL_PER_PAIR * M
    low, high = [d_min, 0.0], [d_max, 2.0 * np.pi]
    tx, attempts = np.empty((n, M, 2)), np.empty((n, k, 2))
    for b, rng in enumerate(rngs):
        tx[b] = rng.uniform(0.0, d, size=(M, 2))
        attempts[b] = rng.uniform(low, high, size=(k, 2))

    def steps(rows):  # (..., k, 2) range/bearing attempts -> offsets from the transmitter
        phi = rows[..., 1]
        return rows[..., :1] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def inside(points):
        return ((points >= 0.0) & (points <= d)).all(axis=-1)

    step = steps(attempts)
    rx = np.empty((n, M, 2))
    nxt = np.zeros(n, dtype=np.intp)  # each instance's next unused attempt
    every = np.arange(n)
    for i in range(M):
        hit = inside(tx[:, i, None, :] + step) & (np.arange(k) >= nxt[:, None])
        first = hit.argmax(axis=1)
        for b in np.flatnonzero(~hit[every, first]):  # this pool ran out
            tried, found = k - nxt[b], False
            while not found and tried < MAX_ATTEMPTS:
                step[b] = steps(rngs[b].uniform(low, high, size=(k, 2)))
                hits = inside(tx[b, i] + step[b])
                first[b], found = hits.argmax(), hits.any()
                tried += first[b] + 1 if found else k
            if tried > MAX_ATTEMPTS or not found:
                raise GeometryError(
                    f"pair {i}: no receiver position in the {d} m square at {d_min} to "
                    f"{d_max} m from its transmitter in {MAX_ATTEMPTS} attempts", int(b))
        rx[:, i] = tx[:, i] + step[every, first]
        nxt = first + 1
    if seeds.ndim == 0:
        tx, rx = tx[0], rx[0]
    return Scenario(tx_pos=tx, rx_pos=rx)


def realize_channels(
    scenario: Scenario,
    pathloss_exp: float = DEFAULT_PATHLOSS_EXP,
    seed=0,
    fading: bool = True,
) -> np.ndarray:
    """Draw the complex gains G[..., k, m], tx k to rx m, over a scenario:
    (M, M) for a drop, (B, M, M) for a stack of B drops, with ``seed`` one
    fading seed in [0, 2^64) or B of them, instance b drawn from its own
    generator exactly as its seed alone would draw it. Nothing is checked
    here: ChannelBatch.from_gains and save_dataset check the gains.

    Amplitude gain = sqrt(pathloss(distance)) times unit-variance complex
    Gaussian fading. With ``fading=False`` the fading factor is exactly 1,
    so pathloss_exp = 0 gives |g_km| = 1 for every link.
    """
    m = scenario.tx_pos.shape[-2]
    diff = scenario.tx_pos[..., :, None, :] - scenario.rx_pos[..., None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))  # dist[..., k, m] = tx k to rx m
    amp = np.sqrt(pathloss(dist, pathloss_exp))
    if not fading:
        return amp.astype(complex)
    seeds = np.broadcast_to(np.asarray(seed, dtype=np.uint64), dist.shape[:-2])
    normal = np.empty((seeds.size, 2, m, m))  # the real parts, then the imaginary
    for b, s in enumerate(seeds.reshape(-1).tolist()):
        normal[b] = np.random.default_rng(s).standard_normal((2, m, m))
    normal = normal.reshape(seeds.shape + (2, m, m))
    fade = (normal[..., 0, :, :] + 1j * normal[..., 1, :, :]) / np.sqrt(2.0)
    return amp * fade


def row_blocks(count: int, item_bytes: int):
    """Slices of range(count), in order, each holding items of item_bytes
    bytes that sum to at most BLOCK_BYTES (one item when a single item has
    more). The one blocking rule of the batch paths: model graphs, their
    channels and WMMSE's instances all run in these blocks, each kernel
    counting the bytes an item keeps live."""
    # an item without rows runs alone, as in a single-item call: numpy
    # sends a one-row product to gemv, which rounds otherwise than gemm
    step = max(1, BLOCK_BYTES // item_bytes) if item_bytes else 1
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _sinr_terms(channels: ChannelBatch, p):
    """Powers as an array, |G|^2 with its diagonal zeroed, the direct gains
    |g_mm|^2, the direct received power and the interference-plus-noise
    denominator. On one realization p is (M,) or (B, M); on a stack it is
    (B, M), row b on realization b. Column m of the interference sums
    |g_km|^2 p_k^2 over k != m in index order, so a row gives the same bits
    as that power vector on its realization alone; the direct term is never
    added in, so it cannot swamp the interference."""
    p = np.asarray(p, dtype=float)
    gain, cross = channels.gain, channels.cross  # an exact 0 at k = m adds nothing below
    rows = gain.shape[:-2] or p.shape[:-1]  # one row per realization of a stack
    if p.shape != rows + (channels.M,) or len(rows) > 1:
        raise DimensionError(f"power has shape {p.shape}, on gains of shape {gain.shape}")
    bdiag = np.diagonal(gain, axis1=-2, axis2=-1)
    p2 = p ** 2
    direct = p2 * bdiag
    denom = np.einsum("...k,...km->...m", p2, cross) + channels.sigma2
    return p, cross, bdiag, direct, denom


def sinr(channels: ChannelBatch, p) -> np.ndarray:
    """Per-receiver SINR of power vectors p (see _sinr_terms for the
    shapes); the amplitude p_k scales the gain inside |.|^2."""
    _, _, _, direct, denom = _sinr_terms(channels, p)
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


def sum_rate(channels: ChannelBatch, p):
    """Objective of power vectors: a float for one vector on a realization,
    one value per row for a (B, M) batch of vectors or on a stack."""
    return weighted_sum_rate(sinr(channels, p), channels.alpha)


def sum_rate_batch(channels: ChannelBatch, P: np.ndarray) -> np.ndarray:
    """Objective for a batch of power vectors, P of shape (B, M)."""
    if np.ndim(P) != 2:
        raise DimensionError(f"batch has shape {np.shape(P)}, expected (B, {channels.M})")
    return weighted_sum_rate(sinr(channels, P), channels.alpha)


def weighted_sum_rate_grad(channels: ChannelBatch, p) -> np.ndarray:
    """Analytic d(weighted sum rate)/dp at power vectors p, shaped like p."""
    p, cross, bdiag, direct, denom = _sinr_terms(channels, p)
    pref = channels.alpha / (np.log(2.0) * (1.0 + direct / denom))  # d obj / d gamma_m
    grad = pref * 2.0 * bdiag * p / denom
    # on each interference term; denom ** 2 would underflow for tiny gains and noise
    weight = pref * (direct / denom) / denom
    grad -= 2.0 * p * (cross * weight[..., None, :]).sum(axis=-1)
    return grad


def sigmoid(z) -> np.ndarray:
    """Logistic function, the power decode of both models. The split form
    uses exp(-z) for z >= 0 and exp(z) for z < 0, so it never overflows;
    an exp that underflows to 0 gives the exact saturated value."""
    z = np.asarray(z, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def save_dataset(path, G_train, G_test, sigma2, alpha, p_max, meta: dict | None = None) -> None:
    """Write a dataset as one .npz: the complex gains of each split as a
    complex128 (n, M, M) array, G_train and G_test, and a JSON header string
    of M and the link constants both share (sigma2 and alpha each a number or
    M of them, check_dataset_link). A split load_dataset would refuse raises its
    SplitError before the file is opened. The file is written at ``path`` exactly."""
    gains = {"train": np.asarray(G_train, complex), "test": np.asarray(G_test, complex)}
    m = gains["train"].shape[-1]
    if any(G.ndim != 3 or G.shape[1:] != (m, m) for G in gains.values()):
        raise DimensionError("the splits must be (n, M, M) gain stacks of one M, got "
                             f"{gains['train'].shape} and {gains['test'].shape}")
    sigma2, alpha = check_dataset_link(m, sigma2, alpha, p_max)  # both (M,)
    for split, G in gains.items():
        try:
            _check_stack(G, sigma2, p_max)
        except RealizationError as exc:
            raise SplitError(path, split, exc) from exc
    header = {
        "version": DATASET_VERSION,
        "kind": "d2d-dataset",
        "M": m,
        "sigma2": [float(x) for x in sigma2],
        "alpha": [float(x) for x in alpha],
        "p_max": float(p_max),
        "seed": int((meta or {}).get("seed", 0)),
        "train": len(gains["train"]),
        "test": len(gains["test"]),
    }
    header = {**(meta or {}), **header}  # meta adds keys, never replaces one
    # a file object, as np.savez would append .npz to a path that lacks it;
    # its zip entries carry a fixed date, so the bytes are reproducible
    with open(path, "wb") as f:
        np.savez(f, header=np.array(json.dumps(header, sort_keys=True, separators=(",", ":"))),
                 G_train=gains["train"], G_test=gains["test"])


def is_json_number(x) -> bool:
    """True for a parsed JSON number a float holds finitely: an int or float
    no larger in magnitude than the largest float; not a bool, NaN or inf."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def check_json(value, proto, key: str = "") -> None:
    """Raise ValueError unless a parsed JSON value has the types of its
    prototype, the one type rule of the config, the dataset header and the
    checkpoint. An object must hold each key of the prototype's, checked
    against that key's prototype (other keys pass unchecked); a float wants
    a finite number (is_json_number); a list a list of finite numbers, and a
    list that holds an item also takes one number alone, the value of every
    entry; anything else wants the prototype's own type, so an int refuses
    true, 1.5 and 4.0. ``key`` names the value in the message."""
    got = reprlib.repr(value)
    if isinstance(proto, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{key or 'the document'} is not a JSON object: {got}")
        for name, item in proto.items():
            dotted = f"{key}.{name}" if key else name
            if name not in value:
                raise ValueError(f"missing key {dotted!r}")
            check_json(value[name], item, dotted)
    elif isinstance(proto, list) and (isinstance(value, list) or not proto):
        if not (isinstance(value, list) and all(map(is_json_number, value))):
            raise ValueError(f"{key} must be a list of finite numbers, got {got}")
    elif isinstance(proto, (float, list)):
        if not is_json_number(value):
            also = " or a list of finite numbers" if isinstance(proto, list) else ""
            raise ValueError(f"{key} must be a finite number{also}, got {got}")
    elif type(value) is not type(proto):
        name = {int: "integer", str: "string"}[type(proto)]
        raise ValueError(f"{key} must be a JSON {name}, got non-{name} {got}")


def _read_members(path) -> dict[str, np.ndarray]:
    """The arrays of a dataset file, read without pickle. A file that is not
    such an .npz (JSON text, an empty or cut file, an object array) is a
    ValueError that names the path and none of numpy's words."""
    refused = f"{path} is not a gen dataset (an .npz of {', '.join(_MEMBERS)}); re-run gen"
    with open(path, "rb") as f:  # an OSError here is the caller's: the file cannot be read
        try:
            with np.lib.npyio.NpzFile(f, allow_pickle=False) as npz:
                members = {name: npz[name] for name in npz.files}
        # numpy's and zipfile's on a damaged or foreign file (OSError: a seek before
        # the start; RuntimeError: an entry marked encrypted; TokenError: a bad .npy header)
        except (ValueError, EOFError, OSError, RuntimeError, tokenize.TokenError,
                zipfile.BadZipFile, zlib.error, NotImplementedError) as exc:
            raise ValueError(refused) from exc
    if sorted(members) != sorted(_MEMBERS):
        raise ValueError(refused)
    return members


def load_dataset(path) -> tuple[ChannelBatch, ChannelBatch, dict]:
    """Read a dataset file written by save_dataset; returns (train, test,
    header), each split one ChannelBatch stack. Each gain array must be
    complex128 of the header's (count, M, M), and passes the realization
    checks, run once over the array; a SplitError names the first bad
    realization."""
    members = _read_members(path)
    text = members["header"]
    try:
        header = json.loads(str(text)) if text.dtype.kind == "U" and text.ndim == 0 else None
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
        raise ValueError(f"dataset header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("version") != DATASET_VERSION \
            or header.get("kind") != "d2d-dataset":
        raise ValueError(f"unrecognized dataset header in {path} (re-run gen)")
    try:
        check_json(header, _HEADER)
        m, p_max = header["M"], header["p_max"]
        sigma2, alpha = check_dataset_link(m, header["sigma2"], header["alpha"], p_max)
    except ValueError as exc:
        raise ValueError(f"dataset header in {path}: {exc}") from exc
    splits = []
    for split in ("train", "test"):
        name, gains = f"G_{split}", members[f"G_{split}"]
        if gains.dtype != np.complex128 or gains.shape != (header[split], m, m):
            raise ValueError(f"{path}: {name} is {gains.dtype} of shape {gains.shape}, header "
                             f"says complex128 of ({header[split]}, {m}, {m})")
        try:
            splits.append(ChannelBatch.from_gains(gains, sigma2, alpha, p_max))
        except RealizationError as exc:
            raise SplitError(path, split, exc) from exc
    return splits[0], splits[1], header
