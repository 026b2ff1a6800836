"""Versioned model checkpoints.

One JSON document per checkpoint: format version, a payload kind tag
("qgnn" or "gcn"), the architecture hyperparameters, the frozen feature
scaler constants, and the flat parameter vector. Both model families share
the container and differ only in kind and architecture fields.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channels import is_json_number
from .graph import FeatureScaler

CHECKPOINT_VERSION = 2  # 2: the arch dict no longer holds feature_dim
KNOWN_KINDS = ("qgnn", "gcn")


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoints."""


def save_checkpoint(path, kind: str, arch: dict, params, scaler: FeatureScaler) -> None:
    if kind not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    doc = {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "arch": {key: int(val) for key, val in arch.items()},
        "scaler": {"mu": scaler.mu, "sigma": scaler.sigma, "z_clip": scaler.z_clip},
        "params": [float(x) for x in np.asarray(params, dtype=float)],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_checkpoint(path) -> dict:
    """Returns {version, kind, arch, scaler, params} with params as ndarray."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("kind") not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {doc.get('kind')!r}")
    try:
        sc, arch, params = doc["scaler"], doc["arch"], doc["params"]
        scaler = FeatureScaler(mu=sc["mu"], sigma=sc["sigma"], z_clip=sc["z_clip"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc!r}") from exc
    if not isinstance(arch, dict):
        raise CheckpointError(f"checkpoint {path} arch is not a JSON object: {arch!r}")
    if not all(type(val) is int for val in arch.values()):
        raise CheckpointError(f"checkpoint {path} has non-integer arch values: {arch}")
    numbers = (scaler.mu, scaler.sigma, scaler.z_clip)
    if not all(is_json_number(x) and math.isfinite(x) for x in numbers) \
            or not (scaler.sigma > 0 and scaler.z_clip > 0):
        raise CheckpointError(f"checkpoint {path} scaler needs finite numbers with "
                              f"sigma > 0 and z_clip > 0, got {sc}")
    if not (isinstance(params, list) and all(map(is_json_number, params))
            and all(map(math.isfinite, params))):
        raise CheckpointError(f"checkpoint {path} params are not a list of finite numbers")
    return {"version": doc["version"], "kind": doc["kind"], "arch": arch,
            "scaler": scaler, "params": np.asarray(params, dtype=float)}


def check_arch(doc: dict, kind: str, arch: dict) -> None:
    """Reject a checkpoint whose payload does not match the requested model."""
    if doc["kind"] != kind:
        raise CheckpointError(f"checkpoint holds {doc['kind']!r}, expected {kind!r}")
    want = {key: int(val) for key, val in arch.items()}
    if doc["arch"] != want:
        raise CheckpointError(
            f"architecture mismatch: checkpoint {doc['arch']} vs requested {want}"
        )
