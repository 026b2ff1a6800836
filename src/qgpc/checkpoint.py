"""Versioned model checkpoints.

One JSON document per checkpoint: format version, a payload kind tag
("qgnn" or "gcn"), the architecture hyperparameters, the frozen feature
scaler constants, and the flat parameter vector. Both model families share
the container and differ only in kind and architecture fields.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import check_json
from .graph import FeatureScaler

CHECKPOINT_VERSION = 2  # 2: the arch dict no longer holds feature_dim
KNOWN_KINDS = ("qgnn", "gcn")
# the JSON types of a checkpoint, for check_json; every arch value is an int too
_PROTOTYPE = {"arch": {}, "scaler": {"mu": 0.0, "sigma": 0.0, "z_clip": 0.0}, "params": []}


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoints."""


def save_checkpoint(path, kind: str, arch: dict, params, scaler: FeatureScaler) -> None:
    if kind not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    doc = {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "arch": arch,
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
    try:
        check_json(doc, _PROTOTYPE)
        check_json(doc["arch"], dict.fromkeys(doc["arch"], 0), "arch")
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("kind") not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {doc.get('kind')!r}")
    sc = {key: doc["scaler"][key] for key in _PROTOTYPE["scaler"]}
    if not (sc["sigma"] > 0 and sc["z_clip"] > 0):
        raise CheckpointError(f"checkpoint {path} scaler needs sigma > 0 and z_clip > 0, "
                              f"got {sc}")
    return {"version": doc["version"], "kind": doc["kind"], "arch": doc["arch"],
            "scaler": FeatureScaler(**sc), "params": np.asarray(doc["params"], dtype=float)}


def check_arch(doc: dict, kind: str, arch: dict) -> None:
    """Reject a checkpoint whose payload does not match the requested model."""
    if doc["kind"] != kind:
        raise CheckpointError(f"checkpoint holds {doc['kind']!r}, expected {kind!r}")
    if doc["arch"] != arch:
        raise CheckpointError(f"architecture mismatch: checkpoint {doc['arch']} "
                              f"vs requested {arch}")
