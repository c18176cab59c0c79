"""Versioned binary checkpoint container.

Layout (little-endian):
    magic  b"GSCP"
    u32    format version
    u64    metadata length, then that many bytes of canonical JSON
    u32    tensor count
    per tensor, sorted by name:
        u16 name length, name (utf-8), u32 rows, u32 cols, rows*cols f8

The JSON block holds the train config and its hash, the epoch/step
counters, and the vocabulary (content tokens in id order), so evaluation
surfaces can run from a checkpoint alone. Saving is canonical: writing a
just-loaded checkpoint reproduces the original bytes. Saving is also
crash-safe: the bytes go to a temporary file in the same directory, which
is flushed, fsynced and then renamed over the target, so an interrupted
save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .autodiff import Matrix
from .data import Vocabulary
from .training import AdamState, ModelParameters, TrainConfig, assemble_params

MAGIC = b"GSCP"
VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(_canonical_json(config.to_dict())).hexdigest()


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", fh.read(2))
    name = fh.read(name_len).decode("utf-8")
    rows, cols = struct.unpack("<II", fh.read(8))
    data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8").reshape(rows, cols)
    return name, data.copy()


def save(path, params: ModelParameters, adam: AdamState, config: TrainConfig,
         vocab: Vocabulary, epoch: int) -> None:
    meta = {
        "format_version": VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "epoch": epoch,
        "step": adam.step,
        "vocab": vocab.content_tokens(),
    }
    tensors: dict[str, np.ndarray] = {k: p.data for k, p in params.named().items()}
    for k, arr in adam.m.items():
        tensors[f"adam_m/{k}"] = arr
    for k, arr in adam.v.items():
        tensors[f"adam_v/{k}"] = arr

    blob = _canonical_json(meta)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                _write_tensor(fh, name, tensors[name])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(path) -> tuple[ModelParameters, AdamState, TrainConfig, Vocabulary, int]:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", fh.read(8))
        meta = json.loads(fh.read(meta_len))
        (count,) = struct.unpack("<I", fh.read(4))
        tensors = dict(_read_tensor(fh) for _ in range(count))

    config = TrainConfig(**meta["config"])
    if meta.get("config_hash") != config_hash(config):
        raise ValueError(f"{path}: config hash mismatch")
    vocab = Vocabulary(meta["vocab"])

    params = assemble_params(config, vocab.size,
                             {k: Matrix(v) for k, v in tensors.items()
                              if not k.startswith("adam_")})
    adam = AdamState(
        step=int(meta["step"]),
        m={k: tensors[f"adam_m/{k}"] for k in params.named()},
        v={k: tensors[f"adam_v/{k}"] for k in params.named()},
    )
    return params, adam, config, vocab, int(meta["epoch"])
