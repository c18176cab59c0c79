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

from .data import Vocabulary
from .training import AdamState, ModelParameters, TrainConfig, init_params

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


def _read_exact(fh, n: int, size: int) -> bytes:
    """n bytes from fh, or EOFError; n beyond the file's size is refused before reading."""
    data = fh.read(n) if n <= size else b""
    if len(data) != n:
        raise EOFError
    return data


def _read_tensor(fh, size: int) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2, size))
    name = _read_exact(fh, name_len, size).decode("utf-8")
    rows, cols = struct.unpack("<II", _read_exact(fh, 8, size))
    data = _read_exact(fh, rows * cols * 8, size)
    return name, np.frombuffer(data, dtype="<f8").reshape(rows, cols)


def _arrays(params: ModelParameters, adam: AdamState) -> dict[str, np.ndarray]:
    """Every array a checkpoint holds, by its name in the file."""
    arrays = dict(params.values)
    for kind, moments in (("m", adam.m), ("v", adam.v)):
        arrays.update({f"adam_{kind}/{k}": view for k, view in moments.items()})
    return arrays


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
    tensors = _arrays(params, adam)
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
    """Read a checkpoint; a truncated, padded or inconsistent file raises ValueError."""
    corrupt = ValueError(f"{path}: truncated or corrupt checkpoint")
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        size = os.fstat(fh.fileno()).st_size
        try:
            (version,) = struct.unpack("<I", _read_exact(fh, 4, size))
            if version != VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, size))
            meta = json.loads(_read_exact(fh, meta_len, size))
            (count,) = struct.unpack("<I", _read_exact(fh, 4, size))
            tensors = dict(_read_tensor(fh, size) for _ in range(count))
            if fh.read(1):
                raise EOFError
        except (EOFError, UnicodeDecodeError, json.JSONDecodeError):
            raise corrupt from None

    try:
        config = TrainConfig(**meta["config"])
        step, epoch, vocab = int(meta["step"]), int(meta["epoch"]), Vocabulary(meta["vocab"])
    except (KeyError, TypeError):
        raise corrupt from None
    if meta.get("config_hash") != config_hash(config):
        raise ValueError(f"{path}: config hash mismatch")

    params = init_params(config, vocab.size)
    adam = AdamState.for_params(params)
    adam.step = step
    views = _arrays(params, adam)
    if {k: t.shape for k, t in tensors.items()} != {k: view.shape for k, view in views.items()}:
        raise corrupt  # a tensor missing, unknown or of the wrong shape
    for name, view in views.items():
        view[...] = tensors[name]
    return params, adam, config, vocab, epoch
