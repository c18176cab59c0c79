"""Versioned binary checkpoint container.

Layout (little-endian):
    magic  b"GSCP"
    u32    format version
    u64    metadata length
    u32    CRC-32 of the metadata
    ...    the metadata, canonical JSON
    f8     the parameter vector, then Adam's m and v, each `FlatTensors.vector`

The JSON block holds the train config and its hash, the epoch/step counters
and the vocabulary (content tokens in id order), so evaluation surfaces can
run from a checkpoint alone. It also holds the layout the three vectors
share, `[[name, rows, cols], ...]` in `training.parameter_shapes` order, and
one CRC-32 per vector. Each vector is written with one call and read with one
`readinto`. A file whose length, layout (checked before allocating) or CRCs
(of the metadata or of a vector) disagree is refused, and so is one whose
vocabulary holds an entry `data.tokenize` could not produce (7, "a b" or
""), whose step or epoch is negative, whose vectors hold a non-finite value,
or whose second moment v holds a negative one (Adam takes its square root).

Saving is canonical: writing a just-loaded checkpoint reproduces the
original bytes. Saving is also crash-safe: the bytes go to a temporary file
in the same directory, which is flushed, fsynced and then renamed over the
target, so an interrupted save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib

from .data import Vocabulary, tokenize
from .training import AdamState, ModelParameters, TrainConfig, all_finite, parameter_shapes

MAGIC = b"GSCP"
VERSION = 3
_HEADER = struct.Struct("<4sIQI")  # magic, version, metadata length, metadata CRC-32


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(_canonical_json(config.to_dict())).hexdigest()


def _layout(shapes: dict[str, tuple[int, int]]) -> list[list]:
    return [[name, *shape] for name, shape in shapes.items()]


def _vectors(params: ModelParameters, adam: AdamState) -> tuple:
    """The three vectors a checkpoint holds, in file order."""
    return params.values.vector, adam.m.vector, adam.v.vector


def save(path, params: ModelParameters, adam: AdamState, config: TrainConfig,
         vocab: Vocabulary, epoch: int) -> None:
    vectors = _vectors(params, adam)
    meta = {
        "format_version": VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "epoch": epoch,
        "step": adam.step,
        "vocab": vocab.content_tokens(),
        "layout": _layout(params.shapes),
        "crc32": [zlib.crc32(v) for v in vectors],
    }
    blob = _canonical_json(meta)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, len(blob), zlib.crc32(blob)) + blob)
            for vector in vectors:
                fh.write(vector)
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
        header = fh.read(_HEADER.size)
        if header[:4] != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if len(header) != _HEADER.size:
            raise corrupt
        _, version, meta_len, meta_crc = _HEADER.unpack(header)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(fh.fileno()).st_size
        blob = fh.read(min(meta_len, size))  # bounded by the file's size
        if zlib.crc32(blob) != meta_crc:
            raise corrupt  # cut, overlong or edited
        try:
            meta = json.loads(blob)
            config = TrainConfig(**meta["config"])
            step, epoch, vocab = meta["step"], meta["epoch"], Vocabulary(meta["vocab"])
            # every entry a token `tokenize` makes, or it could never match one
            if not all(type(t) is str and tokenize(t) == [t] for t in vocab.content_tokens()):
                raise corrupt
            layout, crcs = meta["layout"], meta["crc32"]
            # JSON integers only, so 3.7 is no step; Adam's bias correction needs step >= 0
            if not (type(step) is type(epoch) is int and step >= 0 and epoch >= 0):
                raise corrupt
            # the three vectors fill the rest of the file exactly; checked before allocating
            if 3 * 8 * sum(rows * cols for _, rows, cols in layout) != size - fh.tell():
                raise corrupt
        except (KeyError, TypeError, ValueError):
            raise corrupt from None
        if meta.get("config_hash") != config_hash(config):
            raise ValueError(f"{path}: config hash mismatch")

        if layout != _layout(parameter_shapes(config, vocab.size)):
            raise corrupt  # a tensor missing, unknown or of the wrong shape; nothing allocated yet
        params = ModelParameters(config, vocab.size)
        adam = AdamState.for_params(params)
        adam.step = step
        vectors = _vectors(params, adam)
        if (any(fh.readinto(v) != v.nbytes for v in vectors)
                or [zlib.crc32(v) for v in vectors] != crcs
                or not all(map(all_finite, vectors))
                or adam.v.vector.min() < 0):
            raise corrupt
    return params, adam, config, vocab, epoch
