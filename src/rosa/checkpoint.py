"""Binary checkpoints for adapted networks.

Layout, all integers little-endian u32:

    magic b"RSA1" | format version | meta length | meta JSON (UTF-8)
    | tensor count | tensor records

Each tensor record is: name length, name (UTF-8), rows, cols, then
rows * cols float64 values, little-endian, row-major. Vectors are stored
as (n, 1) and restored to 1-D from the layer schema. The meta JSON holds
what arrays cannot: per-layer adapter kind, activation, rank and sampling
scheme. Each adapter writes and reads its own layer record (record and
from_record in rosa.adapters); this module adds the activation and bias.
Older files may also hold a per-layer "steps_since_factorize" counter,
which loading ignores, and a "w_original" copy of a layer's starting
weight, which loading checks like any tensor and then drops.

Loading parses the entire byte string before any network object is built,
so a malformed file raises CheckpointFormatError (with the byte offset)
and never yields partial state. A file that parses is also checked for
self-consistency: every meta value of its expected type, every tensor
finite, every host weight non-empty, every factor, scale and bias shaped
to fit it, every rank within [1, min(m, n)], at least one layer, and each
layer's input width equal to the previous layer's output width.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .adapters import KINDS
from .errors import CheckpointFormatError
from .fileio import atomic_open
from .linalg import Array
from .network import Activation, DenseLayer, Mlp

MAGIC = b"RSA1"
FORMAT_VERSION = 1
_ACTIVATIONS = [a.value for a in Activation]


def encode_checkpoint(net: Mlp) -> bytes:
    layer_metas = []
    tensors = []
    for i, layer in enumerate(net.layers):
        meta, named = layer.adapter.record()
        meta["activation"] = layer.activation.value
        named["bias"] = layer.bias
        layer_metas.append(meta)
        tensors += [(f"layer{i}.{name}", arr[:, None] if arr.ndim == 1 else arr)
                    for name, arr in named.items()]
    meta_bytes = json.dumps({"layers": layer_metas}, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(meta_bytes))
    out += meta_bytes
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        name_bytes = name.encode("utf-8")
        rows, cols = arr.shape
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<I", rows)
        out += struct.pack("<I", cols)
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return bytes(out)


def save_checkpoint(net: Mlp, path) -> None:
    data = encode_checkpoint(net)
    with atomic_open(path, binary=True) as fh:
        fh.write(data)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointFormatError(f"truncated while reading {what}", self.pos)
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def decode_checkpoint(data: bytes) -> Mlp:
    cur = _Cursor(data)
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = cur.u32("format version")
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}", 4)
    meta_len = cur.u32("meta length")
    meta_offset = cur.pos
    meta_bytes = cur.take(meta_len, "meta JSON")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointFormatError(f"meta JSON is invalid: {exc}", meta_offset) from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("layers"), list):
        raise CheckpointFormatError("meta JSON lacks a 'layers' list", meta_offset)
    tensor_count = cur.u32("tensor count")
    table_offset = cur.pos
    tensors: dict[str, Array] = {}
    for _ in range(tensor_count):
        record_offset = cur.pos
        name_len = cur.u32("tensor name length")
        try:
            name = cur.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"tensor name is not UTF-8: {exc}",
                                        record_offset) from exc
        rows = cur.u32(f"rows of {name!r}")
        cols = cur.u32(f"cols of {name!r}")
        raw = cur.take(rows * cols * 8, f"data of {name!r}")
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor {name!r}", record_offset)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
    if cur.pos != len(data):
        raise CheckpointFormatError(
            f"{len(data) - cur.pos} trailing bytes after last tensor", cur.pos)
    return _assemble(meta["layers"], tensors, table_offset)


class _LayerFetch:
    """One layer's tensor lookup, handed to its adapter's from_record.

    fetch(name) pops the layer's tensor; fetch(name, shape) also checks its
    shape, and a 1-D shape restores a vector from its (n, 1) column.
    error() builds the layer's CheckpointFormatError for the caller to raise.
    """

    def __init__(self, tensors: dict[str, Array], index: int, offset: int):
        self.tensors, self.index, self.offset = tensors, index, offset

    def __call__(self, name: str, shape: tuple | None = None) -> Array:
        key = f"layer{self.index}.{name}"
        if key not in self.tensors:
            raise CheckpointFormatError(f"missing tensor '{key}'", self.offset)
        arr = self.tensors.pop(key)
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(
                f"tensor '{key}' has non-finite entries", self.offset)
        if shape is None:
            return arr
        stored = shape if len(shape) == 2 else (shape[0], 1)
        if arr.shape != stored:
            raise self.error(f"tensor '{name}' has shape {arr.shape}, "
                             f"expected {stored}")
        return arr if len(shape) == 2 else arr[:, 0].copy()

    def error(self, message: str) -> CheckpointFormatError:
        return CheckpointFormatError(f"layer {self.index} {message}", self.offset)


def _assemble(layer_metas: list, tensors: dict[str, Array],
              table_offset: int) -> Mlp:
    if not layer_metas:
        raise CheckpointFormatError("meta JSON lists no layers", table_offset)
    layers = []
    for i, meta in enumerate(layer_metas):
        fetch = _LayerFetch(tensors, i, table_offset)
        if not isinstance(meta, dict):
            raise fetch.error("meta is not an object")
        kind = meta.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise fetch.error(f"has unknown kind {kind!r}")
        if meta.get("activation") not in _ACTIVATIONS:
            raise fetch.error(f"has unknown activation {meta.get('activation')!r}")
        adapter = KINDS[kind].from_record(meta, fetch)
        if 0 in adapter.shape:
            raise fetch.error(f"has an empty host weight of shape {adapter.shape}")
        if f"layer{i}.w_original" in tensors:
            fetch("w_original", adapter.shape)
        if layers and adapter.shape[1] != layers[-1].out_dim:
            raise fetch.error(f"takes {adapter.shape[1]} inputs but layer "
                              f"{i - 1} gives {layers[-1].out_dim} outputs")
        layers.append(DenseLayer(adapter=adapter,
                                 bias=fetch("bias", adapter.shape[:1]),
                                 activation=Activation(meta["activation"])))
    if tensors:
        raise CheckpointFormatError(
            f"unreferenced tensors in file: {sorted(tensors)}", table_offset)
    return Mlp(layers=layers)


def load_checkpoint(path) -> Mlp:
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_checkpoint(data)
