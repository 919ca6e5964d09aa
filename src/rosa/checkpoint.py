"""Binary checkpoints for adapted networks.

Layout, all integers little-endian u32:

    magic b"RSA1" | format version | meta length | meta JSON (UTF-8)
    | tensor count | tensor records

Each tensor record is: name length, name (UTF-8), rows, cols, then
rows * cols float64 values, little-endian, row-major. Vectors are stored
as (n, 1) and restored to 1-D from the layer schema. The meta JSON holds
what arrays cannot: per-layer adapter kind, activation, rank, sampling
scheme, and the factorize step counter.

Loading parses the entire byte string before any network object is built,
so a malformed file raises CheckpointFormatError (with the byte offset)
and never yields partial state. A file that parses is also checked for
self-consistency: every tensor finite, every factor, scale, bias and
original weight shaped to fit its layer's host weight, every rank within
[1, min(m, n)].
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .adapters import (FullyTrainable, Ia3Adapter, LoraAdapter, RosaAdapter)
from .errors import CheckpointFormatError
from .fileio import atomic_open
from .linalg import Array, SamplingScheme
from .network import Activation, DenseLayer, Mlp

MAGIC = b"RSA1"
FORMAT_VERSION = 1

_TENSOR_NAMES = {
    "rosa": ("w_fixed", "a", "b", "w_original", "bias"),
    "lora": ("w_frozen", "a", "b", "bias"),
    "ia3": ("w_frozen", "scale", "bias"),
    "full": ("w", "w_original", "bias"),
}
_VECTOR_NAMES = {"bias", "scale"}


def _layer_meta_and_tensors(index: int, layer: DenseLayer):
    ad = layer.adapter
    prefix = f"layer{index}."
    meta: dict = {"activation": layer.activation.value}
    if isinstance(ad, RosaAdapter):
        meta.update(kind="rosa", rank=ad.rank, scheme=ad.scheme.value,
                    steps_since_factorize=ad.steps_since_factorize)
        named = {"w_fixed": ad.w_fixed, "a": ad.a, "b": ad.b,
                 "w_original": ad.w_original}
    elif isinstance(ad, LoraAdapter):
        meta.update(kind="lora", rank=ad.rank)
        named = {"w_frozen": ad.w_frozen, "a": ad.a, "b": ad.b}
    elif isinstance(ad, Ia3Adapter):
        meta.update(kind="ia3")
        named = {"w_frozen": ad.w_frozen, "scale": ad.scale[:, None]}
    elif isinstance(ad, FullyTrainable):
        meta.update(kind="full")
        named = {"w": ad.w, "w_original": ad.w_original}
    else:
        raise TypeError(f"cannot checkpoint adapter type {type(ad)!r}")
    named["bias"] = layer.bias[:, None]
    tensors = [(prefix + name, np.atleast_2d(arr)) for name, arr in named.items()]
    return meta, tensors


def encode_checkpoint(net: Mlp) -> bytes:
    layer_metas = []
    tensors = []
    for i, layer in enumerate(net.layers):
        lm, named = _layer_meta_and_tensors(i, layer)
        layer_metas.append(lm)
        tensors.extend(named)
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        rows = cur.u32(f"rows of '{name}'")
        cols = cur.u32(f"cols of '{name}'")
        raw = cur.take(rows * cols * 8, f"data of '{name}'")
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor '{name}'", record_offset)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
    if cur.pos != len(data):
        raise CheckpointFormatError(
            f"{len(data) - cur.pos} trailing bytes after last tensor", cur.pos)
    return _assemble(meta["layers"], tensors, table_offset)


def _assemble(layer_metas: list, tensors: dict[str, Array],
              table_offset: int) -> Mlp:
    def fetch(prefix: str, name: str) -> Array:
        key = prefix + name
        if key not in tensors:
            raise CheckpointFormatError(f"missing tensor '{key}'", table_offset)
        arr = tensors.pop(key)
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(
                f"tensor '{key}' has non-finite entries", table_offset)
        if name in _VECTOR_NAMES:
            if arr.shape[1] != 1:
                raise CheckpointFormatError(
                    f"tensor '{key}' should be a column vector, got {arr.shape}",
                    table_offset)
            return arr[:, 0].copy()
        return arr

    layers = []
    for i, lm in enumerate(layer_metas):
        if not isinstance(lm, dict):
            raise CheckpointFormatError(f"layer {i} meta is not an object",
                                        table_offset)
        kind = lm.get("kind")
        if kind not in _TENSOR_NAMES:
            raise CheckpointFormatError(f"layer {i} has unknown kind {kind!r}",
                                        table_offset)
        try:
            activation = Activation(lm.get("activation"))
        except ValueError:
            raise CheckpointFormatError(
                f"layer {i} has unknown activation {lm.get('activation')!r}",
                table_offset) from None
        prefix = f"layer{i}."
        try:
            if kind == "rosa":
                adapter = RosaAdapter(
                    w_fixed=fetch(prefix, "w_fixed"),
                    a=fetch(prefix, "a"),
                    b=fetch(prefix, "b"),
                    rank=int(lm["rank"]),
                    scheme=SamplingScheme(lm["scheme"]),
                    w_original=fetch(prefix, "w_original"),
                    steps_since_factorize=int(lm["steps_since_factorize"]),
                )
            elif kind == "lora":
                adapter = LoraAdapter(
                    w_frozen=fetch(prefix, "w_frozen"),
                    a=fetch(prefix, "a"),
                    b=fetch(prefix, "b"),
                    rank=int(lm["rank"]),
                )
            elif kind == "ia3":
                adapter = Ia3Adapter(w_frozen=fetch(prefix, "w_frozen"),
                                     scale=fetch(prefix, "scale"))
            else:
                adapter = FullyTrainable(w=fetch(prefix, "w"),
                                         w_original=fetch(prefix, "w_original"))
        except (KeyError, ValueError) as exc:
            raise CheckpointFormatError(f"layer {i} meta is incomplete: {exc}",
                                        table_offset) from exc
        bias = fetch(prefix, "bias")
        _check_layer_shapes(i, kind, adapter, bias, table_offset)
        layers.append(DenseLayer(adapter=adapter, bias=bias, activation=activation))
    if tensors:
        raise CheckpointFormatError(
            f"unreferenced tensors in file: {sorted(tensors)}", table_offset)
    return Mlp(layers=layers)


def _check_layer_shapes(i: int, kind: str, adapter, bias: Array,
                        table_offset: int) -> None:
    """Every tensor of layer i must fit its m x n host weight and rank."""
    m, n = adapter.shape
    expected = {"bias": (m,)}
    if kind in ("rosa", "lora"):
        rank = adapter.rank
        if not 1 <= rank <= min(m, n):
            raise CheckpointFormatError(
                f"layer {i} rank {rank} is outside [1, {min(m, n)}] for an "
                f"{m} x {n} weight", table_offset)
        expected.update(a=(m, rank), b=(rank, n))
    if kind in ("rosa", "full"):
        expected["w_original"] = (m, n)
    if kind == "ia3":
        expected["scale"] = (m,)
    for name, shape in expected.items():
        got = bias.shape if name == "bias" else getattr(adapter, name).shape
        if got != shape:
            raise CheckpointFormatError(
                f"layer {i} tensor '{name}' has shape {got}, expected {shape} "
                f"for an {m} x {n} weight", table_offset)


def load_checkpoint(path) -> Mlp:
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_checkpoint(data)
