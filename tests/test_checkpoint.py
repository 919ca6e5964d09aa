import contextlib
import hashlib
import io
import json
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rosa.adapters import full_init, ia3_init, lora_init, rosa_init
from rosa.cli import main
from rosa.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from rosa.errors import CheckpointFormatError
from rosa.linalg import SamplingScheme
from rosa.network import Activation, DenseLayer, Mlp, build_mlp, predict

from oracles import no_layer_checkpoint


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def mixed_net(seed: int, starts: list | None = None) -> Mlp:
    """One layer of each kind; starts, when given, receives a copy of each
    layer's start weight."""
    rng = rng_for(seed)
    specs = [
        (6, 4, Activation.RELU,
         lambda w: rosa_init(w, rank=2, scheme=SamplingScheme.BOTTOM, rng=rng)),
        (5, 6, Activation.RELU, lambda w: lora_init(w, rank=3, rng=rng)),
        (5, 5, Activation.RELU, ia3_init),
        (2, 5, Activation.IDENTITY, full_init),
    ]
    layers = []
    for out_d, in_d, act, build in specs:
        w = rng.standard_normal((out_d, in_d))
        if starts is not None:
            starts.append(w.copy())
        layers.append(DenseLayer(adapter=build(w),
                                 bias=rng.standard_normal(out_d),
                                 activation=act))
    return Mlp(layers=layers)


class TestRoundTrip:
    def test_outputs_bit_identical(self):
        net = mixed_net(0)
        restored = decode_checkpoint(encode_checkpoint(net))
        x = rng_for(1).standard_normal((4, 9))
        assert np.array_equal(predict(net, x), predict(restored, x))

    def test_arrays_bit_identical(self):
        net = mixed_net(2)
        restored = decode_checkpoint(encode_checkpoint(net))
        for src, dst in zip(net.layers, restored.layers):
            assert type(dst.adapter) is type(src.adapter)
            assert dst.activation is src.activation
            assert np.array_equal(dst.bias, src.bias)
            for name, arr in src.adapter.trainable_arrays().items():
                assert np.array_equal(dst.adapter.trainable_arrays()[name], arr)

    def test_rosa_fields_survive(self):
        starts = []
        net = mixed_net(3, starts)
        restored = decode_checkpoint(encode_checkpoint(net))
        ad = restored.layers[0].adapter
        assert ad.rank == 2
        assert ad.scheme is SamplingScheme.BOTTOM
        assert np.array_equal(ad.w_fixed, net.layers[0].adapter.w_fixed)
        assert np.array_equal(ad.effective_weight() - starts[0],
                              net.layers[0].adapter.effective_weight() - starts[0])

    def test_records_hold_no_start_weight(self):
        names = set(split_tensors(encode_checkpoint(mixed_net(4)))[1])
        assert names == {"layer0.w_fixed", "layer0.a", "layer0.b", "layer0.bias",
                         "layer1.w_frozen", "layer1.a", "layer1.b", "layer1.bias",
                         "layer2.w_frozen", "layer2.scale", "layer2.bias",
                         "layer3.w", "layer3.bias"}

    def test_file_round_trip(self, tmp_path):
        net = build_mlp([3, 5, 2], rng_for(4))
        path = tmp_path / "model.rsa1"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        x = rng_for(5).standard_normal((3, 6))
        assert np.array_equal(predict(net, x), predict(restored, x))

    def test_encoding_deterministic(self):
        net = mixed_net(6)
        assert encode_checkpoint(net) == encode_checkpoint(mixed_net(6))

    def test_double_round_trip_stable(self):
        blob = encode_checkpoint(mixed_net(7))
        assert encode_checkpoint(decode_checkpoint(blob)) == blob


class TestHeader:
    def test_magic_first_four_bytes(self):
        assert encode_checkpoint(mixed_net(8))[:4] == MAGIC

    def test_version_next(self):
        blob = encode_checkpoint(mixed_net(9))
        assert struct.unpack("<I", blob[4:8])[0] == FORMAT_VERSION

    def test_bad_magic_offset_zero(self):
        blob = bytearray(encode_checkpoint(mixed_net(10)))
        blob[:4] = b"WXYZ"
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(bytes(blob))
        assert info.value.offset == 0

    def test_unknown_version(self):
        blob = bytearray(encode_checkpoint(mixed_net(11)))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(bytes(blob))
        assert "version" in str(info.value)


class TestCorruption:
    @pytest.mark.parametrize("cut", [2, 7, 30, -8, -1])
    def test_truncation_detected(self, cut):
        blob = encode_checkpoint(mixed_net(12))
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(blob[:cut])
        assert 0 <= info.value.offset <= len(blob)

    def test_trailing_garbage_detected(self):
        blob = encode_checkpoint(mixed_net(13))
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(blob + b"\x00\x01")
        assert "trailing" in str(info.value).lower()

    def test_corrupt_meta_json(self):
        blob = bytearray(encode_checkpoint(mixed_net(14)))
        meta_len = struct.unpack("<I", blob[8:12])[0]
        blob[12:12 + meta_len] = b"{" * meta_len
        with pytest.raises(CheckpointFormatError):
            decode_checkpoint(bytes(blob))

    def test_deeply_nested_meta_json(self, tmp_path, capsys):
        # Deeper than the JSON parser's recursion limit.
        blob = encode_checkpoint(mixed_net(14))
        meta_len = struct.unpack("<I", blob[8:12])[0]
        nested = b"[" * 200000
        bad = (blob[:8] + struct.pack("<I", len(nested)) + nested
               + blob[12 + meta_len:])
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(bad)
        assert info.value.offset == 12
        path = tmp_path / "nested.rsa1"
        path.write_bytes(bad)
        assert main(["spectrum", str(path), str(path),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: meta JSON is invalid")

    def test_meta_without_layers_key(self):
        blob = encode_checkpoint(mixed_net(15))
        meta_len = struct.unpack("<I", blob[8:12])[0]
        new_meta = json.dumps({"nothing": 1}).encode()
        rebuilt = (blob[:8] + struct.pack("<I", len(new_meta)) + new_meta
                   + blob[12 + meta_len:])
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(rebuilt)
        assert "layers" in str(info.value)

    # A tensor name read from the file may hold a line break.
    NAME = struct.pack("<I", 9) + "layer0.\nw".encode()

    @pytest.mark.parametrize("count, records", [
        (1, NAME),                                       # truncated at rows
        (2, 2 * (NAME + struct.pack("<II", 0, 0))),      # the same name twice
    ], ids=["truncated", "duplicate"])
    def test_tensor_name_echoed_on_one_line(self, count, records):
        meta = json.dumps({"layers": []}).encode()
        blob = (MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta)) + meta
                + struct.pack("<I", count) + records)
        with pytest.raises(CheckpointFormatError) as info:
            decode_checkpoint(blob)
        assert len(str(info.value).splitlines()) == 1

    def test_empty_bytes(self):
        with pytest.raises(CheckpointFormatError):
            decode_checkpoint(b"")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.rsa1")


class TestTensorRecords:
    def test_vector_stored_as_column(self):
        # Bias vectors travel as (n, 1) records; the loader restores the
        # 1-D shape from the schema.
        net = build_mlp([3, 4], rng_for(16))
        net.layers[0].bias[:] = [1.0, 2.0, 3.0, 4.0]
        restored = decode_checkpoint(encode_checkpoint(net))
        assert restored.layers[0].bias.shape == (4,)
        assert np.array_equal(restored.layers[0].bias, [1.0, 2.0, 3.0, 4.0])

    def test_float64_payload_exact(self):
        net = build_mlp([2, 2], rng_for(17))
        net.layers[0].adapter.w[0, 0] = np.nextafter(1.0, 2.0)
        restored = decode_checkpoint(encode_checkpoint(net))
        assert restored.layers[0].adapter.w[0, 0] == np.nextafter(1.0, 2.0)


def reloaded(net: Mlp) -> Mlp:
    return decode_checkpoint(encode_checkpoint(net))


def square_rosa_net(seed: int) -> Mlp:
    rng = rng_for(seed)
    adapter = rosa_init(rng.standard_normal((8, 8)), rank=2,
                        scheme=SamplingScheme.TOP, rng=rng)
    return Mlp(layers=[DenseLayer(adapter=adapter, bias=np.zeros(8),
                                  activation=Activation.IDENTITY)])


class TestSelfConsistency:
    @pytest.mark.parametrize("layer, name", [(0, "a"), (1, "w_fixed"),
                                             (2, "scale"), (3, "w")])
    def test_non_finite_tensor_rejected(self, layer, name):
        net = mixed_net(20)
        getattr(net.layers[layer].adapter, name).flat[0] = np.nan
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            reloaded(net)

    def test_infinite_bias_rejected(self):
        net = mixed_net(21)
        net.layers[1].bias[0] = np.inf
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            reloaded(net)

    # Older files also hold each rosa and full layer's start weight as
    # w_original. Loading checks it like any tensor, then drops it.
    def test_rosa_original_shape_rejected(self):
        blob = with_tensor(encode_checkpoint(square_rosa_net(22)),
                           "layer0.w_original", np.zeros((3, 3)))
        with pytest.raises(CheckpointFormatError, match="w_original"):
            decode_checkpoint(blob)

    def test_full_original_shape_rejected(self):
        blob = with_tensor(encode_checkpoint(mixed_net(23)),
                           "layer3.w_original", np.zeros((5, 2)))
        with pytest.raises(CheckpointFormatError, match="w_original"):
            decode_checkpoint(blob)

    @pytest.mark.parametrize("layer", [0, 3])
    def test_non_finite_original_rejected(self, layer):
        starts = []
        net = mixed_net(29, starts)
        start = starts[layer].copy()
        start.flat[0] = np.nan
        blob = with_tensor(encode_checkpoint(net), f"layer{layer}.w_original", start)
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            decode_checkpoint(blob)

    def test_factor_wider_than_rank_rejected(self):
        net = square_rosa_net(24)
        net.layers[0].adapter.a = np.ones((8, 5))
        net.layers[0].adapter.b = np.ones((5, 8))
        with pytest.raises(CheckpointFormatError, match="'a'"):
            reloaded(net)

    def test_b_rows_off_rank_rejected(self):
        net = mixed_net(25)
        ad = net.layers[1].adapter
        ad.b = ad.b[:2]
        with pytest.raises(CheckpointFormatError, match="'b'"):
            reloaded(net)

    @pytest.mark.parametrize("rank", [0, 9])
    def test_rank_outside_budget_rejected(self, rank):
        net = square_rosa_net(26)
        ad = net.layers[0].adapter
        ad.rank = rank
        ad.a = np.ones((8, rank))
        ad.b = np.ones((rank, 8))
        with pytest.raises(CheckpointFormatError, match="rank"):
            reloaded(net)

    def test_ia3_scale_length_rejected(self):
        net = mixed_net(27)
        net.layers[2].adapter.scale = np.ones(6)
        with pytest.raises(CheckpointFormatError, match="scale"):
            reloaded(net)

    def test_unchained_layers_rejected(self):
        # A 3x2 layer followed by a 5x2 one: every tensor fits its own
        # layer, but layer 1 cannot take layer 0's output.
        rng = rng_for(28)
        net = Mlp(layers=[
            DenseLayer(adapter=full_init(rng.standard_normal((out_d, 2))),
                       bias=np.zeros(out_d), activation=Activation.IDENTITY)
            for out_d in (3, 5)])
        with pytest.raises(CheckpointFormatError,
                           match="layer 1 takes 2 inputs but layer 0 gives 3"):
            reloaded(net)

    def test_no_layers_rejected(self):
        with pytest.raises(CheckpointFormatError, match="no layers"):
            decode_checkpoint(no_layer_checkpoint())

    # The constructors refuse an empty weight, so the files are edited.
    # `rosa spectrum` must exit 4, not fail later in the SVD with exit 2.
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("kind", ["full", "ia3"])
    def test_empty_host_weight_rejected(self, kind, shape):
        blob = empty_host_blob(kind, shape)
        with pytest.raises(CheckpointFormatError,
                           match=r"layer 0 has an empty host weight of shape"):
            decode_checkpoint(blob)
        code, err = spectrum_of(blob)
        assert code == 4
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"error: layer 0 has an empty host weight of shape {shape}")


def meta_of(blob: bytes) -> dict:
    meta_len = struct.unpack("<I", blob[8:12])[0]
    return json.loads(blob[12:12 + meta_len])


def with_meta(blob: bytes, meta) -> bytes:
    """blob with its meta JSON replaced by meta, header length fixed."""
    meta_len = struct.unpack("<I", blob[8:12])[0]
    new_meta = json.dumps(meta, sort_keys=True).encode()
    return (blob[:8] + struct.pack("<I", len(new_meta)) + new_meta
            + blob[12 + meta_len:])


def split_tensors(blob: bytes) -> tuple[bytes, dict[str, bytes]]:
    """blob up to its tensor count, and each whole tensor record by name."""
    pos = 12 + struct.unpack("<I", blob[8:12])[0]
    count = struct.unpack("<I", blob[pos:pos + 4])[0]
    head, pos = blob[:pos], pos + 4
    records = {}
    for _ in range(count):
        name_len = struct.unpack("<I", blob[pos:pos + 4])[0]
        name = blob[pos + 4:pos + 4 + name_len].decode()
        rows, cols = struct.unpack("<II", blob[pos + 4 + name_len:pos + 12 + name_len])
        end = pos + 12 + name_len + 8 * rows * cols
        records[name], pos = blob[pos:end], end
    return head, records


def join_tensors(head: bytes, records: dict[str, bytes]) -> bytes:
    return head + struct.pack("<I", len(records)) + b"".join(records.values())


def tensor_of(record: bytes) -> np.ndarray:
    name_len = struct.unpack("<I", record[:4])[0]
    rows, cols = struct.unpack("<II", record[4 + name_len:12 + name_len])
    return np.frombuffer(record[12 + name_len:], dtype="<f8").reshape(rows, cols)


def with_tensor(blob: bytes, name: str, arr: np.ndarray) -> bytes:
    """blob with one more 2-D tensor record, as an older encoder wrote it."""
    head, records = split_tensors(blob)
    records[name] = (struct.pack("<I", len(name)) + name.encode()
                     + struct.pack("<II", *arr.shape)
                     + np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return join_tensors(head, records)


def empty_host_blob(kind: str, shape: tuple) -> bytes:
    """A one-layer full or ia3 file whose host weight has the given shape,
    with a bias (and scale) of the matching length."""
    build, name = {"full": (full_init, "w"), "ia3": (ia3_init, "w_frozen")}[kind]
    net = Mlp(layers=[DenseLayer(adapter=build(np.ones((3, 3))), bias=np.zeros(3),
                                 activation=Activation.IDENTITY)])
    blob = with_tensor(encode_checkpoint(net), f"layer0.{name}", np.zeros(shape))
    for vector in ("bias", "scale") if kind == "ia3" else ("bias",):
        blob = with_tensor(blob, f"layer0.{vector}", np.zeros((shape[0], 1)))
    return blob


def with_layer_value(blob: bytes, layer: int, key: str, value) -> bytes:
    meta = meta_of(blob)
    meta["layers"][layer][key] = value
    return with_meta(blob, meta)


class TestMistypedMeta:
    """Every mistyped meta value is a format error, never a TypeError."""

    @pytest.mark.parametrize("layer, key, value", [
        (0, "rank", [2]), (0, "rank", None), (0, "rank", True),
        (0, "rank", 2.0), (0, "rank", "2"), (1, "rank", False),
        (0, "kind", ["rosa"]), (2, "kind", None), (3, "kind", {"a": 1}),
        (0, "scheme", ["bottom"]), (0, "scheme", None),
        (1, "activation", ["relu"]), (3, "activation", 0),
    ], ids=str)
    def test_rejected(self, layer, key, value):
        blob = with_layer_value(encode_checkpoint(mixed_net(30)), layer, key, value)
        with pytest.raises(CheckpointFormatError, match=f"layer {layer} "):
            decode_checkpoint(blob)

    def test_bool_rank_rejected_where_shapes_fit(self):
        # true == 1 in Python, so a rank-1 layer's factors would fit it.
        rng = rng_for(33)
        adapter = rosa_init(rng.standard_normal((4, 4)), rank=1, rng=rng)
        net = Mlp(layers=[DenseLayer(adapter=adapter, bias=np.zeros(4),
                                     activation=Activation.IDENTITY)])
        blob = with_layer_value(encode_checkpoint(net), 0, "rank", True)
        with pytest.raises(CheckpointFormatError, match="rank True"):
            decode_checkpoint(blob)

    @pytest.mark.parametrize("value", [None, [1], "x", 3])
    def test_old_step_counter_ignored(self, value):
        net = mixed_net(31)
        blob = with_layer_value(encode_checkpoint(net), 0, "steps_since_factorize",
                                value)
        x = rng_for(32).standard_normal((4, 5))
        assert np.array_equal(predict(decode_checkpoint(blob), x), predict(net, x))


FIXTURE = pathlib.Path(__file__).parent / "data" / "mixed_v1.rsa1"
# sha256 of encode_checkpoint(lora_only_net(41)) as written before LoRA
# became the factored adapter with no scheme.
LORA_ONLY_SHA256 = "361ca84ba4fde5a8f25b0688a099df8572ee1f385d920edf0fec22ef02370043"


def lora_only_net(seed: int) -> Mlp:
    rng = rng_for(seed)
    layers = []
    for out_d, in_d, rank, act in [(5, 4, 2, Activation.RELU),
                                   (3, 5, 3, Activation.IDENTITY)]:
        ad = lora_init(rng.standard_normal((out_d, in_d)), rank=rank, rng=rng)
        ad.b[:] = rng.standard_normal(ad.b.shape)
        layers.append(DenseLayer(adapter=ad, bias=rng.standard_normal(out_d),
                                 activation=act))
    return Mlp(layers=layers)


class TestOldFiles:
    """tests/data/mixed_v1.rsa1 holds mixed_net(40) with its rosa layer's
    steps_since_factorize at 9, written by the format-1 encoder that still
    stored that counter, kept a w_original copy of the rosa and full
    layers' start weights, and kept LoRA in a class of its own."""

    def test_fixture_is_mixed_and_old(self):
        layers = meta_of(FIXTURE.read_bytes())["layers"]
        assert [lm["kind"] for lm in layers] == ["rosa", "lora", "ia3", "full"]
        assert layers[0]["steps_since_factorize"] == 9

    def test_loads_and_predicts_identically(self):
        starts = []
        net = mixed_net(40, starts)
        restored = load_checkpoint(FIXTURE)
        x = rng_for(41).standard_normal((4, 7))
        assert np.array_equal(predict(restored, x), predict(net, x))
        lora = restored.layers[1].adapter
        assert lora.scheme is None and np.array_equal(lora.w_fixed, starts[1])

    def test_reencoding_drops_step_counter_and_original(self):
        starts = []
        net = mixed_net(40, starts)
        old = FIXTURE.read_bytes()
        meta = meta_of(old)
        del meta["layers"][0]["steps_since_factorize"]
        head, records = split_tensors(with_meta(old, meta))
        for layer in (0, 3):
            dropped = tensor_of(records.pop(f"layer{layer}.w_original"))
            assert np.array_equal(dropped, starts[layer])
        new = join_tensors(head, records)
        assert encode_checkpoint(decode_checkpoint(old)) == new
        assert encode_checkpoint(net) == new

    def test_lora_only_bytes_unchanged(self):
        blob = encode_checkpoint(lora_only_net(41))
        assert hashlib.sha256(blob).hexdigest() == LORA_ONLY_SHA256


VALID = encode_checkpoint(mixed_net(50))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["rosa", "lora", "ia3", "full", "relu", "identity",
                       "top", "bottom", "random"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)
DELETE = object()


def spectrum_of(blob: bytes) -> tuple[int, str]:
    """Exit code and stderr of `rosa spectrum` on blob against itself."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.rsa1"
        path.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["spectrum", str(path), str(path), "--out", tmp])
    return code, err.getvalue()


def assert_clean_exit(blob: bytes) -> None:
    code, err = spectrum_of(blob)
    assert code in (0, 4)
    assert "Traceback" not in err
    if code == 4:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestFuzz:
    """Mutated files load cleanly or fail with exit 4 and one error line."""

    @settings(deadline=None, max_examples=60)
    @given(flips=st.lists(st.tuples(st.integers(0, len(VALID) - 1),
                                    st.integers(1, 255)),
                          min_size=1, max_size=4))
    def test_byte_flips(self, flips):
        blob = bytearray(VALID)
        for pos, mask in flips:
            blob[pos] ^= mask
        assert_clean_exit(bytes(blob))

    @settings(deadline=None, max_examples=30)
    @given(cut=st.integers(0, len(VALID) - 1))
    def test_truncations(self, cut):
        assert_clean_exit(VALID[:cut])

    @settings(deadline=None, max_examples=80)
    @given(layer=st.integers(0, 3),
           key=st.sampled_from([None, "kind", "rank", "scheme", "activation",
                                "steps_since_factorize"]),
           value=JSON_VALUES | st.just(DELETE))
    def test_meta_value_swaps(self, layer, key, value):
        meta = meta_of(VALID)
        if key is None:
            meta["layers"][layer] = None if value is DELETE else value
        elif value is DELETE:
            meta["layers"][layer].pop(key, None)
        else:
            meta["layers"][layer][key] = value
        assert_clean_exit(with_meta(VALID, meta))
