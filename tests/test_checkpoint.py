import hashlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from himerge import (
    PRE,
    POST,
    Checkpoint,
    CompatError,
    ConfigError,
    FormatError,
    TensorRecord,
    load_checkpoint,
    partition_layers,
    save_checkpoint,
    validate_compat,
)
from himerge.checkpoint import (
    checkpoint_from_bytes,
    checkpoint_from_f32,
    checkpoint_to_bytes,
    decode_f32,
    element_size,
    encode_from_f32,
    fingerprint,
    tree_key,
    write_checkpoint,
)

from conftest import checkpoint_from_arrays, random_checkpoint


def make_file_bytes(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return struct.pack("<Q", len(blob)) + blob + data


class TestContainerFormat:
    def test_minimal_wellformed_file(self):
        header = {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}}
        cp = checkpoint_from_bytes(make_file_bytes(header, b"\x00" * 16))
        assert cp.names == ["w"]
        assert cp.num_params == 4
        assert cp.record("w").dtype == "f32"

    def test_out_of_bounds_offsets(self):
        header = {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}}
        with pytest.raises(FormatError, match="out-of-bounds"):
            checkpoint_from_bytes(make_file_bytes(header, b"\x00" * 8))

    def test_overlapping_regions(self):
        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        with pytest.raises(FormatError, match="overlapping"):
            checkpoint_from_bytes(make_file_bytes(header, b"\x00" * 12))

    def test_duplicate_header_key(self):
        entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
        blob = ('{"w":%s,"w":%s}' % (entry, entry)).encode()
        with pytest.raises(FormatError, match="duplicate header key 'w'"):
            checkpoint_from_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 4)

    @pytest.mark.parametrize(
        "offsets, size, problem",
        [
            ([[0, 4], [8, 12]], 12, "gap"),
            ([[4, 8], [8, 12]], 12, "gap"),
            ([[0, 4], [4, 8]], 9, "trailing"),
        ],
    )
    def test_data_regions_must_tile_the_data_block(self, offsets, size, problem):
        header = {
            name: {"dtype": "F32", "shape": [1], "data_offsets": region}
            for name, region in zip("ab", offsets)
        }
        with pytest.raises(FormatError, match=problem):
            checkpoint_from_bytes(make_file_bytes(header, b"\x00" * size))

    def test_header_length_beyond_file(self):
        blob = struct.pack("<Q", 1000) + b"{}"
        with pytest.raises(FormatError, match="header length"):
            checkpoint_from_bytes(blob)

    def test_truncated_length_field(self):
        with pytest.raises(FormatError, match="too short"):
            checkpoint_from_bytes(b"\x01\x02")

    def test_invalid_header_json(self):
        blob = struct.pack("<Q", 4) + b"nope"
        with pytest.raises(FormatError, match="invalid header JSON"):
            checkpoint_from_bytes(blob)

    def test_unsupported_dtype_tag(self):
        header = {"w": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}
        with pytest.raises(FormatError, match="'w'.*unsupported dtype"):
            checkpoint_from_bytes(make_file_bytes(header, b"\x00" * 4))

    def test_size_mismatch_reports_tensor(self):
        header = {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
        with pytest.raises(FormatError, match="'w'"):
            checkpoint_from_bytes(make_file_bytes(header, b"\x00" * 8))

    def test_metadata_must_be_string_map(self):
        header = {"__metadata__": {"k": 3}}
        with pytest.raises(FormatError, match="__metadata__"):
            checkpoint_from_bytes(make_file_bytes(header, b""))

    def test_zero_extent_tensor(self):
        cp = checkpoint_from_arrays({"w": np.zeros((0, 3), dtype=np.float32)})
        assert cp.num_params == 0
        again = checkpoint_from_bytes(checkpoint_to_bytes(cp))
        assert again.record("w").shape == (0, 3)

    def test_empty_checkpoint_roundtrip(self):
        cp = Checkpoint([])
        blob = checkpoint_to_bytes(cp)
        assert checkpoint_from_bytes(blob).names == []

    def test_canonical_order_on_save(self):
        cp = checkpoint_from_arrays({"b": [1.0], "a": [2.0]})
        blob = checkpoint_to_bytes(cp)
        header_len = struct.unpack_from("<Q", blob)[0]
        header = json.loads(blob[8 : 8 + header_len])
        assert list(header) == ["a", "b"]
        assert header["a"]["data_offsets"][0] == 0

    def test_structurally_equal_checkpoints_serialize_identically(self):
        a = checkpoint_from_arrays({"x": [1.5, -2.0], "y": [[0.25]]}, metadata={"m": "1"})
        b = checkpoint_from_arrays({"y": [[0.25]], "x": [1.5, -2.0]}, metadata={"m": "1"})
        assert checkpoint_to_bytes(a) == checkpoint_to_bytes(b)

    def test_roundtrip_random_checkpoints(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(25):
            cp = random_checkpoint(rng, n_tensors=int(rng.integers(0, 6)))
            path = tmp_path / f"cp{i}.safetensors"
            save_checkpoint(cp, path)
            first = path.read_bytes()
            save_checkpoint(load_checkpoint(path), path)
            assert path.read_bytes() == first

    def test_load_noncanonical_order_then_save_is_canonical(self):
        # Data regions deliberately stored in reverse name order.
        header = {
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
        }
        data = np.array([2.0, 1.0], dtype="<f4").tobytes()
        cp = checkpoint_from_bytes(make_file_bytes(header, data))
        assert cp.names == ["a", "b"]
        assert cp.as_f32("a")[0] == 1.0
        canon = checkpoint_from_bytes(checkpoint_to_bytes(cp))
        assert canon.as_f32("b")[0] == 2.0

    def test_duplicate_name_rejected(self):
        rec = TensorRecord("w", "f32", (1,), b"\x00" * 4)
        with pytest.raises(FormatError, match="duplicate"):
            Checkpoint([rec, rec])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.safetensors")


class TestDtypes:
    @pytest.mark.parametrize("dtype", ["f16", "bf16"])
    def test_widen_narrow_roundtrip(self, dtype):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(257).astype(np.float32)
        once = decode_f32(dtype, encode_from_f32(dtype, values))
        twice = decode_f32(dtype, encode_from_f32(dtype, once))
        assert np.array_equal(once, twice)

    def test_f16_matches_numpy_rounding(self):
        values = np.array([1.0, 1.0009766, 3.14159, -65504.0, 1e-8], dtype=np.float32)
        ours = decode_f32("f16", encode_from_f32("f16", values))
        numpy_ref = values.astype(np.float16).astype(np.float32)
        assert np.array_equal(ours, numpy_ref)

    def test_bf16_round_to_nearest_even(self):
        # bf16 ulp in [1, 2) is 2^-7.  1 + 2^-8 ties between 1.0 (even
        # significand) and 1 + 2^-7 (odd) and must go to 1.0; 1 + 3*2^-8
        # ties between 1 + 2^-7 (odd) and 1 + 2^-6 (even) and must go up;
        # 1 + 3*2^-9 is closer to 1 + 2^-7 and rounds there.
        values = np.array(
            [1.0 + 2.0**-8, 1.0 + 3 * 2.0**-8, 1.0 + 3 * 2.0**-9], dtype=np.float32
        )
        out = decode_f32("bf16", encode_from_f32("bf16", values))
        assert out.tolist() == [1.0, 1.0 + 2.0**-6, 1.0 + 2.0**-7]

    def test_bf16_widening_is_exact(self):
        buf = np.array([0x3F80, 0xBF80, 0x4000], dtype="<u2").tobytes()  # 1, -1, 2
        assert decode_f32("bf16", buf).tolist() == [1.0, -1.0, 2.0]

    def test_checkpoint_from_f32_casts_to_reference_dtype(self):
        ref = checkpoint_from_arrays({"w": [1.0, 2.0]}, dtype="f16")
        out = checkpoint_from_f32({"w": np.array([0.1, 0.2], dtype=np.float32)}, like=ref)
        assert out.record("w").dtype == "f16"
        expected = np.array([0.1, 0.2], dtype=np.float32).astype(np.float16).astype(np.float32)
        assert np.array_equal(out.as_f32("w"), expected)


class TestValidateCompat:
    def test_identical_ok(self):
        rng = np.random.default_rng(0)
        cp = random_checkpoint(rng)
        validate_compat(cp, cp)

    def test_extra_tensor_listed(self):
        a = checkpoint_from_arrays({"w": [1.0], "lm_head.weight": [1.0]})
        b = checkpoint_from_arrays({"w": [1.0]})
        with pytest.raises(CompatError, match="lm_head.weight"):
            validate_compat(a, b)

    def test_shape_mismatch(self):
        a = checkpoint_from_arrays({"w": np.zeros(4)})
        b = checkpoint_from_arrays({"w": np.zeros((2, 2))})
        with pytest.raises(CompatError, match="shape mismatch"):
            validate_compat(a, b)

    def test_dtype_mismatch(self):
        a = checkpoint_from_arrays({"w": [1.0]}, dtype="f32")
        b = checkpoint_from_arrays({"w": [1.0]}, dtype="f16")
        with pytest.raises(CompatError, match="dtype mismatch"):
            validate_compat(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_checkpoint(rng, n_tensors=3)
            b = random_checkpoint(rng, n_tensors=int(rng.integers(2, 5)))
            results = []
            for left, right in ((a, b), (b, a)):
                try:
                    validate_compat(left, right)
                    results.append(True)
                except CompatError:
                    results.append(False)
            assert results[0] == results[1]


class TestPartition:
    def test_default_rule(self):
        cp = checkpoint_from_arrays(
            {"model.layers.0.q": [1.0], "model.layers.1.q": [1.0], "model.embed": [1.0]}
        )
        part = partition_layers(cp)
        assert part.assignment == {
            "model.layers.0.q": 0,
            "model.layers.1.q": 1,
            "model.embed": PRE,
        }
        assert part.num_layers == 2

    def test_no_matches(self):
        cp = checkpoint_from_arrays({"alpha": [1.0], "beta": [1.0]})
        part = partition_layers(cp)
        assert part.num_layers == 0
        assert set(part.assignment.values()) <= {PRE, POST}

    def test_gap_in_indices(self):
        cp = checkpoint_from_arrays(
            {"m.layers.0.w": [1.0], "m.layers.2.w": [1.0]}
        )
        part = partition_layers(cp)
        assert part.num_layers == 3
        assert part.names_in(1) == []

    def test_pre_and_post_assignment(self):
        cp = checkpoint_from_arrays(
            {
                "a.embed": [1.0],
                "m.layers.0.w": [1.0],
                "m.norm": [1.0],
            }
        )
        part = partition_layers(cp)
        assert part.layer_of("a.embed") == PRE
        assert part.layer_of("m.norm") == POST

    def test_totality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cp = random_checkpoint(rng, n_tensors=int(rng.integers(0, 6)))
            part = partition_layers(cp)
            assert set(part.assignment) == set(cp.names)

    def test_rule_must_have_one_capture(self):
        cp = checkpoint_from_arrays({"w": [1.0]})
        with pytest.raises(ConfigError, match="capture"):
            partition_layers(cp, r"layers\.\d+")
        with pytest.raises(ConfigError, match="capture"):
            partition_layers(cp, r"(\w+)\.(\d+)")

    def test_non_integer_capture(self):
        cp = checkpoint_from_arrays({"m.layers.x.w": [1.0]})
        with pytest.raises(ConfigError, match="non-integer"):
            partition_layers(cp, r"\.layers\.(\w+)\.")


def test_fingerprint_distinguishes_content():
    a = checkpoint_from_arrays({"w": [1.0]})
    b = checkpoint_from_arrays({"w": [1.0 + 2**-10]})
    assert fingerprint(a) != fingerprint(b)
    assert fingerprint(a) == fingerprint(checkpoint_from_arrays({"w": [1.0]}))


# Small alphabets, so two independently drawn parts often coincide.
NAMES = ["a", "b", "m.layers.0.w"]
SHAPES = [(), (0,), (1,), (2,), (6,), (2, 3), (3, 2)]
# Little-endian +0.0, -0.0 and a non-zero value for each element size.
WORDS = {2: [b"\x00\x00", b"\x00\x80", b"\x80\x3f"], 4: [b"\0\0\0\0", b"\0\0\0\x80", b"\0\0\x80\x3f"]}
METADATA = [None, {"k": "v"}, {"k": "w"}, {"k": "v", "z": ""}]


def _draw_record(draw, name, dtype=None, shape=None):
    dtype = dtype or draw(st.sampled_from(["f32", "f16", "bf16"]))
    shape = shape if shape is not None else draw(st.sampled_from(SHAPES))
    n = math.prod(shape)
    words = draw(st.lists(st.sampled_from(WORDS[element_size(dtype)]), min_size=n, max_size=n))
    return TensorRecord(name, dtype, shape, b"".join(words))


def _variant(draw, rec: TensorRecord, free_names: list[str]):
    """A record derived from ``rec``: shared, rebuilt, or changed in one part."""
    how = draw(st.sampled_from(["share", "rebuild", "retag", "reshape", "word", "rename", "redraw"]))
    name, dtype, shape, data = rec.name, rec.dtype, rec.shape, rec.data
    if how == "share":
        return rec
    if how == "retag":  # the same bytes under another tag of the same width
        dtype = draw(st.sampled_from([d for d in ("f32", "f16", "bf16")
                                      if element_size(d) == element_size(dtype)]))
    elif how == "reshape":  # the same bytes under another shape
        shape = draw(st.sampled_from([s for s in SHAPES if math.prod(s) == rec.numel]))
    elif how == "word" and rec.numel:
        i = draw(st.integers(0, rec.numel - 1))
        size = element_size(dtype)
        word = draw(st.sampled_from(WORDS[size]))
        data = data[: i * size] + word + data[(i + 1) * size :]
    elif how == "rename" and free_names:
        name = draw(st.sampled_from(free_names))
        free_names.remove(name)
    elif how == "redraw":
        return _draw_record(draw, name)
    return TensorRecord(name, dtype, shape, data)  # a new record: its digest is not memoized


@st.composite
def checkpoint_pairs(draw):
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    first = [_draw_record(draw, name) for name in names]
    free = [n for n in NAMES if n not in names]
    second = [_variant(draw, rec, free) for rec in first if draw(st.integers(0, 7))]
    meta_a = draw(st.sampled_from(METADATA))
    meta_b = draw(st.sampled_from([meta_a, *METADATA]))
    return Checkpoint(first, meta_a), Checkpoint(second, meta_b)


@settings(max_examples=400, deadline=None)
@given(checkpoint_pairs())
def test_tree_key_equal_exactly_when_bytes_equal(pair):
    a, b = pair
    same_bytes = checkpoint_to_bytes(a) == checkpoint_to_bytes(b)
    event(f"same bytes: {same_bytes}")
    assert (tree_key(a) == tree_key(b)) == same_bytes
    assert (fingerprint(a) == fingerprint(b)) == same_bytes


@settings(max_examples=200, deadline=None)
@given(checkpoint_pairs())
def test_fingerprint_hashes_the_canonical_bytes(pair):
    for cp in pair:
        assert fingerprint(cp) == hashlib.sha256(checkpoint_to_bytes(cp)).hexdigest()


@pytest.mark.parametrize(
    "first, second",
    [
        ([("w", "f16", (2,), b"\x00\x80\x80\x3f")], [("w", "bf16", (2,), b"\x00\x80\x80\x3f")]),
        ([("w", "f32", (2, 3), bytes(24))], [("w", "f32", (3, 2), bytes(24))]),
        # One data block, split at another tensor boundary.
        ([("a", "f32", (1,), bytes(4)), ("b", "f32", (2,), bytes(8))],
         [("a", "f32", (2,), bytes(8)), ("b", "f32", (1,), bytes(4))]),
    ],
    ids=["f16-vs-bf16", "2x3-vs-3x2", "moved-boundary"],
)
def test_tree_key_separates_equal_data_under_another_header(first, second):
    a = Checkpoint([TensorRecord(*r) for r in first])
    b = Checkpoint([TensorRecord(*r) for r in second])
    assert b"".join(r.data for r in a) == b"".join(r.data for r in b)
    assert tree_key(a) != tree_key(b)


def test_tensor_record_is_immutable_and_digests_its_data():
    rec = TensorRecord("w", "f32", [2], bytes(8))
    assert rec.shape == (2,)
    with pytest.raises(AttributeError):
        rec.data = bytes(8)
    assert rec.digest == hashlib.sha256(bytes(8)).digest()
    assert rec.digest is rec.digest


def test_fingerprint_is_hashed_once_per_checkpoint(monkeypatch):
    cp = checkpoint_from_arrays({"w": [1.0, 2.0]}, metadata={"m": "1"})
    first = fingerprint(cp)
    # A second call reads the memo; it hashes nothing.
    monkeypatch.setattr(hashlib, "sha256", None)
    assert fingerprint(cp) == first
    # The memo cannot go stale: the metadata is read-only.
    with pytest.raises(TypeError):
        cp.metadata["m"] = "2"
    with pytest.raises(AttributeError):
        cp.metadata = {"m": "2"}
    assert dict(cp.metadata) == {"m": "1"}


@settings(max_examples=100, deadline=None)
@given(checkpoint_pairs())
def test_write_checkpoint_streams_the_canonical_bytes(pair):
    for cp in pair:
        fh = io.BytesIO()
        write_checkpoint(cp, fh)
        assert fh.getvalue() == checkpoint_to_bytes(cp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dtype, value",
    [("f16", 65520.0), ("f16", -70000.0), ("bf16", 3.4e38), ("f32", np.inf), ("bf16", np.nan)],
)
def test_checkpoint_from_f32_rejects_a_non_finite_encoding(dtype, value):
    like = checkpoint_from_arrays({"a": [0.0], "b": [0.0, 0.0]}, dtype=dtype)
    arrays = {"b": np.array([1.0, value], dtype=np.float32)}
    with pytest.raises(CompatError, match=f"tensor 'b'.*{dtype}"):
        checkpoint_from_f32(arrays, like)
    # The largest finite values still encode.
    top = {"f16": 65504.0, "bf16": 3.3895314e38, "f32": 3.4028235e38}[dtype]
    out = checkpoint_from_f32({"b": np.array([top, -top], dtype=np.float32)}, like)
    assert np.isfinite(out.as_f32("b")).all()
