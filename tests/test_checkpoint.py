import contextlib
import errno
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import himerge.checkpoint as checkpoint_mod
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
    FileRecord,
    checkpoint_to_bytes,
    decode_f32,
    element_size,
    encode_record,
    fingerprint,
    write_checkpoint,
)

import reference_checkpoint
from conftest import (
    backdate,
    checkpoint_from_arrays,
    load_bytes,
    random_checkpoint,
    rewrite_in_place,
    truncate_by_one,
)


def make_file_bytes(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return struct.pack("<Q", len(blob)) + blob + data


class TestContainerFormat:
    def test_minimal_wellformed_file(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}}
        cp = load_bytes(tmp_path, make_file_bytes(header, b"\x00" * 16))
        assert cp.names == ["w"]
        assert sum(rec.size for rec in cp) == 4
        assert cp.record("w").dtype == "f32"

    def test_out_of_bounds_offsets(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}}
        with pytest.raises(FormatError, match="out-of-bounds"):
            load_bytes(tmp_path, make_file_bytes(header, b"\x00" * 8))

    def test_overlapping_regions(self, tmp_path):
        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        with pytest.raises(FormatError, match="overlapping"):
            load_bytes(tmp_path, make_file_bytes(header, b"\x00" * 12))

    def test_duplicate_header_key(self, tmp_path):
        entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
        blob = ('{"w":%s,"w":%s}' % (entry, entry)).encode()
        with pytest.raises(FormatError, match="duplicate header key 'w'"):
            load_bytes(tmp_path, struct.pack("<Q", len(blob)) + blob + b"\x00" * 4)

    @pytest.mark.parametrize(
        "offsets, size, problem",
        [
            ([[0, 4], [8, 12]], 12, "gap"),
            ([[4, 8], [8, 12]], 12, "gap"),
            ([[0, 4], [4, 8]], 9, "trailing"),
        ],
    )
    def test_data_regions_must_tile_the_data_block(self, tmp_path, offsets, size, problem):
        header = {
            name: {"dtype": "F32", "shape": [1], "data_offsets": region}
            for name, region in zip("ab", offsets)
        }
        with pytest.raises(FormatError, match=problem):
            load_bytes(tmp_path, make_file_bytes(header, b"\x00" * size))

    def test_header_length_beyond_file(self, tmp_path):
        blob = struct.pack("<Q", 1000) + b"{}"
        with pytest.raises(FormatError, match="header length"):
            load_bytes(tmp_path, blob)

    def test_truncated_length_field(self, tmp_path):
        with pytest.raises(FormatError, match="too short"):
            load_bytes(tmp_path, b"\x01\x02")

    def test_invalid_header_json(self, tmp_path):
        blob = struct.pack("<Q", 4) + b"nope"
        with pytest.raises(FormatError, match="invalid header JSON"):
            load_bytes(tmp_path, blob)

    def test_unsupported_dtype_tag(self, tmp_path):
        header = {"w": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}
        with pytest.raises(FormatError, match="'w'.*unsupported dtype"):
            load_bytes(tmp_path, make_file_bytes(header, b"\x00" * 4))

    def test_size_mismatch_reports_tensor(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
        with pytest.raises(FormatError, match="'w'"):
            load_bytes(tmp_path, make_file_bytes(header, b"\x00" * 8))

    def test_metadata_must_be_string_map(self, tmp_path):
        header = {"__metadata__": {"k": 3}}
        with pytest.raises(FormatError, match="__metadata__"):
            load_bytes(tmp_path, make_file_bytes(header, b""))

    def test_zero_extent_tensor(self, tmp_path):
        cp = checkpoint_from_arrays({"w": np.zeros((0, 3), dtype=np.float32)})
        assert sum(rec.size for rec in cp) == 0
        again = load_bytes(tmp_path, checkpoint_to_bytes(cp))
        assert again.record("w").shape == (0, 3)

    def test_empty_checkpoint_roundtrip(self, tmp_path):
        cp = Checkpoint([])
        blob = checkpoint_to_bytes(cp)
        assert load_bytes(tmp_path, blob).names == []

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

    def test_load_noncanonical_order_then_save_is_canonical(self, tmp_path):
        # Data regions deliberately stored in reverse name order.
        header = {
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
        }
        data = np.array([2.0, 1.0], dtype="<f4").tobytes()
        cp = load_bytes(tmp_path, make_file_bytes(header, data))
        assert cp.names == ["a", "b"]
        assert cp.as_f32("a")[0] == 1.0
        canon = load_bytes(tmp_path, checkpoint_to_bytes(cp))
        assert canon.as_f32("b")[0] == 2.0

    def test_duplicate_name_rejected(self):
        rec = TensorRecord("w", "f32", (1,), b"\x00" * 4)
        with pytest.raises(FormatError, match="duplicate"):
            Checkpoint([rec, rec])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.safetensors")

    def test_directory_is_reported_as_reading_it_would_report_it(self, tmp_path):
        with pytest.raises(FormatError) as exc:
            load_checkpoint(tmp_path)
        error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
        assert str(exc.value) == f"cannot read {tmp_path}: {error}"


# float32 magnitudes at the edges of bf16 rounding: zero, subnormals
# (smallest, a tie, largest), the smallest normal, ties to even in both
# directions, the largest values that round to a finite bf16 and to inf,
# the largest finite float32, and inf.
BF16_EDGE_MAGNITUDES = [
    0x00000000, 0x00000001, 0x00008000, 0x00018000, 0x007FFFFF, 0x00800000,
    0x3F808000, 0x3F818000, 0x3F800000, 0x7F7F7FFF, 0x7F7F8000, 0x7F7FFFFF,
    0x7F800000,
]


def encode(dtype: str, values: np.ndarray) -> memoryview:
    """Flat float32 ``values`` encoded in ``dtype`` by ``encode_record``."""
    ref = TensorRecord("w", dtype, values.shape, bytes(values.size * element_size(dtype)))
    return encode_record(ref, values).data


def encodes_finite(dtype: str, values: np.ndarray) -> np.ndarray:
    """Per value: not NaN, and finite once the reference encodes it."""
    encoded = decode_f32(dtype, reference_checkpoint.encode(dtype, values))
    return ~np.isnan(values) & np.isfinite(encoded)


def assert_bf16_encoding_matches_the_reference(values: np.ndarray) -> None:
    """The values that encode finite encode as the reference does; each
    other one is rejected."""
    finite = encodes_finite("bf16", values)
    ours = encode("bf16", values[finite])
    assert bytes(ours) == reference_checkpoint.f32_to_bf16(values[finite])
    for value in values[~finite]:
        with pytest.raises(CompatError):
            encode("bf16", np.array([value]))


class TestDtypes:
    @pytest.mark.parametrize("dtype", ["f16", "bf16"])
    def test_widen_narrow_roundtrip(self, dtype):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(257).astype(np.float32)
        once = decode_f32(dtype, encode(dtype, values))
        twice = decode_f32(dtype, encode(dtype, once))
        assert np.array_equal(once, twice)

    def test_f16_matches_numpy_rounding(self):
        values = np.array([1.0, 1.0009766, 3.14159, -65504.0, 1e-8], dtype=np.float32)
        ours = decode_f32("f16", encode("f16", values))
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
        out = decode_f32("bf16", encode("bf16", values))
        assert out.tolist() == [1.0, 1.0 + 2.0**-6, 1.0 + 2.0**-7]

    def test_bf16_widening_is_exact(self):
        buf = np.array([0x3F80, 0xBF80, 0x4000], dtype="<u2").tobytes()  # 1, -1, 2
        assert decode_f32("bf16", buf).tolist() == [1.0, -1.0, 2.0]

    def test_bf16_decode_of_every_bit_pattern_matches_the_reference(self):
        patterns = np.arange(1 << 16, dtype="<u2").tobytes()
        ours = decode_f32("bf16", patterns)
        expected = reference_checkpoint.bf16_to_f32(patterns)
        assert ours.dtype == np.float32 and ours.flags.writeable
        assert ours.view(np.uint32).tolist() == expected.view(np.uint32).tolist()

    def test_bf16_encode_of_float32_edge_patterns_matches_the_reference(self):
        edges = []
        for sign in (0, 0x80000000):
            for magnitude in BF16_EDGE_MAGNITUDES:
                for step in (-1, 0, 1):  # each edge and its one-ulp neighbours
                    if 0 <= magnitude + step <= 0x7F800000:
                        edges.append(sign | (magnitude + step))
        values = np.array(edges, dtype=np.uint32).view(np.float32)
        assert not encodes_finite("bf16", values).all()  # the edges past the range are here
        assert_bf16_encoding_matches_the_reference(values)

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bf16_encode_of_any_bit_pattern_matches_the_reference(self, words):
        values = np.array(words, dtype=np.uint32).view(np.float32)
        assert_bf16_encoding_matches_the_reference(values)

    def test_encoding_leaves_its_input_alone_and_does_not_alias_it(self):
        values = np.array([1.0 + 2.0**-8, -3.5, 0.0], dtype=np.float32)
        before = values.tobytes()
        encoded = {dtype: encode(dtype, values) for dtype in ("f32", "f16", "bf16")}
        assert values.tobytes() == before
        snapshot = {dtype: bytes(data) for dtype, data in encoded.items()}
        values[:] = 7.0
        for dtype, data in encoded.items():
            assert data.readonly and len(data) == values.size * element_size(dtype)
            assert bytes(data) == snapshot[dtype]

    def test_encode_record_casts_to_reference_dtype(self):
        ref = checkpoint_from_arrays({"w": [1.0, 2.0]}, dtype="f16").record("w")
        out = encode_record(ref, np.array([0.1, 0.2], dtype=np.float32))
        assert (out.name, out.dtype, out.shape) == ("w", "f16", (2,))
        expected = np.array([0.1, 0.2], dtype=np.float32).astype(np.float16).astype(np.float32)
        assert np.array_equal(out.as_f32(), expected)


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
        shape = draw(st.sampled_from([s for s in SHAPES if math.prod(s) == rec.size]))
    elif how == "word" and rec.size:
        i = draw(st.integers(0, rec.size - 1))
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
def test_fingerprint_equal_exactly_when_bytes_equal(pair):
    a, b = pair
    same_bytes = checkpoint_to_bytes(a) == checkpoint_to_bytes(b)
    event(f"same bytes: {same_bytes}")
    assert (fingerprint(a) == fingerprint(b)) == same_bytes


@settings(max_examples=200, deadline=None)
@given(checkpoint_pairs())
def test_fingerprint_equals_the_reference_tree_hash_of_the_canonical_bytes(pair):
    for cp in pair:
        assert fingerprint(cp) == reference_checkpoint.tree_hash(checkpoint_to_bytes(cp))


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
def test_fingerprint_separates_equal_data_under_another_header(first, second):
    a = Checkpoint([TensorRecord(*r) for r in first])
    b = Checkpoint([TensorRecord(*r) for r in second])
    assert b"".join(r.data for r in a) == b"".join(r.data for r in b)
    assert fingerprint(a) != fingerprint(b)


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
    # A second call reads the memo: no header is built and nothing is hashed.
    monkeypatch.setattr(hashlib, "sha256", None)
    monkeypatch.setattr(checkpoint_mod, "_header_bytes", None)
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
def test_encode_record_rejects_a_non_finite_encoding(dtype, value):
    ref = checkpoint_from_arrays({"a": [0.0], "b": [0.0, 0.0]}, dtype=dtype).record("b")
    with pytest.raises(CompatError, match=f"tensor 'b'.*{dtype}"):
        encode_record(ref, np.array([1.0, value], dtype=np.float32))
    # The largest finite values still encode.
    top = {"f16": 65504.0, "bf16": 3.3895314e38, "f32": 3.4028235e38}[dtype]
    out = encode_record(ref, np.array([top, -top], dtype=np.float32))
    assert np.isfinite(out.as_f32()).all()


# float32 bit patterns that are NaN: the quiet and signalling extremes, the
# ones whose low bits carry when rounded to bf16, and both signs of each.
NAN_PATTERNS = [
    sign | magnitude
    for sign in (0, 0x80000000)
    for magnitude in (0x7F800001, 0x7F808000, 0x7FBFFFFF, 0x7FC00000, 0x7FFF8000, 0x7FFFFFFF)
]


@pytest.mark.parametrize("dtype", ["f32", "f16", "bf16"])
def test_encode_record_rejects_every_nan_pattern(dtype):
    ref = TensorRecord("w", dtype, (2,), bytes(2 * element_size(dtype)))
    for pattern in NAN_PATTERNS:
        values = np.array([0x3F800000, pattern], dtype=np.uint32).view(np.float32)
        with pytest.raises(CompatError, match=f"tensor 'w'.*{dtype}"):
            encode_record(ref, values)


@pytest.mark.parametrize("dtype", ["f32", "f16", "bf16"])
def test_encode_record_accepts_exactly_the_values_that_encode_finite(dtype):
    """The check reads the float32 input, not the encoding: it must accept a
    non-NaN value exactly when the value's encoding is finite."""
    edges = [0x477FF000, 0x7F7F8000, 0x7F800000]  # the dtypes' first values that encode to inf
    magnitudes = [m + step for m in edges for step in range(-3, 4)]
    rng = np.random.default_rng(5)
    magnitudes += rng.integers(0, 0x7F800001, size=400).tolist()
    ref = TensorRecord("w", dtype, (1,), bytes(element_size(dtype)))
    for magnitude in magnitudes:
        for sign in (0, 0x80000000):
            value = np.array([sign | magnitude], dtype=np.uint32).view(np.float32)
            if np.isnan(value).any():
                continue
            if encodes_finite(dtype, value).all():
                assert bytes(encode_record(ref, value).data) == reference_checkpoint.encode(dtype, value)
            else:
                with pytest.raises(CompatError):
                    encode_record(ref, value)


# ---------------------------------------------------------------------------
# Loaded records read their bytes from the open file
# ---------------------------------------------------------------------------


@st.composite
def container_files(draw):
    """Container bytes with drawn records and metadata, the data regions laid
    out in a drawn order (so not always the canonical one); and the in-memory
    checkpoint of those records."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    records = draw(st.permutations([_draw_record(draw, name) for name in names]))
    metadata = draw(st.sampled_from(METADATA))
    header = {"__metadata__": metadata} if metadata else {}
    offset = 0
    for rec in records:
        wire = {"f32": "F32", "f16": "F16", "bf16": "BF16"}[rec.dtype]
        header[rec.name] = {"dtype": wire, "shape": list(rec.shape),
                            "data_offsets": [offset, offset + len(rec.data)]}
        offset += len(rec.data)
    blob = make_file_bytes(header, b"".join(rec.data for rec in records))
    return blob, Checkpoint(records, metadata)


@settings(max_examples=200, deadline=None)
@given(container_files())
def test_loaded_records_equal_the_written_ones(drawn):
    blob, parsed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cp.safetensors"
        path.write_bytes(blob)
        loaded = load_checkpoint(path)
        assert loaded.names == parsed.names
        assert dict(loaded.metadata) == dict(parsed.metadata)
        for ours, theirs in zip(loaded, parsed):
            assert isinstance(ours, FileRecord)
            assert (ours.dtype, ours.shape, ours.nbytes) == (theirs.dtype, theirs.shape, len(theirs.data))
            assert bytes(ours.data) == bytes(theirs.data)
            assert ours.digest == theirs.digest
            assert ours.as_f32().tobytes() == theirs.as_f32().tobytes()
        assert fingerprint(loaded) == fingerprint(parsed)
        again = Path(tmp) / "again.safetensors"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == checkpoint_to_bytes(parsed)


def _raw_header(text: str, data: bytes = b"") -> bytes:
    """A container of the header ``text``, which json.dumps may not write, and ``data``."""
    return struct.pack("<Q", len(text)) + text.encode() + data


def _json_error(text: str) -> str:
    """What json says of ``text`` when it cannot parse it: its wording, and
    the limits on digits and depth, move between Python versions."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("the text parses")


DEEP_HEADER = "[" * 100_000 + "]" * 100_000
LONG_INTEGER_HEADER = '{"w": {"dtype": "F32", "shape": [%s], "data_offsets": [0, 4]}}' % (
    "1" * 5000
)
# id -> (container bytes, the parse error load_checkpoint reports after the path)
MALFORMED = {
    "too-short": (b"\x01\x00", "file too short for header length field (2 bytes)"),
    "header-length": (
        struct.pack("<Q", 99) + b"{}", "malformed header length 99 exceeds file size 10"
    ),
    "json": (
        struct.pack("<Q", 2) + b"{]",
        "invalid header JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "duplicate-key": (struct.pack("<Q", 17) + b'{"a":"1","a":"2"}', "duplicate header key 'a'"),
    "nested-deep": (_raw_header(DEEP_HEADER), f"invalid header JSON: {_json_error(DEEP_HEADER)}"),
    "long-integer": (
        _raw_header(LONG_INTEGER_HEADER, bytes(4)),
        f"invalid header JSON: {_json_error(LONG_INTEGER_HEADER)}",
    ),
    "out-of-bounds": (
        make_file_bytes({"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, bytes(4)),
        "tensor 'w': out-of-bounds data region [0, 8) in 4-byte data block",
    ),
    "shape-size": (
        make_file_bytes({"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 4]}}, bytes(4)),
        "tensor 'w': shape (2,) needs 8 bytes, got 4",
    ),
    "gap": (
        make_file_bytes({"w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}, bytes(8)),
        "gap in data block: bytes [0, 4) belong to no tensor",
    ),
    "trailing": (
        make_file_bytes({"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}, bytes(6)),
        "2 trailing bytes after the last data region",
    ),
}


@pytest.mark.parametrize("blob, problem", MALFORMED.values(), ids=MALFORMED.keys())
def test_load_checkpoint_reports_the_parse_error_after_the_path(tmp_path, blob, problem):
    path = tmp_path / "bad.safetensors"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as loaded:
        load_checkpoint(path)
    assert str(loaded.value) == f"{path}: {problem}"


def _saved(tmp_path):
    """A checkpoint of a few f32 tensors and its back-dated file."""
    cp = random_checkpoint(np.random.default_rng(8), n_tensors=3, dtype="f32")
    path = tmp_path / "cp.safetensors"
    save_checkpoint(cp, path)
    backdate(path)
    return cp, path


@pytest.mark.parametrize("disturb", [truncate_by_one, rewrite_in_place])
def test_a_file_changed_after_loading_is_a_format_error_naming_it(tmp_path, disturb):
    cp, path = _saved(tmp_path)
    loaded = load_checkpoint(path)
    disturb(path)
    rec = loaded.record(cp.names[0])
    assert rec.nbytes == len(cp.record(rec.name).data)  # sizes read nothing
    with pytest.raises(FormatError, match=f"{path}: the file changed after it was loaded"):
        rec.data


def test_a_file_replaced_by_rename_keeps_the_loaded_contents(tmp_path):
    cp, path = _saved(tmp_path)
    loaded = load_checkpoint(path)
    other = tmp_path / "other.safetensors"
    save_checkpoint(random_checkpoint(np.random.default_rng(9), n_tensors=3), other)
    os.replace(other, path)
    assert checkpoint_to_bytes(loaded) == checkpoint_to_bytes(cp)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_file_closes_with_the_last_record_that_uses_it(tmp_path):
    cp, path = _saved(tmp_path)
    target = os.path.realpath(path)

    def open_descriptors():
        """Descriptors open on this test's file.  Counting all of them would
        also count those of earlier tests that garbage collection closes
        during the loop."""
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):  # closed since the listing
                count += os.readlink(f"/proc/self/fd/{fd}") == target
        return count

    for _ in range(200):
        loaded = load_checkpoint(path)
        assert fingerprint(loaded) == fingerprint(cp)
        del loaded
    assert open_descriptors() == 0

    # A record can outlive its checkpoint; the file stays open until it goes.
    loaded = load_checkpoint(path)
    rec = loaded.record(cp.names[0])
    del loaded
    assert open_descriptors() == 1
    assert bytes(rec.data) == bytes(cp.record(rec.name).data)
    del rec
    assert open_descriptors() == 0
