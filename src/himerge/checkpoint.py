"""Checkpoint container I/O, compatibility checks, and layer partitioning.

The on-disk container is the safetensors layout: an unsigned 64-bit
little-endian header length, a UTF-8 JSON header mapping tensor names to
``{"dtype", "shape", "data_offsets"}`` (offsets relative to the end of the
header), then the packed data region.  Files written here are canonical:
names serialized in lexicographic order, data packed contiguously in that
order, header JSON keys sorted, no padding.

``write_checkpoint`` streams the canonical form to a file: the header,
then each tensor's data, with no joined copy.

Two content hashes are defined on the canonical form.  ``fingerprint`` is
the sha256 of the canonical bytes, computed once per checkpoint; delta
files record it to name their base.  ``tree_key`` is, like a git tree,
the sha256 of the canonical header followed by each tensor's own sha256
(``TensorRecord.digest``, computed once per record).  Checkpoints that
share records therefore share their hashing: a candidate that differs
from its reference in one layer hashes only that layer's tensors.  Both are equal for two
checkpoints exactly when their canonical bytes are.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CompatError, ConfigError, FormatError

# dtype tag (lowercase, in-memory) -> (wire tag, element size)
_DTYPES = {"f32": ("F32", 4), "f16": ("F16", 2), "bf16": ("BF16", 2)}
_WIRE_TO_DTYPE = {wire: name for name, (wire, _) in _DTYPES.items()}

# Pseudo-layer ids for tensors outside the indexed layer stack.
PRE = "PRE"
POST = "POST"

DEFAULT_LAYER_RULE = r"\.layers\.(\d+)\."


def element_size(dtype: str) -> int:
    if dtype not in _DTYPES:
        raise FormatError(f"unsupported dtype tag {dtype!r}")
    return _DTYPES[dtype][1]


def _bf16_to_f32(buf: bytes) -> np.ndarray:
    bits = np.frombuffer(buf, dtype="<u2").astype(np.uint32) << 16
    return bits.view(np.float32)


def _f32_to_bf16(arr: np.ndarray) -> bytes:
    # Round to nearest even on the dropped 16 mantissa bits.
    bits = np.ascontiguousarray(arr, dtype="<f4").view(np.uint32)
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
    return rounded.astype("<u2").tobytes()


def decode_f32(dtype: str, data: bytes) -> np.ndarray:
    """Widen a raw little-endian element buffer to a flat float32 array."""
    if dtype == "f32":
        return np.frombuffer(data, dtype="<f4").astype(np.float32, copy=True)
    if dtype == "f16":
        return np.frombuffer(data, dtype="<f2").astype(np.float32)
    if dtype == "bf16":
        return _bf16_to_f32(data).copy()
    raise FormatError(f"unsupported dtype tag {dtype!r}")


def encode_from_f32(dtype: str, arr: np.ndarray) -> bytes:
    """Cast a float32 array to the target dtype (round-to-nearest-even).

    A value beyond the target's range becomes inf; ``checkpoint_from_f32``
    rejects that.
    """
    flat = np.ascontiguousarray(arr, dtype=np.float32).reshape(-1)
    if dtype == "f32":
        return flat.astype("<f4").tobytes()
    if dtype == "f16":
        with np.errstate(over="ignore"):
            return flat.astype("<f2").tobytes()
    if dtype == "bf16":
        return _f32_to_bf16(flat)
    raise FormatError(f"unsupported dtype tag {dtype!r}")


# dtype tag -> (raw element view, magnitude bits, bit pattern of +inf).  An
# element is finite exactly when its magnitude bits are below +inf's.
_INF_BITS = {
    "f32": ("<u4", 0x7FFFFFFF, 0x7F800000),
    "f16": ("<u2", 0x7FFF, 0x7C00),
    "bf16": ("<u2", 0x7FFF, 0x7F80),
}


def _all_finite(dtype: str, data: bytes) -> bool:
    view, magnitude, inf = _INF_BITS[dtype]
    bits = np.frombuffer(data, dtype=view)
    return bits.size == 0 or int((bits & magnitude).max()) < inf


@dataclass(frozen=True)
class TensorRecord:
    """One named tensor: dtype tag, shape, and raw little-endian data."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    data: bytes

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if any(s < 0 for s in self.shape):
            raise FormatError(f"tensor {self.name!r}: negative shape extent {self.shape}")
        expected = self.numel * element_size(self.dtype)
        if expected != len(self.data):
            raise FormatError(
                f"tensor {self.name!r}: shape {self.shape} needs {expected} bytes, "
                f"got {len(self.data)}"
            )

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def digest(self) -> bytes:
        """sha256 of ``data``, computed on first use; the record is immutable.

        A plain attribute, not ``functools.cached_property``, which on
        Python 3.11 takes one lock per class and so would serialize hashing
        across threads.  Two threads may both compute it; they store the
        same value.
        """
        try:
            return self._digest
        except AttributeError:
            digest = hashlib.sha256(self.data).digest()
            object.__setattr__(self, "_digest", digest)
            return digest

    def as_f32(self) -> np.ndarray:
        """Tensor contents widened to float32, in the declared shape."""
        return decode_f32(self.dtype, self.data).reshape(self.shape)


class Checkpoint:
    """An immutable named tensor collection in canonical (lexicographic) order."""

    def __init__(self, records, metadata: dict[str, str] | None = None):
        by_name: dict[str, TensorRecord] = {}
        for rec in records:
            if rec.name in by_name:
                raise FormatError(f"duplicate tensor name {rec.name!r}")
            by_name[rec.name] = rec
        self._records = {name: by_name[name] for name in sorted(by_name)}
        self._metadata = types.MappingProxyType(dict(metadata) if metadata else {})
        self._fingerprint: str | None = None  # set by fingerprint()

    @property
    def metadata(self) -> types.MappingProxyType:
        """The string-to-string header metadata, read-only."""
        return self._metadata

    @property
    def names(self) -> list[str]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self):
        return iter(self._records.values())

    def record(self, name: str) -> TensorRecord:
        try:
            return self._records[name]
        except KeyError:
            raise FormatError(f"no tensor named {name!r}") from None

    def as_f32(self, name: str) -> np.ndarray:
        return self.record(name).as_f32()

    @property
    def num_params(self) -> int:
        return sum(rec.numel for rec in self)


def checkpoint_from_f32(
    arrays: dict[str, np.ndarray],
    like: Checkpoint,
    metadata: dict[str, str] | None = None,
) -> Checkpoint:
    """Build a checkpoint from float32 arrays, casting to ``like``'s dtypes.

    Any name absent from ``arrays`` is copied from ``like`` unchanged.  An
    encoded tensor holding a NaN or inf (a value beyond the dtype's range,
    say) is a CompatError naming it.
    """
    records = []
    for name in like.names:
        ref = like.record(name)
        if name in arrays:
            arr = arrays[name]
            if tuple(arr.shape) != ref.shape:
                raise CompatError(
                    f"tensor {name!r}: array shape {tuple(arr.shape)} != {ref.shape}"
                )
            data = encode_from_f32(ref.dtype, arr)
            if not _all_finite(ref.dtype, data):
                raise CompatError(
                    f"tensor {name!r}: a value is NaN, inf or beyond the {ref.dtype} range"
                )
            records.append(TensorRecord(name, ref.dtype, ref.shape, data))
        else:
            records.append(ref)
    extra = sorted(set(arrays) - set(like.names))
    if extra:
        raise CompatError(f"arrays for unknown tensors: {extra[:5]}")
    return Checkpoint(records, metadata if metadata is not None else like.metadata)


# ---------------------------------------------------------------------------
# Container serialization
# ---------------------------------------------------------------------------


def _header_bytes(cp: Checkpoint) -> bytes:
    """The canonical container prefix: header length, then header JSON."""
    header: dict[str, object] = {}
    if cp.metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in cp.metadata.items()}
    offset = 0
    for rec in cp:
        end = offset + len(rec.data)
        header[rec.name] = {
            "dtype": _DTYPES[rec.dtype][0],
            "shape": list(rec.shape),
            "data_offsets": [offset, end],
        }
        offset = end
    header_json = json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return struct.pack("<Q", len(header_json)) + header_json


def _chunks(cp: Checkpoint):
    """The canonical container bytes, as the header then each tensor's data."""
    yield _header_bytes(cp)
    for rec in cp:
        yield rec.data


def write_checkpoint(cp: Checkpoint, fh) -> None:
    """Write the canonical container to a binary file, chunk by chunk."""
    for chunk in _chunks(cp):
        fh.write(chunk)


def checkpoint_to_bytes(cp: Checkpoint) -> bytes:
    return b"".join(_chunks(cp))


def _unique_keys(pairs: list) -> dict:
    """json object hook: a header that names a key twice is malformed."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"duplicate header key {key!r}")
        obj[key] = value
    return obj


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    if len(blob) < 8:
        raise FormatError(f"file too short for header length field ({len(blob)} bytes)")
    (header_len,) = struct.unpack_from("<Q", blob)
    if 8 + header_len > len(blob):
        raise FormatError(
            f"malformed header length {header_len} exceeds file size {len(blob)}"
        )
    try:
        header = json.loads(
            blob[8 : 8 + header_len].decode("utf-8"), object_pairs_hook=_unique_keys
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header JSON is not an object")

    metadata = header.pop("__metadata__", None)
    if metadata is not None:
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
        ):
            raise FormatError("__metadata__ must be a string-to-string map")

    data = blob[8 + header_len :]
    records = []
    regions = []
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise FormatError(f"tensor {name!r}: header entry is not an object")
        wire = entry.get("dtype")
        if wire not in _WIRE_TO_DTYPE:
            raise FormatError(f"tensor {name!r}: unsupported dtype tag {wire!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise FormatError(f"tensor {name!r}: invalid shape {shape!r}")
        offsets = entry.get("data_offsets")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise FormatError(f"tensor {name!r}: invalid data_offsets {offsets!r}")
        begin, end = offsets
        if not (0 <= begin <= end <= len(data)):
            raise FormatError(
                f"tensor {name!r}: out-of-bounds data region [{begin}, {end}) "
                f"in {len(data)}-byte data block"
            )
        records.append(TensorRecord(name, _WIRE_TO_DTYPE[wire], tuple(shape), data[begin:end]))
        if end > begin:
            regions.append((begin, end, name))

    # The non-empty regions must tile the data block exactly.
    regions.sort()
    prev = (0, 0, None)
    for b2, e2, n2 in regions:
        b1, e1, n1 = prev
        if b2 < e1:
            raise FormatError(
                f"overlapping data regions: {n1!r} [{b1}, {e1}) and {n2!r} [{b2}, {e2})"
            )
        if b2 > e1:
            raise FormatError(f"gap in data block: bytes [{e1}, {b2}) belong to no tensor")
        prev = (b2, e2, n2)
    if prev[1] != len(data):
        raise FormatError(f"{len(data) - prev[1]} trailing bytes after the last data region")
    return Checkpoint(records, metadata)


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return checkpoint_from_bytes(blob)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_checkpoint(cp: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        write_checkpoint(cp, fh)


def fingerprint(cp: Checkpoint) -> str:
    """sha256 of the canonical serialized bytes, hashed as a stream on the
    first call and then kept on the (immutable) checkpoint."""
    if cp._fingerprint is None:
        h = hashlib.sha256()
        for chunk in _chunks(cp):
            h.update(chunk)
        cp._fingerprint = h.hexdigest()
    return cp._fingerprint


def tree_key(cp: Checkpoint) -> str:
    """sha256 of the canonical header followed by every record's digest."""
    h = hashlib.sha256(_header_bytes(cp))
    for rec in cp:
        h.update(rec.digest)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------


def validate_compat(a: Checkpoint, b: Checkpoint) -> None:
    """Check that two checkpoints share names, shapes, and dtypes."""
    names_a, names_b = set(a.names), set(b.names)
    if names_a != names_b:
        only_a = sorted(names_a - names_b)
        only_b = sorted(names_b - names_a)
        raise CompatError(
            f"tensor name sets differ: only in first {only_a[:8]}, "
            f"only in second {only_b[:8]}"
        )
    for name in a.names:
        ra, rb = a.record(name), b.record(name)
        if ra.shape != rb.shape:
            raise CompatError(
                f"tensor {name!r}: shape mismatch {ra.shape} vs {rb.shape}"
            )
        if ra.dtype != rb.dtype:
            raise CompatError(
                f"tensor {name!r}: dtype mismatch {ra.dtype} vs {rb.dtype}"
            )


# ---------------------------------------------------------------------------
# Layer partitioning
# ---------------------------------------------------------------------------


@dataclass
class LayerPartition:
    """Total assignment of tensor names to layer ids (PRE, 0..L-1, POST)."""

    rule: str
    assignment: dict[str, object]
    num_layers: int
    _by_layer: dict[object, list[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        by_layer: dict[object, list[str]] = {}
        for name in sorted(self.assignment):
            by_layer.setdefault(self.assignment[name], []).append(name)
        self._by_layer = by_layer

    def layer_of(self, name: str):
        return self.assignment[name]

    def names_in(self, layer) -> list[str]:
        return list(self._by_layer.get(layer, []))

    def transformer_layers(self) -> list[int]:
        return list(range(self.num_layers))

    def all_layers(self) -> list:
        layers: list = []
        if self._by_layer.get(PRE):
            layers.append(PRE)
        layers.extend(range(self.num_layers))
        if self._by_layer.get(POST):
            layers.append(POST)
        return layers


def partition_layers(cp: Checkpoint, rule: str = DEFAULT_LAYER_RULE) -> LayerPartition:
    """Assign every tensor to a layer via the rule's single integer capture.

    Non-matching names go to PRE if they sort before the first matching name
    (or when nothing matches), else POST.
    """
    try:
        pattern = re.compile(rule)
    except re.error as exc:
        raise ConfigError(f"invalid layer rule {rule!r}: {exc}") from exc
    if pattern.groups != 1:
        raise ConfigError(
            f"layer rule {rule!r} must have exactly one capture group, has {pattern.groups}"
        )

    names = cp.names
    captured: dict[str, int] = {}
    for name in names:
        m = pattern.search(name)
        if m is None:
            continue
        try:
            captured[name] = int(m.group(1))
        except ValueError:
            raise ConfigError(
                f"layer rule {rule!r} captured non-integer {m.group(1)!r} on {name!r}"
            ) from None

    first_match = next((i for i, n in enumerate(names) if n in captured), None)
    assignment: dict[str, object] = {}
    for i, name in enumerate(names):
        if name in captured:
            assignment[name] = captured[name]
        elif first_match is None or i < first_match:
            assignment[name] = PRE
        else:
            assignment[name] = POST
    num_layers = 1 + max(captured.values()) if captured else 0
    return LayerPartition(rule=rule, assignment=assignment, num_layers=num_layers)
