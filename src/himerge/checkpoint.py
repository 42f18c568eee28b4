"""Checkpoint container I/O, compatibility checks, and layer partitioning.

The on-disk container is the safetensors layout: an unsigned 64-bit
little-endian header length, a UTF-8 JSON header mapping tensor names to
``{"dtype", "shape", "data_offsets"}`` (offsets relative to the end of the
header), then the packed data region.  Files written here are canonical:
names serialized in lexicographic order, data packed contiguously in that
order, header JSON keys sorted, no padding.

``write_checkpoint`` streams the canonical form to a file: the header,
then each tensor's data, with no joined copy.  ``save_checkpoint`` writes
through ``atomic_open``, so a failed save leaves no partial file.
``load_checkpoint`` reads and checks only the header and keeps the file
open: each of its records holds a byte range of the file, and each use of
its ``data`` reads that range again into a fresh buffer (from the page
cache, not the process's own memory); an f32 record's ``as_f32`` reads it
straight into the fresh array.  Both go through one read loop.  A file
changed in place after the load is a FormatError at the next read; one
replaced by a rename is harmless, since the open descriptor keeps the old
contents.

One content hash names a checkpoint: ``fingerprint`` is, like a git tree,
the sha256 of the canonical header followed by each tensor's own sha256
(``TensorRecord.digest``, computed once per record).  It keys the
evaluation cache, and delta files record their base's.  Checkpoints that
share records therefore share their hashing: a candidate that differs from
its reference in one layer hashes only that layer's tensors, and a base
whose delta was computed is not hashed again when it is scored.  Two
checkpoints' fingerprints are equal exactly when their canonical bytes
are, and it is memoized on the immutable ``Checkpoint``: a reference or a
candidate scored many times is hashed once.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import functools
import hashlib
import json
import math
import os
import re
import secrets
import stat
import struct
import types
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CompatError, ConfigError, FormatError

# dtype tag (lowercase, in-memory) -> its row: the wire tag, the element
# size, the little-endian numpy element type (None for bf16, which numpy
# lacks) and the least float32 magnitude that encodes to inf (the midpoint
# above the largest finite value, which rounds up, to even), from its bits.
_DType = collections.namedtuple("_DType", "wire size numpy inf_limit")
_DTYPES = {
    "f32": _DType("F32", 4, "<f4", np.uint32(0x7F800000).view(np.float32)),
    "f16": _DType("F16", 2, "<f2", np.uint32(0x477FF000).view(np.float32)),
    "bf16": _DType("BF16", 2, None, np.uint32(0x7F7F8000).view(np.float32)),
}
_WIRE_TO_DTYPE = {row.wire: name for name, row in _DTYPES.items()}

# Pseudo-layer ids for tensors outside the indexed layer stack.
PRE = "PRE"
POST = "POST"

DEFAULT_LAYER_RULE = r"\.layers\.(\d+)\."


def _row(dtype: str) -> _DType:
    if dtype not in _DTYPES:
        raise FormatError(f"unsupported dtype tag {dtype!r}")
    return _DTYPES[dtype]


def element_size(dtype: str) -> int:
    return _row(dtype).size


def _bf16_to_f32(buf) -> np.ndarray:
    bits = np.frombuffer(buf, dtype="<u2").astype(np.uint32)
    bits <<= 16
    return bits.view(np.float32)


def _f32_to_bf16(flat: np.ndarray) -> np.ndarray:
    """Round contiguous float32 values to bf16 bit patterns, to nearest even
    on the dropped 16 mantissa bits, in one uint32 temporary."""
    bits = flat.view("<u4")
    rounded = bits >> 16
    rounded &= 1
    rounded += 0x7FFF
    rounded += bits
    rounded >>= 16
    return rounded.astype("<u2")


def array_bytes(arr: np.ndarray) -> memoryview:
    """A read-only byte view of a C-contiguous array's data; it keeps the
    array alive, and the array must not change while the view is in use."""
    return memoryview(arr.reshape(-1).view(np.uint8)).toreadonly()


def decode_f32(dtype: str, data) -> np.ndarray:
    """Widen a raw little-endian element buffer to a fresh, flat float32 array."""
    element = _row(dtype).numpy
    return _bf16_to_f32(data) if element is None else np.frombuffer(data, element).astype("f4")


def _encodes_finite(dtype: str, arr: np.ndarray) -> bool:
    """Whether every value of a float32 array encodes to a finite value in
    ``dtype``: the one finiteness rule, for encoded records and computed
    deltas.  It checks the input, so no NaN can slip through a wrapped
    encoding.  A NaN fails both comparisons, and no temporary is made."""
    limit = _DTYPES[dtype].inf_limit
    return arr.size == 0 or bool(-limit < arr.min() and arr.max() < limit)


@dataclass(frozen=True)
class TensorRecord:
    """One named tensor: dtype tag, shape, and raw little-endian data.

    ``data`` is ``bytes`` or a read-only byte ``memoryview`` (an encoded
    record views its fresh array).  ``FileRecord``, a loaded record, reads
    it from its file into a fresh buffer on each use instead.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]
    data: bytes | memoryview
    # The size of ``data``, from the shape and dtype: it reads nothing.
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        if min(self.shape, default=0) < 0:
            raise FormatError(f"tensor {self.name!r}: negative shape extent {self.shape}")
        object.__setattr__(self, "nbytes", self.size * element_size(self.dtype))
        if self.nbytes != len(self.data):
            raise FormatError(
                f"tensor {self.name!r}: shape {self.shape} needs {self.nbytes} bytes, "
                f"got {len(self.data)}"
            )

    @property
    def size(self) -> int:
        """The element count, under numpy's name."""
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


class _FileSource:
    """An input file held open for the records loaded from it.

    The descriptor is closed when the last record that uses it is gone:
    records can outlive their ``Checkpoint``.  Reads are ``os.preadv`` at
    an offset, so pool threads may read at once.
    """

    def __init__(self, path: Path):
        self.path = path
        # O_NONBLOCK: opening a FIFO would otherwise wait for a writer.
        self.fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        weakref.finalize(self, os.close, self.fd)
        st = os.fstat(self.fd)
        if stat.S_ISDIR(st.st_mode):  # os.open takes a directory; reading it would fail
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not stat.S_ISREG(st.st_mode):  # a FIFO, socket or device has no fixed size
            raise OSError(errno.EINVAL, "not a regular file")
        self.size = st.st_size
        self._stamp = (st.st_size, st.st_mtime_ns)

    def read(self, offset: int, length: int) -> memoryview:
        """``length`` bytes at ``offset``, read afresh into a new buffer: a
        read-only view of it."""
        buf = np.empty(length, np.uint8)  # not bytearray, which zero-fills
        self.read_into(memoryview(buf), offset)
        return memoryview(buf).toreadonly()

    def read_into(self, buf: memoryview, offset: int) -> None:
        """Fill the writable byte view ``buf`` with the bytes at ``offset``,
        read afresh, with no intermediate copy.  A file whose size or mtime
        differs from the load's, a short read or an OSError is a FormatError
        naming the file."""
        done, length = 0, len(buf)
        try:
            st = os.fstat(self.fd)
            if (st.st_size, st.st_mtime_ns) != self._stamp:
                raise FormatError(f"{self.path}: the file changed after it was loaded")
            while done < length:  # one read returns at most about 2 GiB
                count = os.preadv(self.fd, [buf[done:]], offset + done)
                if not count:
                    raise FormatError(
                        f"{self.path}: short read: {done} of {length} bytes at offset {offset}"
                    )
                done += count
        except OSError as exc:
            raise FormatError(f"cannot read {self.path}: {exc}") from exc


class FileRecord(TensorRecord):
    """A loaded tensor: it holds its file and byte offset, not the bytes,
    and each use of ``data`` reads them from the file again, into a fresh
    buffer that it returns as a read-only ``memoryview``.  Its size
    comes from the shape, which the loader checked against the header's
    data offsets."""

    def __init__(self, name: str, dtype: str, shape: tuple[int, ...], source: _FileSource,
                 offset: int):
        nbytes = math.prod(shape) * element_size(dtype)
        for attr, value in (("name", name), ("dtype", dtype), ("shape", shape),
                            ("nbytes", nbytes), ("_source", source), ("_offset", offset)):
            object.__setattr__(self, attr, value)

    @property
    def data(self) -> memoryview:
        return self._source.read(self._offset, self.nbytes)

    def as_f32(self) -> np.ndarray:
        """As ``TensorRecord.as_f32``; an f32 tensor is read straight into
        the fresh array."""
        if self.dtype != "f32":
            return super().as_f32()
        arr = np.empty(self.shape, dtype="<f4")
        self._source.read_into(memoryview(arr.reshape(-1).view(np.uint8)), self._offset)
        return arr

    def __repr__(self) -> str:
        return (f"FileRecord(name={self.name!r}, dtype={self.dtype!r}, shape={self.shape}, "
                f"file={str(self._source.path)!r}, offset={self._offset})")


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


def encode_record(ref: TensorRecord, arr: np.ndarray) -> TensorRecord:
    """A record with ``ref``'s name, dtype and shape holding ``arr``.

    A shape mismatch, or a value that is NaN or inf or would encode to inf
    (one beyond the dtype's range), is a CompatError naming the tensor.
    """
    if tuple(arr.shape) != ref.shape:
        raise CompatError(
            f"tensor {ref.name!r}: array shape {tuple(arr.shape)} != {ref.shape}"
        )
    flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
    if not _encodes_finite(ref.dtype, flat):
        raise CompatError(
            f"tensor {ref.name!r}: a value is NaN, inf or beyond the {ref.dtype} range"
        )
    element = _DTYPES[ref.dtype].numpy
    data = _f32_to_bf16(flat) if element is None else flat.astype(element)  # a copy, even for f32
    return TensorRecord(ref.name, ref.dtype, ref.shape, array_bytes(data))


# ---------------------------------------------------------------------------
# Container serialization
# ---------------------------------------------------------------------------


def _header_bytes(cp: Checkpoint) -> bytes:
    """The canonical container prefix: header length, then header JSON.  It
    depends only on the layout (metadata, then each record's name, dtype
    and shape), and the last 16 layouts' prefixes are kept: an analysis
    candidate has its reference's layout."""
    metadata = tuple((str(k), str(v)) for k, v in cp.metadata.items())
    return _layout_header(metadata, tuple((rec.name, rec.dtype, rec.shape) for rec in cp))


@functools.lru_cache(maxsize=16)
def _layout_header(metadata: tuple, layout: tuple) -> bytes:
    header: dict[str, object] = {}
    if metadata:
        header["__metadata__"] = dict(metadata)
    offset = 0
    for name, dtype, shape in layout:
        end = offset + math.prod(shape) * element_size(dtype)
        header[name] = {
            "dtype": _DTYPES[dtype].wire,
            "shape": list(shape),
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
    """Write the canonical container to a binary file, chunk by chunk.  A
    chunk read from a file is freed before the next one is read."""
    for chunk in _chunks(cp):
        fh.write(chunk)
        del chunk


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


def _parse_container(read, size: int):
    """Check a container's header; ``read(offset, length)`` returns bytes of
    the container, which is ``size`` bytes long.  Returns the metadata and,
    per tensor, ``(name, dtype, shape, begin)``, where its bytes start in the
    container.  Only the header is read: the data regions are checked
    against the header's shapes and the size alone."""
    if size < 8:
        raise FormatError(f"file too short for header length field ({size} bytes)")
    (header_len,) = struct.unpack("<Q", read(0, 8))
    if 8 + header_len > size:
        raise FormatError(
            f"malformed header length {header_len} exceeds file size {size}"
        )
    try:
        header = json.loads(
            bytes(read(8, header_len)).decode("utf-8"), object_pairs_hook=_unique_keys
        )
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too long an int or too deep
        raise FormatError(f"invalid header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header JSON is not an object")

    metadata = header.pop("__metadata__", None)
    if metadata is not None:
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
        ):
            raise FormatError("__metadata__ must be a string-to-string map")

    data_start = 8 + header_len
    data_len = size - data_start
    entries = []
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
        if not (0 <= begin <= end <= data_len):
            raise FormatError(
                f"tensor {name!r}: out-of-bounds data region [{begin}, {end}) "
                f"in {data_len}-byte data block"
            )
        dtype, shape = _WIRE_TO_DTYPE[wire], tuple(shape)
        expected = math.prod(shape) * element_size(dtype)
        if expected != end - begin:
            raise FormatError(
                f"tensor {name!r}: shape {shape} needs {expected} bytes, got {end - begin}"
            )
        entries.append((name, dtype, shape, data_start + begin))
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
    if prev[1] != data_len:
        raise FormatError(f"{data_len - prev[1]} trailing bytes after the last data region")
    return metadata, entries


def load_checkpoint(path) -> Checkpoint:
    """Open a container file and check its header.  The file stays open, and
    each record reads its bytes from it on each use (``FileRecord``)."""
    path = Path(path)
    try:
        source = _FileSource(path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        metadata, entries = _parse_container(source.read, source.size)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    records = [
        FileRecord(name, dtype, shape, source, begin) for name, dtype, shape, begin in entries
    ]
    return Checkpoint(records, metadata)


def create_temp(path, mode: int = 0o666) -> tuple[int, Path]:
    """Create a fresh file next to ``path``, named in a form no other tool
    writes (``_TEMP_NAME``: ``.<name>.<8 hex>.himerge-tmp``), so that
    ``remove_stale_temps`` removes it if its writer is killed.  Returns its
    write-only descriptor and its path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.himerge-tmp")
    return os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, mode), tmp


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temp file next to ``path`` for writing (``create_temp``).
    When the block ends normally it replaces ``path`` (``os.replace``); when
    it raises, it is removed.  So ``path`` never holds a partial write."""
    fd, tmp = create_temp(path)
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


_TEMP_NAME = re.compile(r"\..+\.[0-9a-f]{8}\.himerge-tmp")


def remove_stale_temps(directory) -> None:
    """Remove the temp files (``create_temp``) in ``directory`` that a
    killed process left behind.  Only call this while no other
    process can be writing into ``directory``."""
    for name in os.listdir(directory):
        if _TEMP_NAME.fullmatch(name):
            with contextlib.suppress(OSError):  # gone already, or not ours to remove
                os.unlink(os.path.join(directory, name))


def save_checkpoint(cp: Checkpoint, path) -> Checkpoint:
    """Write ``cp`` to ``path``; return it re-opened from there (``load_checkpoint``)."""
    with atomic_open(path, "wb") as fh:
        write_checkpoint(cp, fh)
    return load_checkpoint(path)


def fingerprint(cp: Checkpoint) -> str:
    """sha256 of the canonical header followed by every record's digest,
    computed on the first call and then kept on the (immutable) checkpoint."""
    if cp._fingerprint is None:
        h = hashlib.sha256(_header_bytes(cp))
        for rec in cp:
            h.update(rec.digest)
        cp._fingerprint = h.hexdigest()
    return cp._fingerprint


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
    """Total assignment of tensor names to layer ids: PRE, the layer indices
    the rule captured, and POST.  An index that holds no tensor is no layer."""

    assignment: dict[str, object]
    # Each layer's names, sorted; derived from ``assignment``.
    _by_layer: dict[object, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_layer = {}
        for name in sorted(self.assignment):
            self._by_layer.setdefault(self.assignment[name], []).append(name)

    def layer_of(self, name: str):
        return self.assignment[name]

    def names_in(self, layer) -> list[str]:
        return list(self._by_layer.get(layer, []))

    def transformer_layers(self) -> list[int]:
        return sorted(layer for layer in self._by_layer if layer not in (PRE, POST))

    def all_layers(self) -> list:
        """PRE, the indices in order, then POST, each only if it holds a tensor."""
        layers = (PRE, *self.transformer_layers(), POST)
        return [layer for layer in layers if layer in self._by_layer]


def _shown_rule(rule: str) -> str:
    """The layer rule as an error shows it: a long one is cut to its first
    200 characters and its length."""
    if len(rule) <= 200:
        return repr(rule)
    return f"{rule[:200]!r}... ({len(rule)} characters)"


def compile_layer_rule(rule: str) -> re.Pattern:
    """The layer rule as a regex; a ConfigError unless it compiles with
    exactly one capture group."""
    try:
        pattern = re.compile(rule)
    # re.error for bad syntax; OverflowError for a repeat count beyond its
    # range; RecursionError for groups nested too deeply to parse.
    except (re.error, OverflowError, RecursionError) as exc:
        raise ConfigError(f"invalid layer rule {_shown_rule(rule)}: {exc}") from exc
    if pattern.groups != 1:
        raise ConfigError(
            f"layer rule {_shown_rule(rule)} must have exactly one capture group, "
            f"has {pattern.groups}"
        )
    return pattern


def partition_layers(cp: Checkpoint, rule: str = DEFAULT_LAYER_RULE) -> LayerPartition:
    """Assign every tensor to a layer via the rule's single integer capture.

    Non-matching names go to PRE if they sort before the first matching name
    (or when nothing matches), else POST.  A match in which the capture
    group takes no part is a ConfigError.
    """
    pattern = compile_layer_rule(rule)
    assignment: dict[str, object] = {}
    outside = PRE  # a non-matching name's layer: PRE until the first match, POST after it
    for name in cp.names:
        m = pattern.search(name)
        if m is None:
            assignment[name] = outside
            continue
        if m.group(1) is None:
            raise ConfigError(
                f"layer rule {_shown_rule(rule)} matched {name!r} without its capture group"
            )
        try:
            assignment[name] = int(m.group(1))
        except ValueError:
            raise ConfigError(
                f"layer rule {_shown_rule(rule)} captured non-integer {m.group(1)!r} on {name!r}"
            ) from None
        outside = POST
    return LayerPartition(assignment=assignment)
