"""Bit-exact readers/writers for cubes (HSC-v1), label masks (HSM-v1), and target CSVs.

Both binary containers share the same scheme: 4 magic bytes, an 8-byte
little-endian unsigned header length, a UTF-8 JSON header, then a raw
little-endian payload whose size is fully determined by the header.

Cubes are decoded and encoded in row strips (`CubeReader`, `CubeWriter`), so
`hsadapt adapt` never holds a whole scene; `read_cube` is the one-strip case.
Both handle the header when they are made: a reader checks it, a writer
checks and writes it, so a bad header fails before a payload byte moves.
Writers check a header by its reader's rule and length limit, in that order,
and one loop (`_read_payload`) reads every payload, a cube strip's or a mask's.
A reader given a hasher hands it each strip whole on one worker thread, so a
strip is hashed while it is adapted and written.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import json
import os
import struct
import threading
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import FormatError, ValidationError
from .spectral import (
    WavelengthGrid,
    check_wavelengths,
    json_float,
    json_object,
    read_numeric_csv,
)

CUBE_MAGIC = b"HSC1"
MASK_MAGIC = b"HSM1"


@dataclass(frozen=True)
class HyperCube:
    """H×W×C float32 cube, pixel-interleaved, with per-band center wavelengths.

    Input cubes have strictly increasing wavelengths (see the `grid` property);
    adapted output cubes are in target-band order, which may repeat a wavelength
    when two targets select the same input band.
    """

    data: np.ndarray  # (H, W, C) float32, C-contiguous (BIP)
    wavelengths: tuple[float, ...]

    def __post_init__(self):
        # A tuple of Python floats: its checks are cached by tuple, and plans bind
        # to it by ==, which numpy 2 holds true for np.float32(500.1) and 500.1.
        object.__setattr__(self, "wavelengths", tuple(map(float, self.wavelengths)))
        if self.data.ndim != 3:
            raise ValidationError("cube data must be H×W×C")
        if self.data.dtype != np.float32:
            raise ValidationError("cube storage must be float32")
        if self.data.shape[2] != len(self.wavelengths):
            raise ValidationError(
                f"cube has {self.data.shape[2]} bands but {len(self.wavelengths)} wavelengths"
            )
        check_wavelengths(self.wavelengths)
        self.data.setflags(write=False)

    @property
    def grid(self) -> WavelengthGrid:
        """Strict wavelength grid; raises for adapted cubes with tied wavelengths."""
        return WavelengthGrid(self.wavelengths)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class LabelMask:
    """H×W int16 class raster; labels are ≥ 0 or equal to ignore_value."""

    labels: np.ndarray  # (H, W) int16
    ignore_value: int = -1

    def __post_init__(self):
        if not (_is_int(self.ignore_value) or isinstance(self.ignore_value, np.integer)):
            raise ValidationError("ignore_value must be an integer")
        object.__setattr__(self, "ignore_value", int(self.ignore_value))
        if self.labels.ndim != 2:
            raise ValidationError("mask labels must be H×W")
        if self.labels.dtype != np.int16:
            raise ValidationError("mask storage must be int16")
        # Fast path: no negative label at all, or only -1 when -1 is ignore_value.
        lowest = self.labels.min(initial=0)
        if lowest < 0 and not lowest == self.ignore_value == -1:
            bad = (self.labels < 0) & (self.labels != self.ignore_value)
            if np.any(bad):
                raise ValidationError(
                    f"mask contains out-of-range label {int(self.labels[bad][0])} "
                    f"(negative labels other than ignore_value {self.ignore_value})"
                )
        self.labels.setflags(write=False)


# Payload bytes per strip at most, unless one row is larger: the one strip a
# reader and its digest worker hold.
STRIP_BYTES = 16 * 1024 * 1024
# A declared header longer than this is refused unread, so a header's memory
# does not follow the file size. A 202-band cube's header is about 1.5 KB.
MAX_HEADER_BYTES = 1024 * 1024


# Pixels per np.isfinite call in `require_finite`, so that a check's boolean
# mask is at most 512 × bands bytes (101 KiB at 202 bands), whatever the strip.
FINITE_CHECK_PIXELS = 512


def _all_finite(x: np.ndarray) -> bool:
    """np.all(np.isfinite(x)) for pixel data (band axis last), taken over runs
    of at most FINITE_CHECK_PIXELS pixels of its flat pixel view. Strips and
    kernel runs are C-contiguous, so that reshape is a view, not a copy."""
    pixels = x.reshape(-1, x.shape[-1])
    step = FINITE_CHECK_PIXELS
    return all(np.isfinite(pixels[i : i + step]).all() for i in range(0, len(pixels), step))


def require_finite(x: np.ndarray, flag: str) -> None:
    """Raise ValidationError, naming the option that would accept them, if
    the pixel data x holds NaN or infinity."""
    if not _all_finite(x):
        raise ValidationError(f"cube contains non-finite values (pass {flag} to accept)")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_header_length(hlen: int) -> None:
    if hlen > MAX_HEADER_BYTES:
        raise FormatError(
            f"declared header length {hlen} exceeds the limit of {MAX_HEADER_BYTES} bytes"
        )


def _read_header(f: BinaryIO, magic: bytes) -> tuple[bytes, int]:
    """Read a container's magic, version, header length and header, and check
    all but the header's JSON, which starts at byte 12 of what was read.

    Returns the bytes consumed and the payload length left in the stream,
    measured without reading it.
    """
    if not f.seekable():
        raise FormatError("input must be a seekable file, not a pipe")
    start = f.tell()
    size = f.seek(0, os.SEEK_END) - start
    f.seek(start)
    prefix = f.read(12)
    if len(prefix) < 12:
        raise FormatError("stream too short for magic and header length")
    got = prefix[:4]
    if got != magic:
        if got[:3] == magic[:3] and got[3:4].isdigit():
            raise FormatError(f"unsupported version {got.decode('ascii', 'replace')!r}")
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    (hlen,) = struct.unpack("<Q", prefix[4:12])
    _check_header_length(hlen)
    if 12 + hlen > size:
        raise FormatError(f"declared header length {hlen} exceeds stream size")
    return prefix + f.read(hlen), size - 12 - hlen


def _header_dims(header: dict, dims: tuple[str, ...], dtype: str) -> tuple[int, ...]:
    """The schema both containers share: positive integer dimensions and the payload dtype."""
    for key in dims:
        v = header.get(key)
        if not _is_int(v) or v <= 0:
            raise FormatError(f"header field {key!r} must be a positive integer")
    if header.get("dtype") != dtype:
        raise FormatError(f"unsupported dtype {header.get('dtype')!r}")
    return tuple(header[key] for key in dims)


def _check_payload(got: int, expected: int) -> None:
    if got != expected:
        raise FormatError(f"payload length mismatch: expected {expected} bytes, got {got}")


def _container_prefix(magic: bytes, header: dict, check: Callable[[dict], object]) -> bytes:
    """A container's prefix, refused as its reader would refuse it: by `check`,
    the reader's rule for a decoded header, before json.dumps can fail on a
    value that no header holds, then as JSON, then by the length limit."""
    check(header)
    try:
        hdr = json.dumps(header, separators=(",", ":")).encode("utf-8")
    except ValueError as e:  # an int too long for str(), which json.loads refuses too
        raise FormatError(f"header is not valid JSON: {e}") from None
    _check_header_length(len(hdr))
    return magic + struct.pack("<Q", len(hdr)) + hdr


def _read_payload(f: BinaryIO, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """The next bytes of f, read straight into a new array. A stream that ends
    first (a file that shrank after its size was checked) is a FormatError."""
    data = np.empty(shape, dtype=dtype)
    buf, got = _bytes_of(data), 0
    while got < len(buf):
        n = f.readinto(buf[got:])
        if not n:
            raise FormatError(f"payload ended early: expected {len(buf)} bytes, got {got}")
        got += n
    return data


def _check_cube_header(header: dict) -> tuple[int, int, int, tuple[float, ...]]:
    """A cube header's dimensions and wavelengths, checked by the rules that
    every cube read or written follows."""
    h, w, c = _header_dims(header, ("h", "w", "c"), "f32le")
    if header.get("layout") != "bip":
        raise FormatError(f"unsupported layout {header.get('layout')!r}")
    wavelengths = header.get("wavelengths_nm")
    if not isinstance(wavelengths, list) or len(wavelengths) != c:
        raise FormatError("wavelengths_nm must list exactly c values")
    values = tuple(json_float(v, "wavelengths_nm value") for v in wavelengths)
    wl = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(wl)) or np.any(wl <= 0):
        raise FormatError("wavelengths_nm must be finite and positive")
    # Ties are legal (repeated nearest-band selections); decreasing is not.
    if np.any(np.diff(wl) < 0):
        raise FormatError("wavelengths_nm must be monotone non-decreasing")
    return h, w, c, values


def _cube_prefix(h: int, w: int, wavelengths: tuple[float, ...]) -> bytes:
    header = {
        "h": h,
        "w": w,
        "c": len(wavelengths),
        "wavelengths_nm": list(wavelengths),
        "dtype": "f32le",
        "layout": "bip",
    }
    return _container_prefix(CUBE_MAGIC, header, _check_cube_header)


def _bytes_of(a: np.ndarray) -> memoryview:
    return memoryview(a).cast("B")


class _DigestWorker:
    """Feeds `hasher` on one thread, one strip at a time.

    `feed` hands over a view of a whole strip, not a copy, so the caller must
    not reuse or free its buffer until the worker has hashed it. `wait`
    returns once the strip fed last is hashed and no longer held by the
    worker, or raises what `hasher.update` raised on it. A caller feeds one
    strip, then waits for it, and feeds nothing after a failed update.
    """

    _STOP = object()

    def __init__(self, hasher):
        # What queue.SimpleQueue re-exports, without importing queue; only a
        # hashed read loads it (see "Process cost" in the README).
        from _queue import SimpleQueue

        self._todo = SimpleQueue()
        self._done = SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, args=(hasher,), name="hsadapt-digest", daemon=True
        )
        self._thread.start()

    def _run(self, hasher) -> None:
        for strip in iter(self._todo.get, self._STOP):
            error = None
            try:
                hasher.update(strip)
            except BaseException as e:  # raised on the reader's thread by wait()
                error = e
            del strip  # not held while the worker waits for the next one
            self._done.put(error)

    def feed(self, strip) -> None:
        self._todo.put(strip)

    def wait(self) -> None:
        error = self._done.get()
        if error is not None:
            raise error

    def stop(self) -> None:
        self._todo.put(self._STOP)
        self._thread.join()


class CubeReader:
    """Decoder for an HSC-v1 stream.

    The constructor reads and checks the header and checks the payload length
    against the stream size, so a bad file fails before any data is read.
    `strips()` then decodes the payload in row strips and feeds each strip,
    once it is read, whole to `hasher`, so after the last strip it holds the
    digest of the whole stream. The payload is hashed on one worker thread,
    which `strips()` starts at the first strip and joins when it ends, however
    it ends.

    The reader holds no reference to a strip once it has yielded it, and it
    decodes strip i+1 only once the worker has hashed strip i. So the reader
    and its worker hold one strip at most, when the consumer drops each strip
    (and every view of it) before asking for the next; one that leaves its
    loop variable bound holds one strip more.

    Strips may hold NaN and infinity; a caller that refuses them checks each
    strip itself (`read_cube`, `adapt`'s strip loop and `resample_cube` do).
    """

    def __init__(self, f: BinaryIO, hasher=None):
        self._f = f
        self._hasher = hasher
        head, payload_len = _read_header(f, CUBE_MAGIC)
        h, w, c, values = _check_cube_header(json_object(head[12:], "header"))
        _check_payload(payload_len, h * w * c * 4)
        if hasher is not None:
            hasher.update(head)
        self.height, self.width, self.bands = h, w, c
        self.wavelengths = values

    def strips(self, max_bytes: int | None = None) -> Iterator[HyperCube]:
        """Yield the cube as consecutive strips of as many whole rows as fit in
        `max_bytes` and in STRIP_BYTES (the default), but at least one; the
        last strip may be shorter."""
        budget = STRIP_BYTES if max_bytes is None else min(max_bytes, STRIP_BYTES)
        rows = max(1, budget // (self.width * self.bands * 4))
        digest = None if self._hasher is None else _DigestWorker(self._hasher)
        try:
            for r0 in range(0, self.height, rows):
                # Decoded in a helper, so this frame holds nothing across the yield.
                yield self._read_strip(min(rows, self.height - r0), digest)
                if digest is not None:
                    digest.wait()  # before the next strip is allocated
        finally:
            if digest is not None:
                digest.stop()

    def _read_strip(self, rows: int, digest: _DigestWorker | None) -> HyperCube:
        data = _read_payload(self._f, (rows, self.width, self.bands), "<f4")
        if digest is not None:
            digest.feed(_bytes_of(data))
        return HyperCube(data=data, wavelengths=self.wavelengths)


def read_cube(stream: bytes, allow_non_finite: bool = False) -> HyperCube:
    """Decode a whole in-memory HSC-v1 stream as one strip."""
    src = CubeReader(io.BytesIO(stream))
    cube = src._read_strip(src.height, None)
    if not allow_non_finite:
        require_finite(cube.data, "allow_non_finite")
    return cube


class CubeWriter:
    """Encoder for an HSC-v1 stream of `height` × `width` pixels of `wavelengths`.

    The constructor writes the header, checked by the decoder's rules, so a
    cube no reader accepts fails before any strip is made. `write` appends
    row strips, each of which must match the header. Every byte written is
    also hashed. `hexdigest()` checks that all rows arrived and returns the
    SHA-256 of the whole stream.
    """

    def __init__(self, f: BinaryIO, height: int, width: int, wavelengths):
        import hashlib  # loads OpenSSL, which only the commands that hash need

        self._f = f
        self._hasher = hashlib.sha256()
        self.height, self.width = height, width
        self.wavelengths = tuple(map(float, wavelengths))  # as a strip's HyperCube holds them
        self.rows = 0
        self._put(_cube_prefix(height, width, self.wavelengths))

    def _put(self, buf) -> None:
        self._f.write(buf)
        self._hasher.update(buf)

    def write(self, strip: HyperCube) -> None:
        if strip.width != self.width or strip.wavelengths != self.wavelengths:
            raise ValidationError("strip does not match the cube header being written")
        self._put(_bytes_of(np.ascontiguousarray(strip.data, dtype="<f4")))
        self.rows += strip.height

    def hexdigest(self) -> str:
        if self.rows != self.height:
            raise ValidationError(f"wrote {self.rows} rows, header declares {self.height}")
        return self._hasher.hexdigest()


def write_cube(cube: HyperCube) -> bytes:
    payload = np.ascontiguousarray(cube.data, dtype="<f4").tobytes()
    return _cube_prefix(cube.height, cube.width, cube.wavelengths) + payload


@contextlib.contextmanager
def atomic_files(*paths: str | os.PathLike) -> Iterator[list[BinaryIO]]:
    """Open a new file beside each path; they replace the paths only when the
    block exits cleanly. Every new file is closed first. Then every path but
    the first is removed, and the new files are renamed into place in order.
    On any exception the new files that were not renamed are removed. So a
    failed commit of an output and its manifest leaves the old pair, the old
    or new output with no manifest, or the new pair: never an output beside
    another run's manifest."""
    paths = [Path(p) for p in paths]
    for path in paths:
        if path.is_dir():  # refused before the caller reads or computes anything
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmps, files = [], []
    try:
        for path in paths:
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            try:
                files.append(open(tmp, "xb"))
            except OSError as e:  # named for the path the caller gave, not its temporary file
                raise OSError(e.errno, e.strerror, str(path)) from None
            tmps.append(tmp)
        try:
            yield files
        finally:
            for f in files:
                f.close()
        for path in paths[1:]:
            path.unlink(missing_ok=True)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)  # its error names both files
    except BaseException:
        for f, tmp in zip(files, tmps):
            f.close()
            tmp.unlink(missing_ok=True)
        raise


# A run's masks share one header or a few, and every header cached is kept
# whole, so at most 4 MiB of them is held.
@functools.lru_cache(maxsize=4)
def _mask_header(head: bytes) -> tuple[int, int, int]:
    """A mask header's height, width and ignore value, decoded and checked
    once per distinct header. A header that fails raises on every call, since
    lru_cache caches no exception."""
    return _check_mask_header(json_object(head[12:], "header"))


def _check_mask_header(header: dict) -> tuple[int, int, int]:
    """A mask header's dimensions and ignore value, checked as for _check_cube_header."""
    h, w = _header_dims(header, ("h", "w"), "i16le")
    ignore = header.get("ignore_value", -1)
    if not _is_int(ignore):
        raise FormatError("ignore_value must be an integer")
    return h, w, ignore


def read_mask(stream: bytes | BinaryIO) -> LabelMask:
    """Decode an HSM-v1 stream, given as bytes or as a seekable binary file.
    The header is checked before the payload is read, and the payload is read
    straight into the label array."""
    f = io.BytesIO(stream) if isinstance(stream, (bytes, bytearray, memoryview)) else stream
    head, payload_len = _read_header(f, MASK_MAGIC)
    h, w, ignore = _mask_header(head)
    _check_payload(payload_len, h * w * 2)
    return LabelMask(labels=_read_payload(f, (h, w), "<i2"), ignore_value=ignore)


def write_mask(mask: LabelMask) -> bytes:
    header = {
        "h": int(mask.labels.shape[0]),
        "w": int(mask.labels.shape[1]),
        "dtype": "i16le",
        "ignore_value": mask.ignore_value,
    }
    prefix = _container_prefix(MASK_MAGIC, header, _check_mask_header)
    return prefix + np.ascontiguousarray(mask.labels, dtype="<i2").tobytes()


def read_targets_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a regression-targets CSV.

    Returns (sample_ids, parameter_names, N×P float array). Rows are in file
    order; duplicate sample ids, ragged rows, and non-finite cells are errors.
    """
    names, ids, table = read_numeric_csv(text, "targets CSV", "sample_id", text_key=True)
    if len(set(ids)) != len(ids):
        counts = Counter(ids)
        dup = next(i for i in ids if counts[i] > 1)  # first in file order
        raise ValidationError(f"duplicate sample_id {dup!r}")
    if not np.all(np.isfinite(table)):
        raise ValidationError("targets CSV contains non-finite values")
    return ids, names, table
