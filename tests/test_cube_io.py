import hashlib
import io
import json
import math
import os
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsadapt import cube_io
from hsadapt.cli import main
from hsadapt.cube_io import (
    MAX_HEADER_BYTES,
    CubeReader,
    CubeWriter,
    HyperCube,
    LabelMask,
    read_cube,
    read_mask,
    read_targets_csv,
    require_finite,
    write_cube,
    write_mask,
)
from hsadapt.errors import FormatError, ValidationError
from hsadapt.resample import WeightMatrix, resample_cube
from hsadapt.spectral import WavelengthGrid, wavelength_digest

SENSOR = str(Path(__file__).resolve().parents[1] / "configs" / "sentinel2_l2a_12band.json")


def random_cube(rng, h, w, c):
    grid = tuple(400.0 + 5.0 * i for i in range(c))
    return HyperCube(data=rng.random((h, w, c), dtype=np.float32), wavelengths=grid)


class TestCubeFormat:
    def test_round_trip_value_identical(self):
        cube = random_cube(np.random.default_rng(0), 4, 4, 3)
        again = read_cube(write_cube(cube))
        assert np.array_equal(again.data, cube.data)
        assert again.wavelengths == cube.wavelengths

    def test_round_trip_byte_identical(self):
        cube = random_cube(np.random.default_rng(1), 5, 3, 7)
        stream = write_cube(cube)
        assert write_cube(read_cube(stream)) == stream

    def test_full_scale_chip_payload_size(self):
        cube = random_cube(np.random.default_rng(2), 128, 128, 202)
        stream = write_cube(cube)
        (hlen,) = struct.unpack("<Q", stream[4:12])
        payload = len(stream) - 12 - hlen
        assert payload == 128 * 128 * 202 * 4

    def test_truncated_payload_names_lengths(self):
        stream = write_cube(random_cube(np.random.default_rng(3), 2, 2, 2))
        with pytest.raises(FormatError, match="expected 32 bytes, got 30"):
            read_cube(stream[:-2])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="bad magic"):
            read_cube(b"NOPE" + b"\x00" * 20)

    def test_unsupported_version(self):
        with pytest.raises(FormatError, match="unsupported version"):
            read_cube(b"HSC2" + b"\x00" * 20)

    def test_non_monotone_wavelengths_rejected(self):
        cube = random_cube(np.random.default_rng(4), 2, 2, 2)
        stream = write_cube(cube)
        (hlen,) = struct.unpack("<Q", stream[4:12])
        header = json.loads(stream[12 : 12 + hlen])
        header["wavelengths_nm"] = [500.0, 400.0]
        hdr = json.dumps(header).encode()
        with pytest.raises(FormatError, match="monotone"):
            read_cube(b"HSC1" + struct.pack("<Q", len(hdr)) + hdr + stream[12 + hlen :])

    def test_tied_wavelengths_accepted(self):
        # repeated nearest-band selections legitimately produce ties
        cube = HyperCube(
            data=np.zeros((1, 1, 2), dtype=np.float32), wavelengths=(500.0, 500.0)
        )
        again = read_cube(write_cube(cube))
        assert again.wavelengths == (500.0, 500.0)

    def test_non_finite_rejected_without_flag(self):
        data = np.zeros((1, 1, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        cube = HyperCube(data=data, wavelengths=(400.0, 500.0))
        stream = write_cube(cube)
        with pytest.raises(ValidationError, match="non-finite"):
            read_cube(stream)
        again = read_cube(stream, allow_non_finite=True)
        assert np.isinf(again.data[0, 0, 0])

    def test_header_payload_mismatch_dimensions(self):
        cube = random_cube(np.random.default_rng(5), 2, 2, 2)
        stream = write_cube(cube)
        (hlen,) = struct.unpack("<Q", stream[4:12])
        header = json.loads(stream[12 : 12 + hlen])
        header["h"] = 3
        hdr = json.dumps(header).encode()
        with pytest.raises(FormatError, match="mismatch"):
            read_cube(b"HSC1" + struct.pack("<Q", len(hdr)) + hdr + stream[12 + hlen :])

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            h, w, c = (int(rng.integers(1, 9)) for _ in range(3))
            cube = random_cube(rng, h, w, c)
            stream = write_cube(cube)
            assert write_cube(read_cube(stream)) == stream


def repack(stream: bytes, hdr: bytes) -> bytes:
    """The container `stream` with its header bytes replaced by `hdr`."""
    (hlen,) = struct.unpack("<Q", stream[4:12])
    return stream[:4] + struct.pack("<Q", len(hdr)) + hdr + stream[12 + hlen :]


def with_header(stream: bytes, mutate) -> bytes:
    (hlen,) = struct.unpack("<Q", stream[4:12])
    return repack(stream, json.dumps(mutate(json.loads(stream[12 : 12 + hlen]))).encode())


CUBE_STREAM = write_cube(HyperCube(data=np.zeros((2, 2, 1), dtype=np.float32), wavelengths=(500.0,)))
MASK_STREAM = write_mask(LabelMask(labels=np.zeros((2, 2), dtype=np.int16)))
MALFORMED_HEADERS = {
    "cube-list-header": with_header(CUBE_STREAM, lambda h: [h]),
    "cube-string-wavelength": with_header(CUBE_STREAM, lambda h: {**h, "wavelengths_nm": ["a"]}),
    "cube-boolean-wavelength": with_header(CUBE_STREAM, lambda h: {**h, "wavelengths_nm": [True]}),
    "cube-huge-wavelength": with_header(CUBE_STREAM, lambda h: {**h, "wavelengths_nm": [10**400]}),
    "cube-boolean-dim": with_header(CUBE_STREAM, lambda h: {**h, "c": True}),
    "cube-deeply-nested-header": repack(CUBE_STREAM, b"[" * 100_000),
    "cube-over-long-integer": repack(CUBE_STREAM, b'{"h": ' + b"1" * 5000 + b"}"),
    "mask-list-header": with_header(MASK_STREAM, lambda h: [h]),
    "mask-boolean-ignore": with_header(MASK_STREAM, lambda h: {**h, "ignore_value": True}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_format_error(tmp_path, name):
    """Every malformed header is a FormatError, and the CLI exits 1 on it."""
    stream = MALFORMED_HEADERS[name]
    if name.startswith("mask"):
        with pytest.raises(FormatError):
            read_mask(stream)
        for d in ("pred", "truth"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "chip.hsm").write_bytes(stream)
        argv = ["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
                "--truth-dir", str(tmp_path / "truth"), "--classes", "2"]
    else:
        with pytest.raises(FormatError):
            read_cube(stream)
        (tmp_path / "in.hsc").write_bytes(stream)
        argv = ["adapt", "--method", "naive", "--sensor", SENSOR,
                "--input", str(tmp_path / "in.hsc"), "--output", str(tmp_path / "out.hsc")]
    assert main(argv) == 1
    assert not (tmp_path / "out.hsc").exists()


def padded_header(stream: bytes, length: int) -> bytes:
    """The container `stream` with its JSON header padded by spaces to `length` bytes."""
    (hlen,) = struct.unpack("<Q", stream[4:12])
    return repack(stream, stream[12 : 12 + hlen] + b" " * (length - hlen))


class RecordedReads(io.BytesIO):
    """A stream that keeps the size of every `read` asked of it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("kind", ["cube", "mask"])
def test_header_over_the_limit_is_refused_unread(tmp_path, capsys, kind):
    """A header of MAX_HEADER_BYTES is read; one byte more is a FormatError
    raised before the header is read, so the memory a header takes does not
    follow the file size."""
    stream, read = (CUBE_STREAM, read_cube) if kind == "cube" else (MASK_STREAM, read_mask)
    read(padded_header(stream, MAX_HEADER_BYTES))
    over = padded_header(stream, MAX_HEADER_BYTES + 1)
    with pytest.raises(FormatError, match=f"exceeds the limit of {MAX_HEADER_BYTES} bytes"):
        read(over)
    f = RecordedReads(over)
    with pytest.raises(FormatError, match="limit"):
        CubeReader(f) if kind == "cube" else read_mask(f)
    assert f.sizes == [12]  # magic and header length only
    path = tmp_path / f"big.{'hsc' if kind == 'cube' else 'hsm'}"
    path.write_bytes(over)
    assert main(["inspect", str(path)]) == 1
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "metrics-seg"])
def test_an_over_the_limit_mask_file_is_refused_unread(tmp_path, capsys, command):
    """The CLI hands read_mask the open file, so a mask whose header is over
    the limit fails after a 12-byte read, whatever the file's size: a 33 MiB
    file peaks below 1 MiB."""
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
        path = tmp_path / d / "chip.hsm"
        path.write_bytes(padded_header(MASK_STREAM, MAX_HEADER_BYTES + 1))
        os.truncate(path, 33 << 20)
    if command == "inspect":
        argv = ["inspect", str(path)]
    else:
        argv = ["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
                "--truth-dir", str(tmp_path / "truth"), "--classes", "2"]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "exceeds the limit" in capsys.readouterr().err
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_mask_that_is_a_pipe_is_refused(tmp_path, capsys):
    """`metrics seg` reads each mask's header before its payload, which needs
    a seekable file: a `*.hsm` entry that is a named pipe exits 1, as a cube
    that is a pipe already did."""
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    (tmp_path / "truth" / "chip.hsm").write_bytes(MASK_STREAM)
    fifo = tmp_path / "pred" / "chip.hsm"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as f:
                f.write(MASK_STREAM)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    argv = ["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
            "--truth-dir", str(tmp_path / "truth"), "--classes", "2"]
    assert main(argv) == 1
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert "chip.hsm: input must be a seekable file, not a pipe" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [0.0, -0.0, -500.0, math.nan, math.inf])
def test_a_bad_wavelength_fails_on_every_call(bad):
    """Wavelength checks are cached per tuple, but a failure is not: the same
    bad tuple is refused every time, also after the good tuple next to it."""
    data = np.zeros((1, 1, 2), dtype=np.float32)
    HyperCube(data=data, wavelengths=(500.0, 600.0))
    for _ in range(3):
        with pytest.raises(ValidationError, match="finite and positive"):
            HyperCube(data=data, wavelengths=(500.0, bad))
        with pytest.raises(ValidationError, match="finite and positive"):
            WavelengthGrid((bad, 600.0))


def test_wavelengths_may_be_any_sequence():
    """A list or an array of wavelengths, float32 too, is stored as a tuple of
    Python floats: the cached wavelength checks need a tuple, and a float32
    element would be no JSON number."""
    data = np.zeros((1, 1, 2), dtype=np.float32)
    for given in ([500.0, 600.0], np.array([500.0, 600.0]), np.array([500.0, 600.0], dtype=np.float32)):
        cube = HyperCube(data=data, wavelengths=given)
        assert cube.wavelengths == (500.0, 600.0) == WavelengthGrid(given).values
        assert all(type(v) is float for v in cube.wavelengths + WavelengthGrid(given).values)
        assert (wavelength_digest(cube.wavelengths) == wavelength_digest(WavelengthGrid(given).values)
                == wavelength_digest(cube.grid.values) == wavelength_digest((500.0, 600.0)))
        back = read_cube(write_cube(cube))
        assert back.wavelengths == cube.wavelengths and back.data.tobytes() == data.tobytes()


# Pixel data whose finiteness checks meet every edge: 512-pixel pieces, 64²-pixel
# kernel runs, rows wider than a piece, and a strip smaller than one.
FINITE_SHAPES = [(4097, 3), (1, 4097, 2), (1025, 2, 3), (3, 600, 2), (2, 513, 1), (9, 57, 2), (1, 1, 1)]
EDGE_PIXELS = [0, 511, 512, 1023, 1024, 1199, 1200, 4095, 4096]
# float32 bit patterns: quiet NaN, signalling NaN, negative NaN, ±inf, and the
# finite -0.0, largest value and smallest subnormal.
SPECIAL_BITS = [0x7FC00000, 0x7FA00001, 0xFFC00001, 0x7F800000, 0xFF800000,
                0x80000000, 0x7F7FFFFF, 0x00000001]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_finiteness_check_agrees_with_numpy(data):
    """require_finite raises exactly when np.all(np.isfinite(x)) is False, for
    the reader's strips and the kernel's runs, and warns of nothing."""
    shape = data.draw(st.sampled_from(FINITE_SHAPES))
    pixels = math.prod(shape[:-1])
    x = np.full(shape, 0.5, dtype=np.float32)
    bits = x.view(np.uint32).reshape(pixels, shape[-1])
    at = st.one_of(st.sampled_from([p for p in EDGE_PIXELS if p < pixels] + [pixels - 1]),
                   st.integers(0, pixels - 1))
    for _ in range(data.draw(st.integers(0, 3))):
        band = data.draw(st.integers(0, shape[-1] - 1))
        bits[data.draw(at), band] = data.draw(st.sampled_from(SPECIAL_BITS))
    finite = bool(np.all(np.isfinite(x)))
    wavelengths = tuple(500.0 + i for i in range(shape[-1]))
    w = WeightMatrix(weights=np.full((shape[-1], 1), 1.0 / shape[-1]), band_names=("B",),
                     band_centers=(500.0,), source_wavelengths=wavelengths)
    cube = HyperCube(data=x.reshape(1, -1, shape[-1]) if x.ndim == 2 else x, wavelengths=wavelengths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (lambda: require_finite(x, "f"), lambda: resample_cube(cube, w)):
            if finite:
                check()
            else:
                with pytest.raises(ValidationError, match="non-finite"):
                    check()


@pytest.mark.parametrize("shape", FINITE_SHAPES)
def test_finiteness_check_takes_at_most_512_pixels_at_a_time(monkeypatch, shape):
    checked, isfinite = [], np.isfinite

    def counting(x, *args, **kwargs):
        checked.append(x.shape)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    require_finite(np.zeros(shape, dtype=np.float32), "f")
    assert sum(math.prod(s) for s in checked) == math.prod(shape)
    assert max(math.prod(s[:-1]) for s in checked) <= 512


class TestCubeWriter:
    """The writer writes its header when it is made, checks every strip
    against it, and checks the row count when asked for the digest."""

    cube = random_cube(np.random.default_rng(4), 7, 3, 5)

    def strip(self, r0, r1, cube=None):
        cube = self.cube if cube is None else cube
        return HyperCube(data=cube.data[r0:r1], wavelengths=cube.wavelengths)

    def writer(self, f=None, wavelengths=None):
        wavelengths = self.cube.wavelengths if wavelengths is None else wavelengths
        return CubeWriter(io.BytesIO() if f is None else f,
                          self.cube.height, self.cube.width, wavelengths)

    def test_the_header_is_written_when_the_writer_is_made(self):
        f = io.BytesIO()
        dst = self.writer(f, np.array(self.cube.wavelengths))  # kept as Python floats
        assert f.getvalue() == write_cube(self.cube)[: -self.cube.data.nbytes]
        assert dst.wavelengths == self.cube.wavelengths
        assert all(type(w) is float for w in dst.wavelengths)

    def test_strips_make_the_whole_cube_stream(self):
        f = io.BytesIO()
        dst = self.writer(f)
        for r0 in range(0, self.cube.height, 3):  # rows 3, 3 and 1
            dst.write(self.strip(r0, r0 + 3))
        digest = dst.hexdigest()
        assert f.getvalue() == write_cube(self.cube)
        assert digest == hashlib.sha256(write_cube(self.cube)).hexdigest()

    @pytest.mark.parametrize("other", [
        random_cube(np.random.default_rng(5), 7, 4, 5),  # wider
        HyperCube(data=cube.data, wavelengths=tuple(w + 1.0 for w in cube.wavelengths)),
    ])
    def test_a_later_strip_must_match_the_first(self, other):
        """Every strip is checked against the header, the first as well."""
        f = io.BytesIO()
        dst = self.writer(f)
        with pytest.raises(ValidationError, match="strip does not match the cube header"):
            dst.write(self.strip(0, 3, other))
        dst.write(self.strip(0, 3))
        with pytest.raises(ValidationError, match="strip does not match the cube header"):
            dst.write(self.strip(3, 7, other))
        assert f.getvalue() == write_cube(self.cube)[: -self.cube.data[3:].nbytes]

    @pytest.mark.parametrize("rows, message", [(6, "wrote 6 rows"), (8, "wrote 8 rows")])
    def test_the_digest_needs_every_row_and_no_more(self, rows, message):
        dst = self.writer()
        dst.write(self.strip(0, 4))
        dst.write(self.strip(4, rows, random_cube(np.random.default_rng(6), 8, 3, 5)))
        with pytest.raises(ValidationError, match=f"{message}, header declares 7"):
            dst.hexdigest()


@pytest.mark.parametrize("shape, wavelengths, match", [
    ((0, 2, 2), (400.0, 500.0), "'h' must be a positive integer"),
    ((2, 0, 2), (400.0, 500.0), "'w' must be a positive integer"),
    ((2, 2, 0), (), "'c' must be a positive integer"),
    ((2, 2, 3), (400.0, 500.0, 450.0), "monotone non-decreasing"),
], ids=["no-rows", "no-columns", "no-bands", "decreasing"])
def test_the_cube_encoders_refuse_what_the_decoder_refuses(shape, wavelengths, match):
    """write_cube and CubeWriter check the header they would write by the
    decoder's rules, and CubeWriter refuses it when made, writing nothing."""
    cube = HyperCube(data=np.zeros(shape, dtype=np.float32), wavelengths=wavelengths)
    with pytest.raises(FormatError, match=match):
        write_cube(cube)
    f = io.BytesIO()
    with pytest.raises(FormatError, match=match):
        CubeWriter(f, shape[0], shape[1], wavelengths)
    assert f.getvalue() == b""


def test_the_cube_encoders_apply_the_decoders_header_limit(monkeypatch):
    """A header exactly at MAX_HEADER_BYTES is written by both encoders and
    read back; one byte more is the reader's FormatError, and CubeWriter
    writes nothing."""
    cube = random_cube(np.random.default_rng(7), 2, 3, 4)
    stream = write_cube(cube)
    (hlen,) = struct.unpack("<Q", stream[4:12])
    monkeypatch.setattr(cube_io, "MAX_HEADER_BYTES", hlen)
    f = io.BytesIO()
    CubeWriter(f, cube.height, cube.width, cube.wavelengths).write(cube)
    assert f.getvalue() == write_cube(cube) == stream
    assert read_cube(stream).data.tobytes() == cube.data.tobytes()
    monkeypatch.setattr(cube_io, "MAX_HEADER_BYTES", hlen - 1)
    message = f"declared header length {hlen} exceeds the limit of {hlen - 1} bytes"
    with pytest.raises(FormatError, match=message):
        read_cube(stream)
    with pytest.raises(FormatError, match=message):
        write_cube(cube)
    f = io.BytesIO()
    with pytest.raises(FormatError, match=message):
        CubeWriter(f, cube.height, cube.width, cube.wavelengths)
    assert f.getvalue() == b""


@pytest.mark.parametrize("dims, key", [((np.int64(2), 2), "h"), ((2, np.int64(2)), "w")])
def test_numpy_int_cube_dimensions_are_the_decoders_error(dims, key):
    """The header rule runs before the header is serialised, so a dimension
    that no JSON header holds is a FormatError, not json.dumps' TypeError."""
    f = io.BytesIO()
    with pytest.raises(FormatError, match=f"header field '{key}' must be a positive integer"):
        CubeWriter(f, *dims, (500.0,))
    assert f.getvalue() == b""


class TestMaskFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        mask = LabelMask(labels=rng.integers(-1, 5, (8, 8)).astype(np.int16), ignore_value=-1)
        again = read_mask(write_mask(mask))
        assert np.array_equal(again.labels, mask.labels)
        assert again.ignore_value == -1

    def test_label_below_ignore_rejected(self):
        with pytest.raises(ValidationError, match="out-of-range"):
            LabelMask(labels=np.asarray([[-2]], dtype=np.int16), ignore_value=-1)

    def test_all_ignore_round_trips(self):
        mask = LabelMask(labels=np.full((4, 4), -1, dtype=np.int16), ignore_value=-1)
        again = read_mask(write_mask(mask))
        assert np.all(again.labels == -1)

    def test_truncated(self):
        mask = LabelMask(labels=np.zeros((2, 2), dtype=np.int16))
        with pytest.raises(FormatError, match="mismatch"):
            read_mask(write_mask(mask)[:-1])

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_mask(b"XXXX" + b"\x00" * 20)

    @pytest.mark.parametrize("ignore", [np.int16(-1), np.int64(7)])
    def test_a_numpy_int_ignore_value_round_trips_as_a_python_int(self, ignore):
        mask = LabelMask(labels=np.asarray([[0, int(ignore)]], dtype=np.int16), ignore_value=ignore)
        assert type(mask.ignore_value) is int and mask.ignore_value == ignore
        again = read_mask(write_mask(mask))
        assert type(again.ignore_value) is int and again.ignore_value == ignore
        assert np.array_equal(again.labels, mask.labels)

    @pytest.mark.parametrize("ignore", [2.5, True])
    def test_a_non_integer_ignore_value_is_refused(self, ignore):
        with pytest.raises(ValidationError, match="ignore_value must be an integer"):
            LabelMask(labels=np.zeros((2, 2), dtype=np.int16), ignore_value=ignore)

    def test_a_payload_that_ends_early_after_the_size_check(self):
        """A stream that stops short after its size was checked (a file that
        shrank) fails as a cube's strip does."""
        class Short(io.BytesIO):
            def readinto(self, buf):
                return super().readinto(buf[:3])

        mask = LabelMask(labels=np.arange(6, dtype=np.int16).reshape(2, 3))
        stream = write_mask(mask)
        assert np.array_equal(read_mask(Short(stream)).labels, mask.labels)  # read in pieces

        class Shrunk(io.BytesIO):
            reads = 0

            def readinto(self, buf):
                self.reads += 1
                return super().readinto(buf[:5]) if self.reads == 1 else 0

        with pytest.raises(FormatError, match="payload ended early: expected 12 bytes, got 5"):
            read_mask(Shrunk(stream))

    @pytest.mark.parametrize("shape, key", [((0, 3), "h"), ((3, 0), "w")],
                             ids=["no-rows", "no-columns"])
    def test_an_empty_mask_is_not_written(self, shape, key):
        """read_mask refuses a zero dimension, so write_mask does too."""
        with pytest.raises(FormatError, match=f"'{key}' must be a positive integer"):
            write_mask(LabelMask(labels=np.zeros(shape, dtype=np.int16)))

    def test_an_ignore_value_too_long_for_json_is_refused_as_the_reader_refuses_it(self):
        """json.dumps cannot write an int of more than 4,300 digits and
        json.loads cannot read one, so both sides give the same FormatError."""
        huge = 10**5000
        with pytest.raises(FormatError, match="header is not valid JSON: Exceeds the limit"):
            write_mask(LabelMask(labels=np.zeros((2, 2), dtype=np.int16), ignore_value=huge))
        hdr = b'{"h":2,"w":2,"dtype":"i16le","ignore_value":1' + b"0" * 5000 + b"}"
        stream = b"HSM1" + struct.pack("<Q", len(hdr)) + hdr + bytes(8)
        with pytest.raises(FormatError, match="header is not valid JSON: Exceeds the limit"):
            read_mask(stream)


class TestTargetsCsv:
    def test_four_soil_parameters(self):
        text = "sample_id,K,P2O5,Mg,pH\na,1,2,3,6.5\nb,4,5,6,7.1\n"
        ids, names, table = read_targets_csv(text)
        assert ids == ["a", "b"]
        assert names == ["K", "P2O5", "Mg", "pH"]
        assert table.shape == (2, 4)
        assert table[1, 3] == 7.1

    def test_empty_data_section(self):
        with pytest.raises(FormatError, match="no data"):
            read_targets_csv("sample_id,K\n")

    def test_nan_cell_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            read_targets_csv("sample_id,K\na,NaN\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="ragged"):
            read_targets_csv("sample_id,K,P\na,1\n")

    def test_non_numeric_cell(self):
        with pytest.raises(FormatError, match="non-numeric"):
            read_targets_csv("sample_id,K\na,high\n")

    def test_duplicate_sample_id(self):
        with pytest.raises(ValidationError, match="duplicate"):
            read_targets_csv("sample_id,K\na,1\na,2\n")
