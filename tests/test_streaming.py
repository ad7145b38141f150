"""`hsadapt adapt` streams its input through row strips: the output and both
manifest digests must equal the whole-cube path's, a failure part-way must
leave an existing output untouched, and memory must stay near one strip.
`hsadapt inspect` folds its per-band statistics over the same strips. The
reader hashes the input on one worker thread per stream, which must end
however the stream ends."""

import hashlib
import io
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hsadapt.band_select
import hsadapt.cli
import hsadapt.resample
from hsadapt import cube_io
from hsadapt.band_select import apply_selection, nearest_band_indices
from hsadapt.cli import main
from hsadapt.cube_io import CubeReader, HyperCube, read_cube, write_cube
from hsadapt.resample import build_weight_matrix, resample_cube
from hsadapt.spectral import WavelengthGrid, parse_sensor_spec, parse_srf_table
from hsadapt.synth import gen_random_cube

REPO = Path(__file__).resolve().parents[1]
SENSOR = REPO / "configs" / "sentinel2_l2a_12band.json"
SRF = REPO / "configs" / "sentinel2_l2a_gaussian_srf.csv"
GRID = WavelengthGrid(tuple(420.0 + 10.0 * i for i in range(202)))
H, W = 23, 9
STRIP_ROWS = 5  # 23 rows: four full strips and a remainder of three


@pytest.fixture
def small_strips(monkeypatch):
    row_bytes = W * len(GRID) * 4
    monkeypatch.setattr(cube_io, "STRIP_BYTES", STRIP_ROWS * row_bytes + row_bytes // 2)


# The input digest is computed on one worker thread per `strips()` stream.
JOIN_TIMEOUT_S = 30


@pytest.fixture
def no_thread_left():
    """Every thread a test starts through the reader has ended when it returns."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def adapt_argv(method, src, out, *flags):
    argv = ["adapt", "--method", method, "--sensor", str(SENSOR),
            "--input", str(src), "--output", str(out), *flags]
    return argv + (["--srf", str(SRF)] if method == "srf" else [])


def whole_cube_output(raw: bytes, method: str, tile: int, threads: int, allow_nan: bool) -> bytes:
    cube = read_cube(raw, allow_non_finite=allow_nan)
    spec = parse_sensor_spec(SENSOR.read_text(encoding="utf-8"))
    if method == "naive":
        return write_cube(apply_selection(cube, nearest_band_indices(cube.grid, spec)))
    w = build_weight_matrix(cube.grid, parse_srf_table(SRF.read_text(encoding="utf-8"), spec), spec)
    return write_cube(resample_cube(cube, w, tile=tile, threads=threads, allow_nan=allow_nan))


def test_small_strip_setting_splits_the_cube(small_strips):
    raw = write_cube(gen_random_cube(H, W, GRID, seed=1))
    heights = [s.height for s in CubeReader(io.BytesIO(raw)).strips()]
    assert heights == [5, 5, 5, 5, 3]


def test_default_strip_keeps_a_full_chip_whole():
    chip = HyperCube(data=np.zeros((128, 128, 202), dtype=np.float32), wavelengths=GRID.values)
    assert [s.height for s in CubeReader(io.BytesIO(write_cube(chip))).strips()] == [128]


@pytest.mark.parametrize("nan_rows", [None, slice(4, 7)])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tile", [1, 5, 64])
@pytest.mark.parametrize("method", ["naive", "srf"])
def test_streamed_output_equals_whole_cube_path(
    tmp_path, small_strips, no_thread_left, method, tile, threads, nan_rows
):
    """adapt streams at the kernel's defaults; its bytes equal the whole-cube
    path's at every kernel tile and thread count."""
    data = gen_random_cube(H, W, GRID, seed=tile * 10 + threads).data.copy()
    if nan_rows is not None:
        data[nan_rows, 2:4, 30:60] = np.nan  # spans the first strip boundary
    raw = write_cube(HyperCube(data=data, wavelengths=GRID.values))
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(raw)
    flags = [] if nan_rows is None else ["--allow-nan"]
    assert main(adapt_argv(method, src, out, *flags)) == 0
    assert out.read_bytes() == whole_cube_output(raw, method, tile, threads, nan_rows is not None)
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_digests"][str(src)] == sha256(src)
    assert manifest["output_digests"] == {str(out): sha256(out)}
    keys = [str(src), str(SENSOR)] + ([str(SRF)] if method == "srf" else [])
    assert list(manifest["input_digests"]) == keys


def last_strip_nan(raw: bytes) -> bytes:
    cube = read_cube(raw)
    data = cube.data.copy()
    data[-1, -1, -1] = np.nan
    return write_cube(HyperCube(data=data, wavelengths=cube.wavelengths))


@pytest.mark.parametrize("corrupt", [last_strip_nan, lambda raw: raw[:-3]],
                         ids=["nan-in-last-strip", "truncated-payload"])
@pytest.mark.parametrize("method", ["naive", "srf"])
def test_failed_run_leaves_existing_output_untouched(
    tmp_path, small_strips, no_thread_left, method, corrupt
):
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    manifest = Path(str(out) + ".manifest.json")
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=3)))
    assert main(adapt_argv(method, src, out)) == 0
    before = {p.name: p.read_bytes() for p in (out, manifest)}
    src.write_bytes(corrupt(src.read_bytes()))
    assert main(adapt_argv(method, src, out)) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == before


@pytest.fixture
def finiteness_checks(monkeypatch):
    """The shape of every array np.isfinite is called on."""
    checked = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        checked.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return checked


def pixel_checks(checked: list) -> list:
    """Checks of pixel data: at least 2-D, with the band axis last."""
    return [s for s in checked if len(s) >= 2 and s[-1] == len(GRID)]


@pytest.mark.parametrize("method, module, adapter, kwargs", [
    ("naive", hsadapt.band_select, "apply_selection", {}),
    ("srf", hsadapt.resample, "resample_cube", {"allow_nan": True}),
], ids=["naive", "srf"])
def test_each_strip_is_checked_for_finiteness_once(
    tmp_path, monkeypatch, small_strips, finiteness_checks, method, module, adapter, kwargs
):
    """Every input value is checked once, for either method: the strip loop
    checks each strip whole (it is this small) just before the adapter takes
    it, and the adapter checks nothing itself. srf calls the kernel with
    allow_nan=True, so the kernel checks no run."""
    def adapting(*args, _fn=getattr(module, adapter), **kwargs):
        finiteness_checks.append(("adapt", kwargs))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(module, adapter, adapting)
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=7)))
    assert main(adapt_argv(method, src, out)) == 0
    # The adapter calls and every check of pixel data, in the order they ran.
    events = [e for e in finiteness_checks if e[:1] == ("adapt",) or pixel_checks([e])]
    strips = [(rows * W, len(GRID)) for rows in (5, 5, 5, 5, 3)]  # flat pixel views
    assert events == [e for strip in strips for e in (strip, ("adapt", kwargs))]


def test_inspect_folds_strips_like_whole_array_reductions(tmp_path, small_strips, capsys):
    data = gen_random_cube(H, W, GRID, seed=6).data.copy()
    data[4:7, 2:4, 30:60] = np.nan  # spans the first strip boundary
    data[:, :, 100] = np.nan  # a band with no value at all
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(HyperCube(data=data, wavelengths=GRID.values)))
    assert main(["inspect", str(src)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["h"], report["w"], report["c"]) == (H, W, len(GRID))
    bands = report["per_band"]
    pixels = data.reshape(-1, len(GRID))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the all-NaN band
        np.testing.assert_array_equal([b["min"] for b in bands], np.nanmin(pixels, axis=0))
        np.testing.assert_array_equal([b["max"] for b in bands], np.nanmax(pixels, axis=0))
        mean = np.nanmean(pixels, axis=0, dtype=np.float64)
    # The mean is accumulated in float64 and reported in float32, so it may
    # differ from a float64 mean summed in another order by one float32 ulp.
    np.testing.assert_allclose([b["mean"] for b in bands], mean, rtol=2**-23)
    assert np.isnan(bands[100]["mean"])


@pytest.mark.parametrize("method", ["naive", "srf", "inspect"])
def test_peak_memory_is_bounded_by_a_strip(tmp_path, monkeypatch, method):
    monkeypatch.setattr(cube_io, "STRIP_BYTES", 1 << 20)
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(96, 96, GRID, seed=4)))
    size = src.stat().st_size  # about 7.4 MB
    argv = ["inspect", str(src)] if method == "inspect" else adapt_argv(method, src, out)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2, f"peak {peak / 1e6:.2f} MB for a {size / 1e6:.2f} MB input"


# Peak bound in MiB per command. srf reads each strip in place; it also holds
# the weight matrix and one block's float64 sums, but not the parsed SRF table
# or a float64 copy of the strip, while the strips run.
ONE_STRIP_PEAK_MIB = {"naive": 1.75, "inspect": 1.75, "srf": 2.0}


@pytest.mark.parametrize("method", sorted(ONE_STRIP_PEAK_MIB))
def test_one_input_strip_is_held_at_a_time(tmp_path, monkeypatch, method):
    """A 1 MiB strip setting: holding two input strips at once would peak near
    2.2 MiB; one strip, its adapted output and the small inputs stay below 1.75."""
    monkeypatch.setattr(cube_io, "STRIP_BYTES", 1 << 20)
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(96, 96, GRID, seed=4)))
    argv = ["inspect", str(src)] if method == "inspect" else adapt_argv(method, src, out)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ONE_STRIP_PEAK_MIB[method] * (1 << 20), f"peak {peak / (1 << 20):.2f} MiB"


KERNELS = {
    "naive": (hsadapt.band_select, "apply_selection"),
    "srf": (hsadapt.resample, "resample_cube"),
}


@pytest.mark.parametrize(
    "method, height, width, want",
    [("naive", 128, 128, [10] * 12 + [8]), ("naive", 8, 512, [2, 2, 2, 2]), ("srf", 128, 128, [128])],
    ids=["naive", "naive-scene-rows", "srf"],
)
def test_adapt_strips_of_a_chip(tmp_path, monkeypatch, method, height, width, want):
    """naive reads strips of whole rows that fit in 1 MiB:
    10 rows (1.0 MB) of a 128×128×202 chip, 2 rows (0.8 MB) of a 512-pixel
    wide scene. The reader and its worker hold one of them at a time, not
    the 13.2 MB chip. srf reads a chip whole, so one kernel call gets all
    four runs."""
    src = tmp_path / "chip.hsc"
    src.write_bytes(write_cube(gen_random_cube(height, width, GRID, seed=9)))
    module, name = KERNELS[method]
    kernel = getattr(module, name)
    heights = []

    def recording(strip, *args, **kwargs):
        heights.append(strip.height)
        return kernel(strip, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    tracemalloc.start()
    try:
        assert main(adapt_argv(method, src, tmp_path / "out.hsc")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert heights == want
    if method == "naive":
        assert peak < 1.5 * (1 << 20), f"peak {peak / (1 << 20):.2f} MiB"


@pytest.mark.parametrize("method", ["naive", "srf"])
def test_adapt_plans_once_through_the_names_the_tracer_wraps(
    tmp_path, monkeypatch, small_strips, method
):
    """adapt parses and plans once per run, then runs the kernel once per
    strip. The benchmark's tracer wraps the parsers in hsadapt.cli, where the
    CLI imported them, and the plan and kernel functions in their own modules,
    which the CLI imports when it plans; if the CLI bound any of them at
    import time, or planned per strip, its per-layer spans would be wrong."""
    calls = Counter()
    for module, name in (
        (hsadapt.cli, "parse_sensor_spec"),
        (hsadapt.cli, "parse_srf_table"),
        (hsadapt.band_select, "nearest_band_indices"),
        (hsadapt.band_select, "apply_selection"),
        (hsadapt.resample, "build_weight_matrix"),
        (hsadapt.resample, "resample_cube"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=14)))
    assert main(adapt_argv(method, src, tmp_path / "out.hsc")) == 0
    strips = math.ceil(H / STRIP_ROWS)
    if method == "naive":
        plan = {"nearest_band_indices": 1, "apply_selection": strips}
    else:
        plan = {"parse_srf_table": 1, "build_weight_matrix": 1, "resample_cube": strips}
    assert calls == {"parse_sensor_spec": 1, **plan}


def grid_work(tmp_path, monkeypatch, height: int, start: float) -> tuple[int, int]:
    """The wavelength checks (np.isfinite on a 1-D array) and SHA-256 objects
    of one naive adapt of a height×W cube in strips of STRIP_ROWS rows, on a
    grid from `start` nm that no other test uses."""
    grid = WavelengthGrid(tuple(start + 10.0 * i for i in range(len(GRID))))
    src, out = tmp_path / f"in{height}.hsc", tmp_path / f"out{height}.hsc"
    src.write_bytes(write_cube(gen_random_cube(height, W, grid, seed=height)))
    checks, hashers = [], []
    isfinite, sha256 = np.isfinite, hashlib.sha256

    def counting_isfinite(x, *args, **kwargs):
        checks.append(np.ndim(x) == 1)
        return isfinite(x, *args, **kwargs)

    def counting_sha256(*args, **kwargs):
        hashers.append(args)
        return sha256(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "isfinite", counting_isfinite)
        m.setattr(hashlib, "sha256", counting_sha256)
        assert main(adapt_argv("naive", src, out)) == 0
    return sum(checks), len(hashers)


def test_grid_work_runs_once_per_stream(tmp_path, monkeypatch, small_strips):
    """Every strip carries the same wavelength tuple, so checking and hashing
    it costs a naive adapt of 64 strips no more than one of 16."""
    sixteen = grid_work(tmp_path, monkeypatch, 16 * STRIP_ROWS, start=421.25)
    sixty_four = grid_work(tmp_path, monkeypatch, 64 * STRIP_ROWS, start=421.75)
    assert sixteen == sixty_four


@pytest.mark.parametrize("allow_nan", [False, True])
def test_srf_kernel_reads_the_strip_in_place(allow_nan):
    """The kernel widens one input band of one block at a time, so it never
    holds a float64 or band-major copy of the strip: its own peak stays below
    half the strip's bytes."""
    spec = parse_sensor_spec(SENSOR.read_text())
    w = build_weight_matrix(GRID, parse_srf_table(SRF.read_text(), spec), spec)
    strip = gen_random_cube(64, 64, GRID, seed=6)  # 3.16 MiB
    tracemalloc.start()
    try:
        resample_cube(strip, w, allow_nan=allow_nan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < strip.data.nbytes / 2, f"peak {peak / (1 << 20):.2f} MiB"


SRF_CHECK_TILE = 3  # runs of 9 pixels: each 45-pixel strip takes five checks


def test_srf_finiteness_check_covers_at_most_a_run(finiteness_checks):
    """The kernel checks every value once, in runs of at most tile² pixels."""
    spec = parse_sensor_spec(SENSOR.read_text())
    w = build_weight_matrix(GRID, parse_srf_table(SRF.read_text(), spec), spec)
    strip = gen_random_cube(STRIP_ROWS, W, GRID, seed=7)
    resample_cube(strip, w, tile=SRF_CHECK_TILE)
    cube_checks = pixel_checks(finiteness_checks)
    assert sum(math.prod(s) for s in cube_checks) == STRIP_ROWS * W * len(GRID)
    assert max(math.prod(s[:-1]) for s in cube_checks) <= SRF_CHECK_TILE**2


def test_srf_finiteness_check_holds_a_run_not_the_strip():
    """Checking a whole 128×128×202 strip builds a 3.16 MiB boolean mask, and
    checking a 4096-pixel run a 0.79 MiB one. Checked 512 pixels at a time, the
    mask is 0.1 MiB, and the kernel's own peak (its 0.75 MiB output and one
    run's float64 sums) stays below 1.4 MiB."""
    spec = parse_sensor_spec(SENSOR.read_text())
    w = build_weight_matrix(GRID, parse_srf_table(SRF.read_text(), spec), spec)
    strip = gen_random_cube(128, 128, GRID, seed=8)  # 12.6 MiB
    tracemalloc.start()
    try:
        resample_cube(strip, w, allow_nan=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * (1 << 20), f"peak {peak / (1 << 20):.2f} MiB"


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_pipe_input_is_data_error(tmp_path, capsys):
    raw = write_cube(gen_random_cube(2, 2, GRID, seed=5))
    r, w = os.pipe()
    try:
        os.write(w, raw)  # fits in the pipe buffer, so nothing blocks
        os.close(w)
        assert main(adapt_argv("naive", f"/dev/fd/{r}", tmp_path / "out.hsc")) == 1
    finally:
        os.close(r)
    assert "seekable" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", ["cube", "mask"])
def test_inspect_refuses_a_named_pipe_as_the_readers_do(tmp_path, capsys, kind):
    """inspect sniffs the magic without seeking, so a FIFO gets the readers'
    own refusal, not a bare "not seekable" from the sniff."""
    if kind == "cube":
        raw = write_cube(gen_random_cube(2, 2, GRID, seed=5))
    else:
        raw = cube_io.write_mask(cube_io.LabelMask(labels=np.zeros((2, 2), dtype=np.int16)))
    fifo = tmp_path / f"in.{kind}"
    os.mkfifo(fifo)

    def feed():  # opening a FIFO for writing waits for its reader
        with open(fifo, "wb") as f:
            f.write(raw)  # fits in the pipe buffer, so it ends before inspect closes

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert main(["inspect", str(fifo)]) == 1
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert "input must be a seekable file, not a pipe" in capsys.readouterr().err


class RecordingHasher:
    """Keeps each update it gets with the thread that made it; `fail_at`
    makes that update (counted from 1) raise."""

    def __init__(self, fail_at=None):
        self.updates = []
        self.fail_at = fail_at

    def update(self, data):
        if len(self.updates) + 1 == self.fail_at:
            raise HasherBroke("update refused")
        self.updates.append((threading.get_ident(), bytes(data)))


class HasherBroke(Exception):
    pass


def within_timeout(fn):
    """fn() run on a helper thread, so a hang fails the test instead of
    stalling the suite; returns what it returned or raises what it raised."""
    outcome = {}

    def call():
        try:
            outcome["value"] = fn()
        except BaseException as e:
            outcome["error"] = e

    helper = threading.Thread(target=call, daemon=True)
    helper.start()
    helper.join(JOIN_TIMEOUT_S)
    assert not helper.is_alive(), f"still running after {JOIN_TIMEOUT_S} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def drain(reader: CubeReader) -> int:
    rows = 0
    for strip in reader.strips():
        rows += strip.height
        del strip
    return rows


class ShortReads(io.BytesIO):
    """A stream whose every `readinto` fills at most 777 bytes, as a raw file may."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:777])


@pytest.mark.parametrize("short_reads", [False, True], ids=["file", "short-reads"])
@pytest.mark.parametrize("height", [H, 2], ids=["five-strips", "one-strip-chip"])
def test_reader_digest_is_the_file_sha256(tmp_path, small_strips, no_thread_left,
                                          height, short_reads):
    """The worker hashes views of the strip buffers, so the digest also
    checks that every read landed where it belongs."""
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(height, W, GRID, seed=12)))
    hasher = hashlib.sha256()
    with ShortReads(src.read_bytes()) if short_reads else src.open("rb") as f:
        assert drain(CubeReader(f, hasher=hasher)) == height
    assert hasher.hexdigest() == sha256(src)


class UpdateSizes:
    """Passes each update on to `hasher` and keeps its size in bytes."""

    def __init__(self, hasher):
        self.hasher = hasher
        self.sizes = []

    def update(self, data):
        self.sizes.append(len(data))
        self.hasher.update(data)


@pytest.mark.parametrize("method, rows", [("naive", [10] * 12 + [8]), ("srf", [128])])
def test_each_strip_of_a_chip_is_hashed_in_one_update(tmp_path, monkeypatch, method, rows):
    """adapt reads a 128×128×202 chip in its default strips, and the worker
    hashes each strip whole: after the header, one update per strip, so srf
    hashes the 13,238,272-byte chip in one."""
    src, out = tmp_path / "chip.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(128, 128, GRID, seed=10)))
    readers = []

    class Recording(CubeReader):
        def __init__(self, f, hasher=None):
            readers.append(UpdateSizes(hasher))
            super().__init__(f, readers[-1])

    monkeypatch.setattr(hsadapt.cli, "CubeReader", Recording)
    assert main(adapt_argv(method, src, out)) == 0
    ((header, *payload),) = [r.sizes for r in readers]
    row_bytes = 128 * len(GRID) * 4
    assert header + sum(payload) == src.stat().st_size
    assert payload == [n * row_bytes for n in rows]
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_digests"][str(src)] == sha256(src)


def test_payload_is_hashed_off_the_callers_thread_in_file_order(
    tmp_path, small_strips, no_thread_left
):
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=13)))
    hasher = RecordingHasher()
    with src.open("rb") as f:
        reader = CubeReader(f, hasher=hasher)
        ((header_thread, _),) = hasher.updates  # the header, hashed as it is checked
        drain(reader)
    caller = threading.get_ident()
    assert header_thread == caller
    payload_threads = {t for t, _ in hasher.updates[1:]}
    assert len(hasher.updates) > 1 and caller not in payload_threads
    assert b"".join(data for _, data in hasher.updates) == src.read_bytes()


def test_a_payload_that_ends_early_stops_the_worker(
    tmp_path, small_strips, no_thread_left, monkeypatch, capsys
):
    """A file that shrinks after its header was checked fails in its last
    strip with the reader's message, and the worker is joined."""
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=14)))
    size = src.stat().st_size

    class Shrinking(CubeReader):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            os.truncate(src, size - 3)

    monkeypatch.setattr(hsadapt.cli, "CubeReader", Shrinking)
    assert main(adapt_argv("naive", src, out)) == 1
    last = 3 * W * len(GRID) * 4
    assert capsys.readouterr().err == (
        f"hsadapt: error: payload ended early: expected {last} bytes, got {last - 3}\n"
    )
    assert not out.exists()


def test_closing_the_stream_early_stops_the_worker(tmp_path, small_strips, no_thread_left):
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=16)))
    with src.open("rb") as f:
        strips = CubeReader(f, hasher=hashlib.sha256()).strips()
        assert next(strips).height == STRIP_ROWS
        within_timeout(strips.close)


def test_a_failing_hasher_reaches_the_caller(tmp_path, small_strips, no_thread_left):
    """The third update (the header's, then two strips) raises on the
    worker; the reader raises it, neither hangs nor lets it escape the thread."""
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=17)))
    with src.open("rb") as f:
        reader = CubeReader(f, hasher=RecordingHasher(fail_at=3))
        with pytest.raises(HasherBroke, match="update refused"):
            within_timeout(lambda: drain(reader))


def test_a_hasher_failing_on_the_last_piece_reaches_the_caller(
    tmp_path, small_strips, no_thread_left
):
    """No strip follows the last one, so the reader waits for its digest
    after the loop; an error there is raised, not lost with the worker."""
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=19)))
    counting = RecordingHasher()
    with src.open("rb") as f:
        drain(CubeReader(f, hasher=counting))
    with src.open("rb") as f:
        reader = CubeReader(f, hasher=RecordingHasher(fail_at=len(counting.updates)))
        with pytest.raises(HasherBroke, match="update refused"):
            within_timeout(lambda: drain(reader))


def test_concurrent_readers_each_hash_their_own_stream(tmp_path, small_strips,
                                                       no_thread_left):
    """Four readers on their own threads, each with its own worker (eight
    threads on fewer cores), switching threads as often as the interpreter
    allows: every digest still equals the file's."""
    files = []
    for seed in range(4):
        path = tmp_path / f"in{seed}.hsc"
        path.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=20 + seed)))
        files.append(path)
    digests = {}

    def read(path):
        hasher = hashlib.sha256()
        with path.open("rb") as f:
            drain(CubeReader(f, hasher=hasher))
        digests[path] = hasher.hexdigest()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(p,)) for p in files]
        for t in readers:
            t.start()
        for t in readers:
            t.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert digests == {p: sha256(p) for p in files}


class BlockingHasher:
    """Blocks in its first payload update (the header is its first update)
    until `release` is set."""

    def __init__(self):
        self.updates = 0
        self.release = threading.Event()

    def update(self, data):
        self.updates += 1
        if self.updates == 2:
            self.release.wait(JOIN_TIMEOUT_S)


@pytest.mark.parametrize("rows", [2, STRIP_ROWS], ids=["two-rows", "strip-rows"])
def test_the_reader_decodes_no_strip_ahead_of_the_worker(
    tmp_path, small_strips, no_thread_left, rows
):
    """With the worker stuck in strip 1, the reader yields strip 1 but not
    strip 2 until strip 1 is hashed, whether a strip fills the budget or two
    would fit in it."""
    src = tmp_path / "in.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=18)))
    hasher = BlockingHasher()
    with src.open("rb") as f:
        strips = CubeReader(f, hasher=hasher).strips(rows * W * len(GRID) * 4)
        try:
            assert within_timeout(lambda: next(strips).height) == rows
            got = []
            waiting = threading.Thread(target=lambda: got.append(next(strips).height))
            waiting.start()
            waiting.join(0.2)
            assert waiting.is_alive() and not got
            hasher.release.set()
            waiting.join(JOIN_TIMEOUT_S)
            assert got == [rows]
        finally:
            hasher.release.set()
            within_timeout(strips.close)
