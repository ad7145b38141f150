"""`hsadapt adapt` streams its input through row strips: the output and both
manifest digests must equal the whole-cube path's, a failure part-way must
leave an existing output untouched, and memory must stay near one strip.
`hsadapt inspect` folds its per-band statistics over the same strips."""

import hashlib
import io
import json
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    tmp_path, small_strips, method, tile, threads, nan_rows
):
    data = gen_random_cube(H, W, GRID, seed=tile * 10 + threads).data.copy()
    if nan_rows is not None:
        data[nan_rows, 2:4, 30:60] = np.nan  # spans the first strip boundary
    raw = write_cube(HyperCube(data=data, wavelengths=GRID.values))
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(raw)
    flags = ["--tile", str(tile), "--threads", str(threads)]
    if nan_rows is not None:
        flags.append("--allow-nan")
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
def test_failed_run_leaves_existing_output_untouched(tmp_path, small_strips, method, corrupt):
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    manifest = Path(str(out) + ".manifest.json")
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=3)))
    assert main(adapt_argv(method, src, out)) == 0
    before = {p.name: p.read_bytes() for p in (out, manifest)}
    src.write_bytes(corrupt(src.read_bytes()))
    assert main(adapt_argv(method, src, out)) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == before


@pytest.mark.parametrize("method", ["naive", "srf"])
def test_each_strip_is_checked_for_finiteness_once(tmp_path, small_strips, monkeypatch, method):
    src, out = tmp_path / "in.hsc", tmp_path / "out.hsc"
    src.write_bytes(write_cube(gen_random_cube(H, W, GRID, seed=7)))
    checked = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        checked.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    assert main(adapt_argv(method, src, out)) == 0
    strips = [(rows, W, len(GRID)) for rows in (5, 5, 5, 5, 3)]
    assert sorted(s for s in checked if len(s) == 3) == sorted(strips)


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
