"""Bit-identity of the vectorized weight build and the supported-band kernel
against in-test copies of the straightforward scalar sampler and dense
fixed-order accumulation loop they replace."""

import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsadapt.cube_io import HyperCube
from hsadapt.errors import EmptySupportError
from hsadapt.resample import WeightMatrix, _pool_size, build_weight_matrix, resample_cube
from hsadapt.spectral import SensorSpec, SrfTable, TargetBand, WavelengthGrid


def scalar_srf(grid, col, wavelength):
    """Per-entry sampler: zero outside the table, the tabulated value at a
    tabulation point, np.interp between."""
    grid = np.asarray(grid, dtype=np.float64)
    if wavelength < grid[0] or wavelength > grid[-1]:
        return 0.0
    col = np.asarray(col, dtype=np.float64)
    exact = np.nonzero(grid == wavelength)[0]
    if exact.size:
        return float(col[exact[0]])
    return float(np.interp(wavelength, grid, col))


def dense_resample(data, weights, allow_nan):
    """Dense fixed-order float64 loop: every pixel sums j = 0..C-1 in order,
    zero-weight terms included; NaN inputs are zero-filled, then the output
    bands they support are poisoned."""
    h, w, c = data.shape
    block = data.astype(np.float64).reshape(-1, c)
    poisoned = None
    if allow_nan:
        nan_mask = np.isnan(block)
        poisoned = nan_mask @ (weights > 0.0)
        block = np.where(nan_mask, 0.0, block)
    acc = np.zeros((block.shape[0], weights.shape[1]), dtype=np.float64)
    for j in range(c):
        acc += block[:, j, None] * weights[j, :]
    if poisoned is not None:
        acc[poisoned] = np.nan
    return acc.astype(np.float32).reshape(h, w, -1)


@st.composite
def srf_cases(draw):
    n_tab = draw(st.integers(2, 12))
    tab = np.unique(draw(st.lists(st.floats(400.0, 900.0), min_size=n_tab, max_size=n_tab)))
    assume(tab.size >= 2)
    k = draw(st.integers(1, 3))
    cols = [
        draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 0.3, 7.5e-3]) | st.floats(0.0, 2.0),
                      min_size=tab.size, max_size=tab.size))
        for _ in range(k)
    ]
    # Input centers: exact tabulation points (both ends always), points between
    # them, and points outside the table.
    lam = {float(tab[0]), float(tab[-1])}
    lam |= set(draw(st.lists(st.sampled_from(tab.tolist()), max_size=6)))
    lam |= set(draw(st.lists(st.floats(350.0, 950.0), max_size=8)))
    return tab, cols, np.sort(np.fromiter(lam, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(srf_cases())
def test_weights_equal_per_entry_scalar_sampling(case):
    tab, cols, lam = case
    names = tuple(f"B{i}" for i in range(len(cols)))
    table = SrfTable(grid=tuple(tab.tolist()), sensitivities=tuple(tuple(c) for c in cols),
                     band_names=names)
    spec = SensorSpec("t", tuple(TargetBand(n, 500.0) for n in names))
    raw = np.asarray([[scalar_srf(tab, col, x) for col in cols] for x in lam], dtype=np.float64)
    sums = raw.sum(axis=0)
    grid = WavelengthGrid(tuple(lam.tolist()))
    if np.any(sums == 0.0):
        with pytest.raises(EmptySupportError):
            build_weight_matrix(grid, table, spec)
        return
    w = build_weight_matrix(grid, table, spec)
    want = raw / sums
    assert w.weights.tobytes() == want.tobytes()
    assert w.support_counts == tuple(int(n) for n in np.count_nonzero(want, axis=0))


@st.composite
def kernel_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    c, k = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        # Equal power-of-two weights on values of very different magnitude:
        # every product is exact, so the sum shows the accumulation order.
        raw = np.zeros((c, k))
        for b in range(k):
            support = 2 ** int(rng.integers(0, int(np.log2(c)) + 1))
            raw[rng.choice(c, support, replace=False), b] = 1.0
        values = np.float32([2.0**100, -(2.0**100), 1.0, -1.0, 2.0**-30, 0.0])
        data = rng.choice(values, (h, w, c))
    else:
        density = draw(st.sampled_from([0.15, 0.5, 1.0]))
        raw = rng.random((c, k)) * (rng.random((c, k)) < density)
        raw[rng.integers(0, c, k), np.arange(k)] += 0.5  # every band has support
        scale = draw(st.sampled_from([1.0, 1e-3, 1e4]))
        data = (rng.standard_normal((h, w, c)) * scale).astype(np.float32)
        data[rng.random((h, w, c)) < 0.05] = 0.0
        data[rng.random((h, w, c)) < 0.05] = -0.0
    weights = raw / raw.sum(axis=0)
    allow_nan = draw(st.booleans())
    if allow_nan:
        r0 = draw(st.integers(0, h - 1))
        bands = rng.random(c) < 0.3
        data[r0 : r0 + draw(st.integers(1, 3)), :, bands] = np.nan
    return data, weights, allow_nan


@settings(max_examples=40, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 7, 64]), st.sampled_from([1, 2]))
def test_resample_equals_dense_fixed_order_loop(case, tile, threads):
    data, weights, allow_nan = case
    wavelengths = tuple(400.0 + 10.0 * j for j in range(data.shape[2]))
    wm = WeightMatrix(
        weights=weights,
        band_names=tuple(f"B{i}" for i in range(weights.shape[1])),
        band_centers=(500.0,) * weights.shape[1],
        source_wavelengths=wavelengths,
    )
    cube = HyperCube(data=data, wavelengths=wavelengths)
    out = resample_cube(cube, wm, tile=tile, threads=threads, allow_nan=allow_nan)
    assert out.data.tobytes() == dense_resample(data, weights, allow_nan).tobytes()


def test_pool_size_is_capped_by_tiles_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(1, 16) == 1
    assert _pool_size(2, 16) == 2
    assert _pool_size(64, 16) == 4
    assert _pool_size(64, 3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 16) == 1
