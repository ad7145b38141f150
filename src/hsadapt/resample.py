"""SRF-based spectral resampling: build a column-normalized weight matrix from
tabulated response functions and apply it as a per-pixel spectral dot product,
tiled over pixel blocks for throughput."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cube_io import HyperCube
from .errors import EmptySupportError, GridMismatchError, ValidationError
from .spectral import SensorSpec, SrfTable, WavelengthGrid, _sample_srf, wavelength_digest

DEFAULT_TILE = 64


@dataclass(frozen=True)
class WeightMatrix:
    """C_in×K nonnegative matrix whose columns sum to one.

    Column k holds the normalized response of target band k sampled at the
    input band centers; support_counts[k] is the number of nonzero entries.
    """

    weights: np.ndarray  # (C_in, K) float64
    band_names: tuple[str, ...]
    band_centers: tuple[float, ...]
    source_wavelengths: tuple[float, ...]

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.dtype != np.float64:
            raise ValidationError("weights must be a 2-D float64 matrix")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and nonnegative")
        sums = w.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValidationError("every weight column must sum to 1 within 1e-9")
        if any(c < 1 for c in self.support_counts):
            raise ValidationError("every target band needs at least one supported input band")
        w.setflags(write=False)

    @property
    def support_counts(self) -> tuple[int, ...]:
        return tuple(int(n) for n in np.count_nonzero(self.weights, axis=0))

    @property
    def source_grid_hash(self) -> str:
        return wavelength_digest(self.source_wavelengths)

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[0]

    @property
    def n_targets(self) -> int:
        return self.weights.shape[1]


def build_weight_matrix(grid: WavelengthGrid, table: SrfTable, spec: SensorSpec) -> WeightMatrix:
    """Sample each target band's SRF at the input band centers and normalize
    each column to unit sum. A band whose response never overlaps the grid is
    a hard error, not a silent zero column."""
    if table.n_bands != len(spec.bands):
        raise ValidationError("SRF table is not aligned to the sensor spec")
    raw = _sample_srf(table, range(table.n_bands), grid.values)
    sums = raw.sum(axis=0)
    empty = np.nonzero(sums == 0.0)[0]
    if empty.size:
        names = [spec.bands[k].name for k in empty]
        raise EmptySupportError(
            f"band(s) {names} have no response at any input wavelength; "
            "the sensor/grid pairing is unusable"
        )
    return WeightMatrix(
        weights=raw / sums,
        band_names=tuple(spec.band_names),
        band_centers=tuple(float(b.center) for b in spec.bands),
        source_wavelengths=tuple(grid.values),
    )


def _pool_size(threads: int, n_tiles: int) -> int:
    """Tile-pool workers: the requested count, capped by the tiles and the CPUs."""
    return min(threads, n_tiles, os.cpu_count() or 1)


def resample_cube(
    cube: HyperCube,
    w: WeightMatrix,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
    allow_nan: bool = False,
) -> HyperCube:
    """Project every pixel's spectrum onto the target bands.

    Accumulation runs in double precision regardless of storage precision;
    results are bit-identical for any tile size or thread count because each
    pixel's dot product is computed independently.
    """
    if w.source_grid_hash != cube.grid_digest():
        raise GridMismatchError("weight matrix was built for a different wavelength grid")
    if cube.bands != w.n_inputs:
        raise ValidationError(f"cube has {cube.bands} bands, weight matrix expects {w.n_inputs}")
    if tile < 1:
        raise ValidationError("tile size must be >= 1")
    if threads < 1:
        raise ValidationError("thread count must be >= 1")
    if not allow_nan and not np.all(np.isfinite(cube.data)):
        raise ValidationError("cube contains non-finite values (pass allow_nan to accept)")

    h, width = cube.height, cube.width
    out = np.empty((h, width, w.n_targets), dtype=np.float32)
    supported = w.weights > 0.0
    # Per target band: its supported input indices in ascending order, and their weights.
    terms = [
        (np.flatnonzero(col).tolist(), w.weights[col, k].tolist())
        for k, col in enumerate(supported.T)
    ]

    def project(x: np.ndarray) -> np.ndarray:
        # Fixed-order accumulation: each pixel of band k sums x[j]*w[j, k] over
        # the band's supported j in ascending order whatever the tile shape, so
        # output bytes never depend on tiling or thread count (BLAS gemm would
        # not guarantee that). The skipped terms are x*0.0, which add nothing
        # to a sum that starts at +0.0 when x is finite.
        acc = np.zeros((w.n_targets, x.shape[1]), dtype=np.float64)
        term = np.empty(x.shape[1], dtype=np.float64)
        for k, (js, ws) in enumerate(terms):
            for j, wjk in zip(js, ws):
                np.multiply(x[j], wjk, out=term)
                acc[k] += term
        return acc

    def run_tile(r0: int, c0: int) -> None:
        r1 = min(r0 + tile, h)
        c1 = min(c0 + tile, width)
        # Band-major float64 copy of the block: row j holds input band j of every pixel.
        x = np.ascontiguousarray(
            cube.data[r0:r1, c0:c1, :].transpose(2, 0, 1), dtype=np.float64
        ).reshape(w.n_inputs, -1)
        poisoned = None
        if allow_nan:
            nan_mask = np.isnan(x)
            if nan_mask.any():
                # NaN in an input band poisons only the output bands that
                # support it; it is zero-filled first so the sums stay finite.
                poisoned = supported.T @ nan_mask
                x[nan_mask] = 0.0
        res = project(x)
        if poisoned is not None:
            res[poisoned] = np.nan
        out[r0:r1, c0:c1, :] = res.reshape(w.n_targets, r1 - r0, c1 - c0).transpose(1, 2, 0)

    coords = [(r, c) for r in range(0, h, tile) for c in range(0, width, tile)]
    workers = _pool_size(threads, len(coords))
    if workers == 1:
        for r, c in coords:
            run_tile(r, c)
    else:
        # Imported only here: concurrent.futures pulls in logging and queue.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda rc: run_tile(*rc), coords))

    return HyperCube(data=out, wavelengths=w.band_centers)


def weight_summary(w: WeightMatrix) -> dict:
    """Per target band: support count, effective width (inverse participation
    ratio, in band counts and nm), and weighted-mean wavelength."""
    lam = np.asarray(w.source_wavelengths, dtype=np.float64)
    spacing = float(np.median(np.diff(lam))) if lam.size > 1 else 0.0
    bands = []
    for k, name in enumerate(w.band_names):
        col = w.weights[:, k]
        eff = float(1.0 / np.sum(col * col))
        bands.append(
            {
                "name": name,
                "center_nm": w.band_centers[k],
                "support_count": w.support_counts[k],
                "effective_width_bands": eff,
                "effective_width_nm": eff * spacing,
                "weighted_mean_wavelength_nm": float(np.dot(col, lam)),
            }
        )
    return {"n_inputs": w.n_inputs, "n_targets": w.n_targets, "bands": bands}
