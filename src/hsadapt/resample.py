"""SRF-based spectral resampling: build a column-normalized weight matrix from
tabulated response functions and apply it as a per-pixel spectral dot product,
reading each strip in place in runs of consecutive pixels."""

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


def _pool_size(threads: int, n_runs: int) -> int:
    """Kernel-pool workers: the requested count, capped by the pixel runs and
    the CPUs this process may run on. That is its affinity set where the
    platform has one, since taskset or a container's cpuset may shrink it."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, n_runs, cpus)


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

    pixels = cube.data.reshape(-1, w.n_inputs)  # a view of a C-contiguous strip
    out = np.empty((cube.height, cube.width, w.n_targets), dtype=np.float32)
    # Per input band that some target reads, in ascending order: (target, weight) pairs.
    nonzero = [np.flatnonzero(row).tolist() for row in w.weights]
    reads = [(j, [(k, float(w.weights[j, k])) for k in ks]) for j, ks in enumerate(nonzero) if ks]

    def run_block(p0: int) -> None:
        x = pixels[p0 : p0 + tile * tile]  # a run may cross the end of a row
        # Checked a run at a time, so the check's mask is a run's, not the strip's.
        if not allow_nan and not np.all(np.isfinite(x)):
            raise ValidationError("cube contains non-finite values (pass allow_nan to accept)")
        # Each pixel of band k sums x[j]*w[j, k] over its supported j in ascending
        # order whatever the run length or thread count, so output bytes never
        # change (BLAS gemm would not fix the order). An unsupported band is never
        # read; NaN or infinity in a supported one propagates by IEEE arithmetic.
        # errstate is per thread: under allow_nan a signalling NaN in the cast and
        # +inf meeting -inf in a sum are results, not faults.
        with np.errstate(invalid="ignore"):
            acc = np.zeros((w.n_targets, x.shape[0]), dtype=np.float64)
            band = np.empty(x.shape[0], dtype=np.float64)
            term = np.empty(x.shape[0], dtype=np.float64)
            for j, targets in reads:
                band[:] = x[:, j]  # input band j of every pixel, widened once
                for k, wjk in targets:
                    np.multiply(band, wjk, out=term)
                    acc[k] += term
        if allow_nan:
            # One NaN bit pattern out, 0x7FC00000, whatever the input NaN's
            # sign or payload and whatever NaN the CPU makes of inf - inf.
            acc[np.isnan(acc)] = np.nan
        out.reshape(-1, w.n_targets)[p0 : p0 + x.shape[0]] = acc.T

    starts = range(0, pixels.shape[0], tile * tile)
    workers = _pool_size(threads, len(starts))
    if workers == 1:
        for p0 in starts:
            run_block(p0)
    else:
        # Imported only here: concurrent.futures pulls in logging and queue.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, starts))

    return HyperCube(data=out, wavelengths=w.band_centers)


def weight_summary(w: WeightMatrix) -> dict:
    """Per target band: support count, effective width (inverse participation
    ratio, in band counts and nm), and weighted-mean wavelength."""
    lam = np.asarray(w.source_wavelengths, dtype=np.float64)
    spacing = float(np.median(np.diff(lam))) if lam.size > 1 else 0.0
    bands = []
    for k, (name, count) in enumerate(zip(w.band_names, w.support_counts)):
        col = w.weights[:, k]
        eff = float(1.0 / np.sum(col * col))
        bands.append(
            {
                "name": name,
                "center_nm": w.band_centers[k],
                "support_count": count,
                "effective_width_bands": eff,
                "effective_width_nm": eff * spacing,
                "weighted_mean_wavelength_nm": float(np.dot(col, lam)),
            }
        )
    return {"n_inputs": w.n_inputs, "n_targets": w.n_targets, "bands": bands}
