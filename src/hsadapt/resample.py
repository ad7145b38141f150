"""SRF-based spectral resampling: build a column-normalized weight matrix from
tabulated response functions and apply it as a per-pixel spectral dot product,
reading each strip in place in runs of consecutive pixels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube_io import HyperCube, require_finite
from .errors import EmptySupportError, GridMismatchError, ValidationError
from .spectral import SensorSpec, SrfTable, WavelengthGrid, _sample_srf

DEFAULT_TILE = 64


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """C_in×K nonnegative matrix, K >= 1, whose columns sum to one; checked when made.

    Row j is source_wavelengths[j]; column k is band_names[k] at band_centers[k], its
    normalized response sampled at the input band centers, with support_counts[k]
    nonzero entries. Matrices compare equal by value; they are not hashable.
    """

    weights: np.ndarray  # (C_in, K) float64
    band_names: tuple[str, ...]
    band_centers: tuple[float, ...]
    source_wavelengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "source_wavelengths", tuple(map(float, self.source_wavelengths)))
        w = self.weights
        if w.ndim != 2 or w.dtype != np.float64 or not w.size:
            raise ValidationError("weights must be a nonempty 2-D float64 matrix")
        rows, cols = len(self.source_wavelengths), len(self.band_centers)
        if w.shape != (rows, cols) or len(self.band_names) != cols:
            raise ValidationError(f"weights are {w.shape} with {len(self.band_names)} band names; "
                                  f"{rows} wavelengths and {cols} centers need ({rows}, {cols})")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite and nonnegative")
        sums = w.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValidationError("every weight column must sum to 1 within 1e-9")
        w.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return (
            self.band_names == other.band_names
            and self.band_centers == other.band_centers
            and self.source_wavelengths == other.source_wavelengths
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None

    @property
    def support_counts(self) -> tuple[int, ...]:
        return tuple(int(n) for n in np.count_nonzero(self.weights, axis=0))

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
        source_wavelengths=grid.values,
    )


def resample_cube(
    cube: HyperCube,
    w: WeightMatrix,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
    allow_nan: bool = False,
) -> HyperCube:
    """Project every pixel's spectrum onto the target bands of `w`. Its shape
    was checked when it was made, so only its grid is checked against `cube`.

    Sums run in double precision whatever the storage precision, and each
    pixel's dot product is computed on its own, so output bytes are the same
    for any tile size. Runs of tile² pixels are summed on the calling thread,
    so `threads` (still checked to be >= 1) changes neither speed nor output.
    """
    if w.source_wavelengths != cube.wavelengths:
        raise GridMismatchError("weight matrix was built for a different wavelength grid")
    if tile < 1:
        raise ValidationError("tile size must be >= 1")
    if threads < 1:
        raise ValidationError("thread count must be >= 1")

    pixels = cube.data.reshape(-1, w.n_inputs)  # a view of a C-contiguous strip
    out = np.empty((cube.height, cube.width, w.n_targets), dtype=np.float32)
    # Per input band that some target reads, in ascending order: (target, weight)
    # pairs, also ascending; np.nonzero lists a 2-D array's entries in that order.
    reads = []
    js, ks = np.nonzero(w.weights)
    for j, k, wjk in zip(js.tolist(), ks.tolist(), w.weights[js, ks].tolist()):
        if not reads or reads[-1][0] != j:
            reads.append((j, []))
        reads[-1][1].append((k, wjk))

    # A function, not an inlined loop body, so that each run's float64 sums and
    # buffers are freed before the next run makes its own.
    def run_block(p0: int) -> None:
        x = pixels[p0 : p0 + tile * tile]  # a run may cross the end of a row
        if not allow_nan:  # checked just before the run is summed, in small pieces
            require_finite(x, "allow_nan")
        # Each pixel of band k sums x[j]*w[j, k] over its supported j in ascending
        # order whatever the run length, so output bytes never change (BLAS gemm
        # would not fix the order). An unsupported band is never read; NaN or
        # infinity in a supported one propagates by IEEE arithmetic. Under
        # allow_nan a signalling NaN in the cast and +inf meeting -inf in a sum
        # are results, not faults.
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

    for p0 in range(0, pixels.shape[0], tile * tile):
        run_block(p0)

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
