"""Synthetic cube generators and the attenuation experiment that measures how
much of a narrow absorption feature each adaptation strategy retains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band_select import nearest_band_indices
from .cube_io import HyperCube
from .errors import ValidationError
from .resample import build_weight_matrix, weight_summary
from .spectral import SensorSpec, SrfTable, WavelengthGrid


@dataclass(frozen=True)
class AbsorptionFeatureSpec:
    """A Gaussian absorption line on a flat continuum, FWHM-parameterized."""

    continuum: float
    center: float
    depth: float
    fwhm: float

    def __post_init__(self):
        if not self.continuum > 0:
            raise ValidationError("continuum must be positive")
        if not 0 < self.depth <= self.continuum:
            raise ValidationError("depth must satisfy 0 < depth <= continuum")
        if not self.fwhm > 0:
            raise ValidationError("fwhm must be positive")


def absorption_spectrum(grid: WavelengthGrid, feature: AbsorptionFeatureSpec) -> np.ndarray:
    lam = grid.as_array()
    # A line far narrower than the grid overflows arg² (or arg) to infinity,
    # and exp(-inf) = 0 is that line's exact value off its center.
    with np.errstate(over="ignore"):
        arg = (lam - feature.center) / feature.fwhm
        return feature.continuum - feature.depth * np.exp(-4.0 * np.log(2.0) * arg * arg)


def _require_float32_finite(value: float, name: str) -> None:
    """Refuse a value that float32, the cube's storage, rounds to infinity."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(value)):
            raise ValidationError(f"{name} must be finite as float32")


def gen_flat_cube(h: int, w: int, grid: WavelengthGrid, value: float) -> HyperCube:
    if h < 1 or w < 1:
        raise ValidationError("cube dimensions must be positive")
    _require_float32_finite(value, "value")
    data = np.full((h, w, len(grid)), value, dtype=np.float32)
    return HyperCube(data=data, wavelengths=tuple(grid.values))


def gen_absorption_cube(
    h: int, w: int, grid: WavelengthGrid, feature: AbsorptionFeatureSpec
) -> HyperCube:
    if h < 1 or w < 1:
        raise ValidationError("cube dimensions must be positive")
    # Every sample lies in [continuum - depth, continuum], so this bounds them all.
    _require_float32_finite(feature.continuum, "continuum")
    lam = grid.as_array()
    if not lam[0] <= feature.center <= lam[-1]:
        raise ValidationError(
            f"feature center {feature.center} nm outside grid span [{lam[0]}, {lam[-1]}]"
        )
    spectrum = absorption_spectrum(grid, feature).astype(np.float32)
    data = np.broadcast_to(spectrum, (h, w, len(grid))).copy()
    return HyperCube(data=data, wavelengths=tuple(grid.values))


def gen_random_cube(h: int, w: int, grid: WavelengthGrid, seed: int) -> HyperCube:
    """Uniform [0,1) cube from PCG64; the same seed gives byte-identical cubes
    on every platform."""
    if h < 1 or w < 1:
        raise ValidationError("cube dimensions must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.random((h, w, len(grid)), dtype=np.float32)
    return HyperCube(data=data, wavelengths=tuple(grid.values))


def attenuation_experiment(
    grid: WavelengthGrid,
    table: SrfTable,
    spec: SensorSpec,
    feature: AbsorptionFeatureSpec,
) -> dict:
    """Compare how deep the absorption line remains after nearest-band
    selection versus SRF resampling, for the target band sitting exactly on
    the line center."""
    centers = spec.centers
    matches = np.nonzero(centers == feature.center)[0]
    if matches.size == 0:
        raise ValidationError(
            f"feature center {feature.center} nm must equal a target band center"
        )
    k = int(matches[0])
    lam = grid.as_array()
    within = np.count_nonzero(np.abs(lam - feature.center) <= feature.fwhm / 2.0)
    if within < 3:
        raise ValidationError(
            f"grid too coarse: only {within} points within one FWHM of the feature"
        )

    spectrum = absorption_spectrum(grid, feature)
    plan = nearest_band_indices(grid, spec)
    d_naive = feature.continuum - float(spectrum[plan.indices[k]])

    w = build_weight_matrix(grid, table, spec)
    resampled_k = float(np.dot(spectrum, w.weights[:, k]))
    d_srf = feature.continuum - resampled_k

    summary = weight_summary(w)
    eff_width_nm = summary["bands"][k]["effective_width_nm"]
    if eff_width_nm > feature.fwhm and not d_srf < d_naive:
        raise ValidationError(
            "expected SRF resampling to attenuate the feature more than selection "
            f"(d_srf={d_srf}, d_naive={d_naive})"
        )
    return {
        "d_naive": d_naive,
        "d_srf": d_srf,
        "retention_naive": d_naive / feature.depth,
        "retention_srf": d_srf / feature.depth,
        "srf_effective_width_nm": eff_width_nm,
    }
