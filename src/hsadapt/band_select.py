"""Nearest-band selection: map each target band to the input band with the
closest center wavelength and gather those channels unmodified."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cube_io import HyperCube, _is_int
from .errors import GridMismatchError, ValidationError
from .spectral import SensorSpec, WavelengthGrid


@dataclass(frozen=True)
class SelectionPlan:
    """Per target band: the chosen input band index and its center distance in nm.

    Indices, at least one and one per distance, are integers into `source_wavelengths`;
    they may repeat when a coarse grid sends two targets to one band; the summary lists them.
    """

    indices: tuple[int, ...]
    distances: tuple[float, ...]
    source_wavelengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "source_wavelengths", tuple(map(float, self.source_wavelengths)))
        n = len(self.source_wavelengths)
        if not self.indices or len(self.distances) != len(self.indices):
            raise ValidationError("a plan needs at least one index, and one distance per index")
        for j in self.indices:
            if not (_is_int(j) or isinstance(j, np.integer)) or not 0 <= j < n:
                raise ValidationError(f"plan index {j!r} is not an integer in [0, {n})")

    @functools.cached_property
    def wavelengths(self) -> tuple[float, ...]:
        """The adapted cube's wavelengths: the selected input wavelengths in
        target-band order (ties repeat when two targets select the same band)."""
        return tuple(self.source_wavelengths[j] for j in self.indices)

    def summary(self) -> dict:
        counts: dict[int, int] = {}
        for i in self.indices:
            counts[i] = counts.get(i, 0) + 1
        return {
            "n_targets": len(self.indices),
            "indices": list(self.indices),
            "distances_nm": list(self.distances),
            "max_distance_nm": max(self.distances),
            "repeated_indices": sorted(i for i, n in counts.items() if n > 1),
        }


def nearest_band_indices(grid: WavelengthGrid, spec: SensorSpec) -> SelectionPlan:
    """For each target band pick argmin_j |λ_j − μ_k|, ties to the lowest index."""
    lam = grid.as_array()
    indices = []
    distances = []
    for mu in spec.centers:
        d = np.abs(lam - mu)
        j = int(np.argmin(d))  # argmin returns the first minimum: lowest-index tie-break
        indices.append(j)
        distances.append(float(d[j]))
    return SelectionPlan(
        indices=tuple(indices),
        distances=tuple(distances),
        source_wavelengths=grid.values,
    )


def apply_selection(cube: HyperCube, plan: SelectionPlan) -> HyperCube:
    """Gather the planned channels into a K-band cube with the plan's
    `wavelengths`. Pure gather, no arithmetic, and no check but the grid's."""
    if plan.source_wavelengths != cube.wavelengths:
        raise GridMismatchError("selection plan was built for a different wavelength grid")
    idx = np.asarray(plan.indices, dtype=np.intp)
    out = np.ascontiguousarray(cube.data[:, :, idx])
    return HyperCube(data=out, wavelengths=plan.wavelengths)
