"""Wavelength grids, target sensor definitions, and tabulated spectral response functions.

All wavelengths are nanometers, end to end. Parsers reject tables whose largest
wavelength is below 100 nm as a probable micron-unit mixup.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UnitsError, ValidationError


@dataclass(frozen=True)
class WavelengthGrid:
    """Strictly increasing band-center wavelengths of an input cube, in nm."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValidationError("wavelength grid must contain at least one value")
        arr = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValidationError("wavelengths must be finite and positive")
        if np.any(np.diff(arr) <= 0):
            raise ValidationError("wavelengths must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def digest(self) -> str:
        """Hex digest binding derived artifacts (plans, weight matrices) to this grid."""
        return wavelength_digest(self.values)


def wavelength_digest(values) -> str:
    payload = np.asarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class TargetBand:
    name: str
    center: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("band name must be non-empty")
        if not (np.isfinite(self.center) and self.center > 0):
            raise ValidationError(f"band {self.name!r}: center must be finite and positive")


@dataclass(frozen=True)
class SensorSpec:
    """Ordered target band list; the order defines output channel order."""

    sensor_name: str
    bands: tuple[TargetBand, ...]

    def __post_init__(self):
        if len(self.bands) < 1:
            raise ValidationError("sensor spec must define at least one band")
        names = [b.name for b in self.bands]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValidationError(f"duplicate band name(s): {sorted(dupes)}")

    @property
    def band_names(self) -> list[str]:
        return [b.name for b in self.bands]

    @property
    def centers(self) -> np.ndarray:
        return np.asarray([b.center for b in self.bands], dtype=np.float64)


@dataclass(frozen=True)
class SrfTable:
    """Tabulated per-band spectral sensitivities on a shared wavelength grid.

    Columns are aligned to a SensorSpec's band order. Sensitivities need not be
    pre-normalized; normalization happens when the weight matrix is built.
    """

    grid: tuple[float, ...]
    sensitivities: tuple[tuple[float, ...], ...]  # one row per target band
    band_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.size < 1:
            raise ValidationError("SRF table must have at least one wavelength row")
        if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
            raise ValidationError("SRF wavelength column must be finite and strictly increasing")
        if g.max() < 100.0:
            raise UnitsError(
                f"SRF wavelengths top out at {g.max():g}; expected nanometers "
                "(values this small look like microns)"
            )
        for name, col in zip(self.band_names or ("?",) * len(self.sensitivities), self.sensitivities):
            c = np.asarray(col, dtype=np.float64)
            if c.size != g.size:
                raise ValidationError(f"band {name!r}: sensitivity column length mismatch")
            if not np.all(np.isfinite(c)):
                raise ValidationError(f"band {name!r}: non-finite sensitivity")
            if np.any(c < 0):
                raise ValidationError(f"band {name!r}: negative sensitivity")

    @property
    def n_bands(self) -> int:
        return len(self.sensitivities)


def _sample_srf(table: SrfTable, bands, wavelengths) -> np.ndarray:
    """Sensitivities of the given target bands at the given wavelengths, as a
    len(wavelengths) × len(bands) float64 array (see srf_evaluate)."""
    grid = np.asarray(table.grid, dtype=np.float64)
    lam = np.asarray(wavelengths, dtype=np.float64)
    out = np.empty((lam.size, len(bands)), dtype=np.float64)
    for i, k in enumerate(bands):
        col = np.asarray(table.sensitivities[k], dtype=np.float64)
        # np.interp returns the tabulated value itself at a tabulation point.
        out[:, i] = np.interp(lam, grid, col, left=0.0, right=0.0)
    return out


def srf_evaluate(table: SrfTable, band_index: int, wavelength: float) -> float:
    """Sensitivity of one target band at an arbitrary wavelength.

    Piecewise-linear between tabulation points, exactly zero outside the
    tabulated range, and bit-exact at the tabulation points themselves.
    """
    if not 0 <= band_index < table.n_bands:
        raise ValidationError(f"band index {band_index} out of range [0, {table.n_bands})")
    return float(_sample_srf(table, (band_index,), (wavelength,))[0, 0])


def parse_sensor_spec(text: str) -> SensorSpec:
    """Parse the JSON sensor-spec document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"sensor spec is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or "sensor" not in doc or "bands" not in doc:
        raise FormatError('sensor spec must be an object with "sensor" and "bands" keys')
    if not isinstance(doc["bands"], list) or not doc["bands"]:
        raise ValidationError("sensor spec must list at least one band")
    bands = []
    for entry in doc["bands"]:
        if not isinstance(entry, dict) or "name" not in entry or "center_nm" not in entry:
            raise FormatError('each band needs "name" and "center_nm"')
        center = entry["center_nm"]
        if not isinstance(center, (int, float)) or isinstance(center, bool):
            raise FormatError(f'band {entry.get("name")!r}: center_nm must be a number')
        bands.append(TargetBand(name=str(entry["name"]), center=float(center)))
    return SensorSpec(sensor_name=str(doc["sensor"]), bands=tuple(bands))


def serialize_sensor_spec(spec: SensorSpec) -> str:
    doc = {
        "sensor": spec.sensor_name,
        "bands": [{"name": b.name, "center_nm": b.center} for b in spec.bands],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_srf_table(text: str, spec: SensorSpec) -> SrfTable:
    """Parse the SRF CSV and align its columns to the spec's band order."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows:
        raise FormatError("empty SRF table")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "wavelength_nm":
        raise FormatError('SRF table must start with a "wavelength_nm" column')
    columns = header[1:]
    missing = [n for n in spec.band_names if n not in columns]
    if missing:
        raise ValidationError(f"SRF table missing column(s) for band(s): {missing}")
    if len(rows) < 2:
        raise FormatError("SRF table has a header but no data rows")

    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"SRF table line {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            parsed.append([float(c) for c in row])
        except ValueError:
            raise FormatError(f"SRF table line {lineno}: non-numeric cell") from None
    data = np.asarray(parsed, dtype=np.float64)
    grid = data[:, 0]
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("SRF wavelength column must be strictly increasing")
    col_index = {name: i + 1 for i, name in enumerate(columns)}
    sens = tuple(
        tuple(float(x) for x in data[:, col_index[name]]) for name in spec.band_names
    )
    return SrfTable(
        grid=tuple(float(x) for x in grid), sensitivities=sens, band_names=tuple(spec.band_names)
    )


def serialize_srf_table(table: SrfTable) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["wavelength_nm", *table.band_names])
    for i, wl in enumerate(table.grid):
        w.writerow(
            [repr(float(wl)), *(repr(float(table.sensitivities[k][i])) for k in range(table.n_bands))]
        )
    return out.getvalue()
