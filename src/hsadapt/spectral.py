"""Wavelength grids, target sensor definitions, and tabulated spectral response functions.

All wavelengths are nanometers, end to end. Parsers reject tables whose largest
wavelength is below 100 nm as a probable micron-unit mixup.

The readers of outside documents live here too, one per grammar, and cube_io
uses them: `read_numeric_csv` for CSV tables, `json_object`/`json_float` for JSON.
"""

from __future__ import annotations

import functools
import io
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UnitsError, ValidationError


@dataclass(frozen=True)
class WavelengthGrid:
    """Strictly increasing band-center wavelengths of an input cube, in nm."""

    values: tuple[float, ...]

    def __post_init__(self):
        # A tuple of Python floats: its checks are cached by tuple, and plans bind
        # to it by ==, which numpy 2 holds true for np.float32(500.1) and 500.1.
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.values) < 1:
            raise ValidationError("wavelength grid must contain at least one value")
        check_wavelengths(self.values)
        if np.any(np.diff(self.values) <= 0):
            raise ValidationError("wavelengths must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@functools.lru_cache(maxsize=16)
def check_wavelengths(values: tuple[float, ...]) -> None:
    """Raise ValidationError unless every wavelength is finite and positive.

    Every strip of a stream carries the same tuple, so the check runs once per
    distinct tuple. A tuple that fails raises on every call, since lru_cache
    keeps no exception.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError("wavelengths must be finite and positive")


def wavelength_digest(values: tuple[float, ...]) -> str:
    """The grid digest a manifest records: hex SHA-256 of the wavelengths as
    little-endian float64 bytes."""
    import hashlib  # loads OpenSSL, which only the commands that hash need

    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


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
        dupes = {n for n, k in Counter(b.name for b in self.bands).items() if k > 1}
        if dupes:
            raise ValidationError(f"duplicate band name(s): {sorted(dupes)}")

    @property
    def band_names(self) -> list[str]:
        return [b.name for b in self.bands]

    @property
    def centers(self) -> np.ndarray:
        return np.asarray([b.center for b in self.bands], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SrfTable:
    """Tabulated per-band spectral sensitivities on a shared wavelength grid.

    Columns are aligned to a SensorSpec's band order. Sensitivities need not be
    pre-normalized; normalization happens when the weight matrix is built.
    Any 2-D sequence of them is stored as one read-only float64 array. Tables
    compare equal by value; they are not hashable.
    """

    grid: tuple[float, ...]
    sensitivities: np.ndarray  # (bands, len(grid)) float64: one row per target band
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
        rows = [np.asarray(r, dtype=np.float64) for r in self.sensitivities]
        names = tuple(self.band_names) + ("?",) * len(rows)  # "?" for an unnamed row
        for name, c in zip(names, rows):
            if c.size != g.size:
                raise ValidationError(f"band {name!r}: sensitivity column length mismatch")
            if not np.all(np.isfinite(c)):
                raise ValidationError(f"band {name!r}: non-finite sensitivity")
            if np.any(c < 0):
                raise ValidationError(f"band {name!r}: negative sensitivity")
        sens = np.array(rows, dtype=np.float64).reshape(len(rows), g.size)
        sens.setflags(write=False)
        object.__setattr__(self, "sensitivities", sens)

    def __eq__(self, other):
        if not isinstance(other, SrfTable):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.band_names == other.band_names
            and np.array_equal(self.sensitivities, other.sensitivities)
        )

    __hash__ = None

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
        # np.interp returns the tabulated value itself at a tabulation point.
        out[:, i] = np.interp(lam, grid, table.sensitivities[k], left=0.0, right=0.0)
    return out


def srf_evaluate(table: SrfTable, band_index: int, wavelength: float) -> float:
    """Sensitivity of one target band at an arbitrary wavelength.

    Piecewise-linear between tabulation points, exactly zero outside the
    tabulated range, and bit-exact at the tabulation points themselves.
    """
    if not 0 <= band_index < table.n_bands:
        raise ValidationError(f"band index {band_index} out of range [0, {table.n_bands})")
    return float(_sample_srf(table, (band_index,), (wavelength,))[0, 0])


def json_object(doc: str | bytes, what: str) -> dict:
    """Decode an outside JSON document, which must be an object. Bytes must be
    UTF-8; json.loads would also take UTF-16 and UTF-32."""
    try:
        obj = json.loads(doc.decode("utf-8") if isinstance(doc, bytes) else doc)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or syntax, huge integer, deep nesting
        raise FormatError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    return obj


def json_float(v: object, what: str) -> float:
    """A JSON number as a float. Bools are not numbers, and an integer beyond
    the float range is refused rather than rounded to infinity."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise FormatError(f"{what} must be a number")
    try:
        return float(v)
    except OverflowError:
        raise FormatError(f"{what} is out of range") from None


def _loadtxt(lines: list[str], width: int) -> np.ndarray | None:
    """Comma-joined rows as a len(lines)×width float64 array, or None if a cell is
    not a number. loadtxt would skip an empty line (a row whose one cell is empty)."""
    if "" in lines:
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(lines), width) else None


def read_numeric_csv(
    text: str, what: str, key: str, text_key: bool = False
) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Read a CSV whose header starts with `key`, skipping blank lines; errors name
    the physical line. A cell is a number exactly when np.loadtxt reads it as float64.
    Returns the column names after the key, the key cells (None unless `text_key`
    is set), and the numeric cells as an N×M array: all columns, or those after
    the key when `text_key` is set.

    Each row is checked and joined as it is read, so the table's cells are never
    all held as strings at once. Every line is still read before a fault is
    reported, so an unreadable line is reported before any other fault, and
    ragged rows before non-numeric cells."""
    import csv  # only the commands that read a CSV load it

    reader = csv.reader(io.StringIO(text))
    header, ragged, lines = [], None, []
    keys, skip = ([] if text_key else None), int(text_key)
    try:
        for row in reader:
            if not row or ragged:
                continue
            if not header:
                header = [h.strip() for h in row]
            elif len(row) != len(header):
                ragged = f"line {reader.line_num}: ragged row, {len(row)} cells, expected {len(header)}"
            else:
                lines.append(",".join(row[skip:]))
                if text_key:
                    keys.append(row[0])
    except csv.Error as e:
        raise FormatError(f"unreadable {what}: {e}") from None
    if not header:
        raise FormatError(f"empty {what}")
    if len(header) < 2 or header[0] != key:
        raise FormatError(f'{what} header must be "{key},<column>,..."')
    named = set()
    for name in header:
        if name in named:
            raise FormatError(f"{what} header repeats column {name!r}")
        named.add(name)
    if ragged:
        raise FormatError(f"{what} {ragged}")
    if not lines:
        raise FormatError(f"{what} has a header but no data rows")
    values = _loadtxt(lines, len(header) - skip)
    if values is None:  # the same conversion, row by row, finds the row to report
        bad = next(i for i, ln in enumerate(lines) if _loadtxt([ln], len(header) - skip) is None)
        again = csv.reader(io.StringIO(text))
        line_nums = [again.line_num for r in again if r]  # the header's, then each row's
        raise FormatError(f"{what} line {line_nums[bad + 1]}: non-numeric cell")
    return header[1:], keys, values


def _is_name(v: object) -> bool:
    return isinstance(v, str) and v != ""


def parse_sensor_spec(text: str) -> SensorSpec:
    """Parse the JSON sensor-spec document."""
    doc = json_object(text, "sensor spec")
    if "sensor" not in doc or "bands" not in doc:
        raise FormatError('sensor spec must be an object with "sensor" and "bands" keys')
    if not isinstance(doc["bands"], list) or not doc["bands"]:
        raise ValidationError("sensor spec must list at least one band")
    if not _is_name(doc["sensor"]):
        raise FormatError("sensor name must be a non-empty string")
    bands = []
    for i, entry in enumerate(doc["bands"]):
        if not isinstance(entry, dict) or "name" not in entry or "center_nm" not in entry:
            raise FormatError('each band needs "name" and "center_nm"')
        if not _is_name(entry["name"]):
            raise FormatError(f"band {i}: name must be a non-empty string")
        center = json_float(entry["center_nm"], f"band {entry['name']!r}: center_nm")
        bands.append(TargetBand(name=entry["name"], center=center))
    return SensorSpec(sensor_name=doc["sensor"], bands=tuple(bands))


def parse_srf_table(text: str, spec: SensorSpec) -> SrfTable:
    """Parse the SRF CSV and align its columns to the spec's band order."""
    columns, _, data = read_numeric_csv(text, "SRF table", "wavelength_nm")
    col_index = {name: i + 1 for i, name in enumerate(columns)}
    missing = [n for n in spec.band_names if n not in col_index]
    if missing:
        raise ValidationError(f"SRF table missing column(s) for band(s): {missing}")
    # Column views, not a copy: SrfTable makes the one copy it keeps.
    sens = [data[:, col_index[name]] for name in spec.band_names]
    return SrfTable(
        grid=tuple(data[:, 0].tolist()), sensitivities=sens, band_names=tuple(spec.band_names)
    )
