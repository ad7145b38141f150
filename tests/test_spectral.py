import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hsadapt.errors import FormatError, UnitsError, ValidationError
from hsadapt.spectral import (
    SensorSpec,
    SrfTable,
    TargetBand,
    WavelengthGrid,
    parse_sensor_spec,
    parse_srf_table,
    srf_evaluate,
    wavelength_digest,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SPEC_2BAND = '{"sensor": "demo", "bands": [{"name": "B04", "center_nm": 665}, {"name": "B8A", "center_nm": 865}]}'


class TestWavelengthGrid:
    def test_valid(self):
        g = WavelengthGrid((430.0, 490.0, 560.0))
        assert len(g) == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            WavelengthGrid((490.0, 430.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            WavelengthGrid((490.0, 490.0))

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(ValidationError):
            WavelengthGrid((0.0, 490.0))
        with pytest.raises(ValidationError):
            WavelengthGrid((490.0, float("nan")))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            WavelengthGrid(())

    def test_digest_distinguishes_grids(self):
        a = WavelengthGrid((430.0, 490.0))
        b = WavelengthGrid((430.0, 491.0))
        assert wavelength_digest(a.values) != wavelength_digest(b.values)
        assert wavelength_digest(a.values) == wavelength_digest(WavelengthGrid((430.0, 490.0)).values)


class TestParseSensorSpec:
    def test_two_band_document(self):
        spec = parse_sensor_spec(SPEC_2BAND)
        assert spec.sensor_name == "demo"
        assert spec.band_names == ["B04", "B8A"]
        assert list(spec.centers) == [665.0, 865.0]

    def test_swir_band_near_2200(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B12", "center_nm": 2200}]}')
        assert spec.bands[0].center == 2200.0

    def test_duplicate_name_rejected(self):
        doc = '{"sensor": "s", "bands": [{"name": "B04", "center_nm": 665}, {"name": "B04", "center_nm": 700}]}'
        with pytest.raises(ValidationError, match="duplicate"):
            parse_sensor_spec(doc)

    def test_nonpositive_center_rejected(self):
        with pytest.raises(ValidationError):
            parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": -5}]}')

    def test_empty_band_list_rejected(self):
        with pytest.raises(ValidationError):
            parse_sensor_spec('{"sensor": "s", "bands": []}')

    def test_malformed_syntax(self):
        with pytest.raises(FormatError):
            parse_sensor_spec("{not json")


# Band count whose spec and SRF table each took seconds while their checks
# were quadratic in it, and far under a second since.
MANY_BANDS = 20_000


def many_band_spec() -> str:
    bands = ",".join(f'{{"name": "B{i}", "center_nm": {500 + i * 0.01}}}' for i in range(MANY_BANDS))
    return f'{{"sensor": "s", "bands": [{bands}]}}'


def test_a_spec_and_srf_table_of_many_bands_parse_in_linear_time():
    """Duplicate names and missing columns are found in one pass each."""
    text = many_band_spec()
    t0 = time.perf_counter()
    spec = parse_sensor_spec(text)
    spec_s = time.perf_counter() - t0
    names = ",".join(spec.band_names)
    ones = ",".join(["1"] * MANY_BANDS)
    csv = f"wavelength_nm,{names}\n400,{ones}\n700,{ones}\n"
    t0 = time.perf_counter()
    table = parse_srf_table(csv, spec)
    srf_s = time.perf_counter() - t0
    assert table.n_bands == MANY_BANDS
    assert spec_s < 1.0 and srf_s < 1.0, (spec_s, srf_s)


def make_table(grid, cols):
    names = tuple(sorted(cols))
    spec = SensorSpec("t", tuple(TargetBand(n, 500.0 + i) for i, n in enumerate(names)))
    return SrfTable(grid=tuple(grid), sensitivities=tuple(tuple(cols[n]) for n in names), band_names=names), spec


class TestParseSrfTable:
    def test_echo(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        table = parse_srf_table("wavelength_nm,B1\n490,0.5\n500,1.0\n510,0.5\n", spec)
        assert table.grid == (490.0, 500.0, 510.0)
        assert table.sensitivities.tolist() == [[0.5, 1.0, 0.5]]

    def test_missing_column(self):
        spec = parse_sensor_spec(
            '{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}, {"name": "B11", "center_nm": 1610}]}'
        )
        with pytest.raises(ValidationError, match="B11"):
            parse_srf_table("wavelength_nm,B1\n490,0.5\n510,0.5\n", spec)

    def test_negative_sensitivity(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        with pytest.raises(ValidationError, match="negative"):
            parse_srf_table("wavelength_nm,B1\n490,0.5\n510,-0.1\n", spec)

    def test_non_monotone_wavelengths(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        with pytest.raises(ValidationError):
            parse_srf_table("wavelength_nm,B1\n510,0.5\n490,0.5\n", spec)

    def test_non_numeric_cell(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        with pytest.raises(FormatError):
            parse_srf_table("wavelength_nm,B1\n490,zero\n510,0.5\n", spec)

    def test_micron_units_trap(self):
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        with pytest.raises(UnitsError):
            parse_srf_table("wavelength_nm,B1\n0.49,0.5\n0.51,0.5\n", spec)

    def test_column_order_follows_spec_not_file(self):
        spec = parse_sensor_spec(
            '{"sensor": "s", "bands": [{"name": "B2", "center_nm": 600}, {"name": "B1", "center_nm": 500}]}'
        )
        table = parse_srf_table("wavelength_nm,B1,B2\n490,0.1,0.9\n610,0.2,0.8\n", spec)
        assert table.band_names == ("B2", "B1")
        assert table.sensitivities[0].tolist() == [0.9, 0.8]

    def test_parse_holds_the_table_once(self):
        """The configs/ SRF (2,101 rows × 13 columns, 96 KB) is read a row at a
        time and its sensitivities copied once. Holding every cell as a string
        at once, or copying the sensitivities twice, peaks at 1.6 MB."""
        spec = parse_sensor_spec((CONFIGS / "sentinel2_l2a_12band.json").read_text())
        text = (CONFIGS / "sentinel2_l2a_gaussian_srf.csv").read_text()
        parse_srf_table(text, spec)  # the imports it makes are not counted
        tracemalloc.start()
        try:
            table = parse_srf_table(text, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.sensitivities.shape == (12, 2101)
        assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"

    def test_table_keeps_its_own_read_only_copy(self):
        sens = np.array([[0.5, 1.0, 0.5]])
        table = SrfTable(grid=(490.0, 500.0, 510.0), sensitivities=sens, band_names=("B1",))
        sens[0, 0] = 9.0
        assert table.sensitivities.tolist() == [[0.5, 1.0, 0.5]]
        assert table.sensitivities.flags.c_contiguous and not table.sensitivities.flags.writeable

    def test_tables_compare_by_value(self):
        """Sensitivities are an array, but tables still compare by value: a
        parsed table equals one built from tuples of the same numbers."""
        spec = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')
        table = parse_srf_table("wavelength_nm,B1\n490,0.5\n500,1.0\n510,0.5\n", spec)
        same = SrfTable(grid=(490.0, 500.0, 510.0), sensitivities=((0.5, 1.0, 0.5),), band_names=("B1",))
        assert table == same and not table != same
        assert table != SrfTable(grid=same.grid, sensitivities=((0.5, 1.0, 0.25),), band_names=("B1",))
        assert table != SrfTable(grid=same.grid, sensitivities=same.sensitivities, band_names=("B2",))
        assert table != SrfTable(grid=(490.0, 500.0, 520.0), sensitivities=same.sensitivities, band_names=("B1",))
        assert table != "not a table"
        with pytest.raises(TypeError, match="unhashable"):
            hash(table)


class TestSrfEvaluate:
    def setup_method(self):
        self.table, _ = make_table([490.0, 500.0, 510.0], {"B1": [0.5, 1.0, 0.5]})

    def test_exact_tabulation_points_bit_exact(self):
        assert srf_evaluate(self.table, 0, 490.0) == 0.5
        assert srf_evaluate(self.table, 0, 500.0) == 1.0

    def test_linear_midpoint(self):
        table, _ = make_table([490.0, 510.0], {"B1": [0.0, 1.0]})
        assert srf_evaluate(table, 0, 500.0) == 0.5

    def test_zero_outside_support(self):
        assert srf_evaluate(self.table, 0, 480.0) == 0.0
        assert srf_evaluate(self.table, 0, 510.0001) == 0.0

    def test_band_index_out_of_range(self):
        with pytest.raises(ValidationError):
            srf_evaluate(self.table, 1, 500.0)

    @given(st.floats(min_value=400.0, max_value=600.0))
    def test_nonnegative_everywhere(self, wl):
        assert srf_evaluate(self.table, 0, wl) >= 0.0

    @given(st.floats(min_value=490.0, max_value=510.0), st.floats(min_value=1e-4, max_value=0.5))
    def test_continuity_on_support(self, wl, eps):
        lo = max(490.0, wl - eps)
        hi = min(510.0, wl + eps)
        a, b = srf_evaluate(self.table, 0, lo), srf_evaluate(self.table, 0, hi)
        # slope is bounded by 0.05 per nm for this table
        assert abs(a - b) <= 0.051 * (hi - lo) + 1e-12
