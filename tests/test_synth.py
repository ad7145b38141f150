import math

import numpy as np
import pytest

from hsadapt.band_select import apply_selection, nearest_band_indices
from hsadapt.errors import ValidationError
from hsadapt.resample import build_weight_matrix, resample_cube
from hsadapt.spectral import SensorSpec, SrfTable, TargetBand, WavelengthGrid
from hsadapt.synth import (
    AbsorptionFeatureSpec,
    attenuation_experiment,
    gen_absorption_cube,
    gen_flat_cube,
    gen_random_cube,
)
from oracles import gaussian_line, normalized_weight_column

GRID_3 = WavelengthGrid((500.0, 600.0, 700.0))

# Frozen from the hand oracle (grid 400..1000 step 5, feature 700/0.7/0.2/10,
# Gaussian SRF FWHM 60 tabulated at 1 nm over [520, 880]).
PINNED_RETENTION_SRF = 0.16439930368988775


def gaussian(x, center, fwhm):
    return math.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)


def experiment_fixture():
    grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(121)))
    tab_grid = [520.0 + float(i) for i in range(361)]
    tab_col = [gaussian(x, 700.0, 60.0) for x in tab_grid]
    table = SrfTable(grid=tuple(tab_grid), sensitivities=(tuple(tab_col),), band_names=("B7",))
    spec = SensorSpec("t", (TargetBand("B7", 700.0),))
    feature = AbsorptionFeatureSpec(continuum=0.7, center=700.0, depth=0.2, fwhm=10.0)
    return grid, table, spec, feature


class TestFeatureSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AbsorptionFeatureSpec(continuum=0.0, center=700.0, depth=0.1, fwhm=10.0)
        with pytest.raises(ValidationError):
            AbsorptionFeatureSpec(continuum=0.5, center=700.0, depth=0.6, fwhm=10.0)
        with pytest.raises(ValidationError):
            AbsorptionFeatureSpec(continuum=0.5, center=700.0, depth=0.1, fwhm=0.0)


class TestGenerators:
    def test_flat_cube_values(self):
        cube = gen_flat_cube(2, 2, GRID_3, 0.7)
        assert cube.data.shape == (2, 2, 3)
        assert np.all(cube.data == np.float32(0.7))

    def test_values_that_float32_rounds_to_infinity_are_refused(self):
        """The cube stores float32, so a finite float64 beyond its range is
        refused (not cast to +inf with an overflow warning), and float32's
        largest value is kept."""
        for value in (1e39, -1e39):
            with pytest.raises(ValidationError, match="value must be finite as float32"):
                gen_flat_cube(2, 2, GRID_3, value)
        largest = float(np.finfo(np.float32).max)
        assert np.all(gen_flat_cube(1, 1, GRID_3, largest).data == np.float32(largest))
        feature = AbsorptionFeatureSpec(continuum=1e39, center=600.0, depth=0.2, fwhm=10.0)
        with pytest.raises(ValidationError, match="continuum must be finite as float32"):
            gen_absorption_cube(2, 2, GRID_3, feature)

    def test_flat_zero_resamples_to_zero(self):
        grid = GRID_3
        table = SrfTable(
            grid=(500.0, 600.0, 700.0),
            sensitivities=((0.5, 1.0, 0.5),),
            band_names=("B",),
        )
        spec = SensorSpec("t", (TargetBand("B", 600.0),))
        w = build_weight_matrix(grid, table, spec)
        out = resample_cube(gen_flat_cube(3, 3, grid, 0.0), w)
        assert np.all(out.data == 0.0)

    def test_flat_through_selection_is_flat(self):
        spec = SensorSpec("t", (TargetBand("B", 610.0),))
        cube = gen_flat_cube(2, 2, GRID_3, 0.3)
        plan = nearest_band_indices(GRID_3, spec)
        out = apply_selection(cube, plan)
        assert np.all(out.data == np.float32(0.3))

    def test_absorption_center_value(self):
        feature = AbsorptionFeatureSpec(continuum=0.7, center=600.0, depth=0.2, fwhm=50.0)
        cube = gen_absorption_cube(1, 1, GRID_3, feature)
        assert cube.data[0, 0, 1] == np.float32(0.5)

    def test_absorption_half_maximum_identity(self):
        grid = WavelengthGrid((575.0, 600.0, 625.0))
        feature = AbsorptionFeatureSpec(continuum=0.7, center=600.0, depth=0.2, fwhm=50.0)
        cube = gen_absorption_cube(1, 1, grid, feature)
        assert cube.data[0, 0, 0] == pytest.approx(0.6, abs=1e-7)
        assert cube.data[0, 0, 2] == pytest.approx(0.6, abs=1e-7)

    def test_absorption_matches_formula_oracle(self):
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(202)))
        feature = AbsorptionFeatureSpec(continuum=0.8, center=900.0, depth=0.3, fwhm=40.0)
        cube = gen_absorption_cube(1, 1, grid, feature)
        want = [gaussian_line(l, 0.8, 900.0, 0.3, 40.0) for l in grid.values]
        assert np.max(np.abs(cube.data[0, 0] - np.asarray(want, dtype=np.float32))) < 1e-7

    @pytest.mark.parametrize("fwhm", [1e-300, 5e-324])
    def test_a_line_narrower_than_float_range_is_zero_off_center(self, fwhm):
        """((λ − center)/fwhm)² overflows to infinity, and exp(−inf) = 0 is
        the narrow line's exact value, so the cube is made without a warning."""
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(50)))
        feature = AbsorptionFeatureSpec(continuum=0.7, center=500.0, depth=0.2, fwhm=fwhm)
        spectrum = gen_absorption_cube(1, 1, grid, feature).data[0, 0]
        j = grid.values.index(500.0)
        assert spectrum[j] == np.float32(0.5)
        assert np.all(np.delete(spectrum, j) == np.float32(0.7))

    def test_absorption_center_outside_span_rejected(self):
        feature = AbsorptionFeatureSpec(continuum=0.7, center=3000.0, depth=0.2, fwhm=50.0)
        with pytest.raises(ValidationError, match="outside"):
            gen_absorption_cube(1, 1, GRID_3, feature)

    def test_random_cube_deterministic(self):
        a = gen_random_cube(4, 4, GRID_3, seed=0)
        b = gen_random_cube(4, 4, GRID_3, seed=0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_random_cube_seeds_differ(self):
        a = gen_random_cube(4, 4, GRID_3, seed=0)
        b = gen_random_cube(4, 4, GRID_3, seed=1)
        assert a.data.tobytes() != b.data.tobytes()

    def test_random_cube_range(self):
        cube = gen_random_cube(8, 8, GRID_3, seed=2)
        assert np.all(cube.data >= 0.0)
        assert np.all(cube.data < 1.0)


class TestAttenuationExperiment:
    def test_narrow_feature_pinned_retention(self):
        grid, table, spec, feature = experiment_fixture()
        report = attenuation_experiment(grid, table, spec, feature)
        assert report["d_naive"] == pytest.approx(0.2, abs=1e-12)
        assert report["retention_naive"] == pytest.approx(1.0, abs=1e-12)
        assert report["d_srf"] < report["d_naive"]
        assert report["retention_srf"] == pytest.approx(PINNED_RETENTION_SRF, abs=1e-12)
        assert report["srf_effective_width_nm"] > feature.fwhm

    def test_pinned_value_reproduced_by_hand_oracle(self):
        grid, table, spec, feature = experiment_fixture()
        col = normalized_weight_column(
            list(grid.values), list(table.grid), list(table.sensitivities[0])
        )
        spectrum = [gaussian_line(l, 0.7, 700.0, 0.2, 10.0) for l in grid.values]
        d_srf = 0.7 - sum(s * w for s, w in zip(spectrum, col))
        assert d_srf / 0.2 == pytest.approx(PINNED_RETENTION_SRF, abs=1e-12)

    def test_broad_feature_nearly_unattenuated(self):
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(121)))
        tab_grid = [650.0 + float(i) for i in range(101)]
        tab_col = [gaussian(x, 700.0, 20.0) for x in tab_grid]
        table = SrfTable(grid=tuple(tab_grid), sensitivities=(tuple(tab_col),), band_names=("B7",))
        spec = SensorSpec("t", (TargetBand("B7", 700.0),))
        feature = AbsorptionFeatureSpec(continuum=0.7, center=700.0, depth=0.2, fwhm=400.0)
        report = attenuation_experiment(grid, table, spec, feature)
        assert report["retention_srf"] == pytest.approx(report["retention_naive"], rel=0.05)

    def test_one_hot_srf_equals_selection(self):
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(121)))
        # support collapses to the single grid point at the feature center
        tab_grid = (699.0, 700.0, 701.0)
        table = SrfTable(grid=tab_grid, sensitivities=((0.0, 1.0, 0.0),), band_names=("B7",))
        spec = SensorSpec("t", (TargetBand("B7", 700.0),))
        feature = AbsorptionFeatureSpec(continuum=0.7, center=700.0, depth=0.2, fwhm=10.0)
        report = attenuation_experiment(grid, table, spec, feature)
        assert report["d_srf"] == pytest.approx(report["d_naive"], abs=1e-15)

    def test_off_center_feature_rejected(self):
        grid, table, spec, _ = experiment_fixture()
        feature = AbsorptionFeatureSpec(continuum=0.7, center=702.0, depth=0.2, fwhm=10.0)
        with pytest.raises(ValidationError, match="target band center"):
            attenuation_experiment(grid, table, spec, feature)

    def test_coarse_grid_rejected(self):
        grid = WavelengthGrid(tuple(400.0 + 50.0 * i for i in range(13)))
        tab_grid = [520.0 + float(i) for i in range(361)]
        tab_col = [gaussian(x, 700.0, 60.0) for x in tab_grid]
        table = SrfTable(grid=tuple(tab_grid), sensitivities=(tuple(tab_col),), band_names=("B7",))
        spec = SensorSpec("t", (TargetBand("B7", 700.0),))
        feature = AbsorptionFeatureSpec(continuum=0.7, center=700.0, depth=0.2, fwhm=10.0)
        with pytest.raises(ValidationError, match="coarse"):
            attenuation_experiment(grid, table, spec, feature)
