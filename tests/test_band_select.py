import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsadapt.band_select import SelectionPlan, apply_selection, nearest_band_indices
from hsadapt.cube_io import HyperCube
from hsadapt.errors import GridMismatchError, ValidationError
from hsadapt.spectral import SensorSpec, TargetBand, WavelengthGrid
from oracles import argmin_nearest


def sensor(*centers):
    return SensorSpec("t", tuple(TargetBand(f"B{i}", c) for i, c in enumerate(centers)))


def cube_from(arr, grid):
    return HyperCube(data=np.asarray(arr, dtype=np.float32), wavelengths=tuple(grid))


class TestNearestBandIndices:
    def test_simple_nearest(self):
        plan = nearest_band_indices(WavelengthGrid((430.0, 490.0, 560.0)), sensor(495.0))
        assert plan.indices == (1,)
        assert plan.distances == (5.0,)

    def test_equidistant_tie_takes_lower_index(self):
        plan = nearest_band_indices(WavelengthGrid((480.0, 500.0)), sensor(490.0))
        assert plan.indices == (0,)
        assert plan.distances == (10.0,)

    def test_repeated_indices_allowed_and_reported(self):
        plan = nearest_band_indices(WavelengthGrid((480.0, 800.0)), sensor(479.0, 481.0))
        assert plan.indices == (0, 0)
        assert plan.summary()["repeated_indices"] == [0]

    def test_matches_linear_scan_oracle_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            grid_vals = np.sort(rng.uniform(400.0, 2500.0, size=200))
            grid_vals = np.unique(grid_vals)
            centers = rng.uniform(400.0, 2500.0, size=12)
            grid = WavelengthGrid(tuple(grid_vals))
            plan = nearest_band_indices(grid, sensor(*centers))
            for k, mu in enumerate(centers):
                j, d = argmin_nearest(list(grid_vals), mu)
                assert plan.indices[k] == j
                assert plan.distances[k] == d

    @given(
        st.lists(st.floats(min_value=1.0, max_value=3000.0), min_size=1, max_size=40, unique=True),
        st.floats(min_value=1.0, max_value=3000.0),
    )
    @settings(max_examples=200)
    def test_property_matches_oracle(self, vals, center):
        vals = sorted(vals)
        grid = WavelengthGrid(tuple(vals))
        plan = nearest_band_indices(grid, sensor(center))
        j, d = argmin_nearest(vals, center)
        assert plan.indices == (j,)
        assert plan.distances == (d,)

    def test_monotone_stability(self):
        # moving a wavelength strictly closer to the target makes it the winner
        grid = WavelengthGrid((430.0, 490.0, 560.0))
        plan = nearest_band_indices(grid, sensor(495.0))
        assert plan.indices == (1,)
        moved = WavelengthGrid((430.0, 490.0, 496.0))
        assert nearest_band_indices(moved, sensor(495.0)).indices == (2,)


class TestApplySelection:
    def test_identity_gather(self):
        grid = (500.0, 600.0, 700.0)
        cube = cube_from(np.random.default_rng(0).random((3, 3, 3)), grid)
        plan = nearest_band_indices(WavelengthGrid(grid), sensor(*grid))
        out = apply_selection(cube, plan)
        assert np.array_equal(out.data, cube.data)
        assert out.wavelengths == grid

    def test_direct_gather_reverse_and_drop(self):
        grid = (500.0, 600.0, 700.0)
        data = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
        cube = cube_from(data, grid)
        plan = SelectionPlan(indices=(2, 0), distances=(0.0, 0.0), source_wavelengths=grid)
        out = apply_selection(cube, plan)
        assert out.data.shape == (2, 2, 2)
        assert np.array_equal(out.data[..., 0], data[..., 2])
        assert np.array_equal(out.data[..., 1], data[..., 0])
        assert out.wavelengths == plan.wavelengths == (700.0, 500.0)
        # a repeated index repeats its wavelength
        plan = SelectionPlan(indices=(1, 1, 2), distances=(0.0,) * 3, source_wavelengths=grid)
        out = apply_selection(cube, plan)
        assert np.array_equal(out.data, data[..., [1, 1, 2]])
        assert out.wavelengths == plan.wavelengths == (600.0, 600.0, 700.0)

    def test_full_scale_chip_gather(self):
        # 128×128×202 chip down to 12 bands
        grid = tuple(400.0 + 5.0 * i for i in range(202))
        cube = cube_from(np.random.default_rng(7).random((128, 128, 202)), grid)
        centers = np.linspace(450.0, 1350.0, 12)
        plan = nearest_band_indices(cube.grid, sensor(*centers))
        out = apply_selection(cube, plan)
        assert out.data.shape == (128, 128, 12)

    def test_grid_mismatch_rejected(self):
        grid = (500.0, 600.0, 700.0)
        cube = cube_from(np.zeros((2, 2, 3)), grid)
        plan = SelectionPlan(indices=(0,), distances=(0.0,), source_wavelengths=(500.0, 600.0, 701.0))
        with pytest.raises(GridMismatchError):
            apply_selection(cube, plan)
        # float32 wavelengths are other values than the float64 ones a plan was
        # built from, although numpy 2 takes np.float32(500.1) == 500.1 as True.
        fine = (500.1, 600.1, 700.1)
        plan = nearest_band_indices(WavelengthGrid(fine), sensor(600.0))
        with pytest.raises(GridMismatchError):
            apply_selection(cube_from(np.zeros((2, 2, 3)), np.array(fine, dtype=np.float32)), plan)
        # and the other way round: a plan given float32 wavelengths, a float64 cube
        plan = SelectionPlan(indices=(1,), distances=(0.0,),
                             source_wavelengths=np.array(fine, dtype=np.float32))
        with pytest.raises(GridMismatchError):
            apply_selection(cube_from(np.zeros((2, 2, 3)), fine), plan)

    def test_index_out_of_range_rejected(self):
        """The plan refuses the index when it is made, before any cube is seen."""
        grid = (500.0, 600.0, 700.0)
        with pytest.raises(ValidationError, match=r"plan index 3 is not an integer in \[0, 3\)"):
            SelectionPlan(indices=(3,), distances=(0.0,), source_wavelengths=grid)

    @pytest.mark.parametrize("indices, distances, match", [
        ((5,), (0.0,), r"plan index 5 is not an integer in \[0, 2\)"),
        ((-1,), (0.0,), r"plan index -1 is not"),
        ((1.5,), (0.0,), r"plan index 1\.5 is not"),
        ((True,), (0.0,), r"plan index True is not"),
        ((), (), "at least one index, and one distance per index"),
        ((0, 1), (0.0,), "at least one index, and one distance per index"),
    ], ids=["past-the-end", "negative", "float", "bool", "no-index", "distance-count"])
    def test_a_plan_that_does_not_fit_its_grid_is_not_made(self, indices, distances, match):
        with pytest.raises(ValidationError, match=match):
            SelectionPlan(indices=indices, distances=distances, source_wavelengths=(1.0, 2.0))

    def test_a_numpy_integer_index_is_an_index(self):
        plan = SelectionPlan(indices=(np.int64(1),), distances=(0.0,), source_wavelengths=(1.0, 2.0))
        assert plan.wavelengths == (2.0,)

    def test_gather_purity(self):
        grid = (500.0, 600.0, 700.0, 800.0)
        cube = cube_from(np.random.default_rng(3).random((4, 5, 4)), grid)
        plan = nearest_band_indices(cube.grid, sensor(510.0, 790.0))
        out = apply_selection(cube, plan)
        for i in range(4):
            for j in range(5):
                assert set(out.data[i, j].tolist()) <= set(cube.data[i, j].tolist())

    def test_permutation_covariance(self):
        # jointly permuting band axis + grid leaves the selected output unchanged;
        # the only valid grid permutation keeping sortedness is identity, so
        # exercise via two differently-ordered raw constructions of one cube
        grid = (500.0, 600.0, 700.0)
        data = np.random.default_rng(5).random((2, 2, 3)).astype(np.float32)
        perm = [2, 0, 1]
        permuted_sorted = np.argsort([grid[p] for p in perm])
        data_p = data[:, :, perm][:, :, permuted_sorted]
        cube_a = cube_from(data, grid)
        cube_b = cube_from(data_p, grid)
        assert np.array_equal(cube_a.data, cube_b.data)
