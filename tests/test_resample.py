import math

import numpy as np
import pytest

from hsadapt.cube_io import HyperCube
from hsadapt.errors import EmptySupportError, GridMismatchError, ValidationError
from hsadapt.resample import WeightMatrix, build_weight_matrix, resample_cube, weight_summary
from hsadapt.spectral import SensorSpec, SrfTable, TargetBand, WavelengthGrid
from oracles import normalized_weight_column, resample_cube_loops


def table_for(names_cols, grid):
    names = tuple(n for n, _ in names_cols)
    return SrfTable(
        grid=tuple(grid),
        sensitivities=tuple(tuple(c) for _, c in names_cols),
        band_names=names,
    )


def sensor(*bands):
    return SensorSpec("t", tuple(TargetBand(n, c) for n, c in bands))


def gaussian(x, center, fwhm):
    return math.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)


class TestBuildWeightMatrix:
    def test_triangle_column_normalization(self):
        grid = WavelengthGrid((490.0, 500.0, 510.0))
        table = table_for([("B1", [0.5, 1.0, 0.5])], [490.0, 500.0, 510.0])
        w = build_weight_matrix(grid, table, sensor(("B1", 500.0)))
        assert np.allclose(w.weights[:, 0], [0.25, 0.5, 0.25], atol=0)
        assert w.support_counts == (3,)

    def test_empty_support_is_hard_error(self):
        grid = WavelengthGrid((490.0, 500.0, 510.0))
        table = table_for([("B9", [0.0, 1.0, 0.0])], [900.0, 950.0, 1000.0])
        with pytest.raises(EmptySupportError, match="B9"):
            build_weight_matrix(grid, table, sensor(("B9", 950.0)))

    def test_gaussian_column_matches_independent_oracle(self):
        # 202 evenly spaced wavelengths, Gaussian SRF centered 842 with FWHM 115
        grid_vals = [400.0 + 10.0 * i for i in range(202)]
        tab_grid = [500.0 + i for i in range(1201)]
        tab_col = [gaussian(x, 842.0, 115.0) for x in tab_grid]
        grid = WavelengthGrid(tuple(grid_vals))
        table = table_for([("B08", tab_col)], tab_grid)
        w = build_weight_matrix(grid, table, sensor(("B08", 842.0)))
        oracle = normalized_weight_column(grid_vals, tab_grid, tab_col)
        assert np.max(np.abs(w.weights[:, 0] - np.asarray(oracle))) < 1e-12

    def test_columns_stochastic_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            grid_vals = np.unique(np.sort(rng.uniform(400.0, 2500.0, n)))
            # center the response on a grid point so support is never empty
            center = float(rng.choice(grid_vals))
            width = float(rng.uniform(20.0, 400.0))
            tab_grid = np.linspace(center - 2 * width, center + 2 * width, 101)
            tab_col = [gaussian(x, center, width) for x in tab_grid]
            grid = WavelengthGrid(tuple(grid_vals))
            table = table_for([("B", tab_col)], list(tab_grid))
            w = build_weight_matrix(grid, table, sensor(("B", center)))
            assert np.all(w.weights >= 0)
            assert abs(w.weights[:, 0].sum() - 1.0) <= 1e-9

    def test_matrices_compare_by_value(self):
        """Weights are an array, but matrices still compare by value, over the
        weights and all three tuples."""
        def matrix(weights=(0.25, 0.75), names=("B1",), centers=(500.0,), source=(490.0, 510.0)):
            return WeightMatrix(weights=np.array(weights).reshape(2, 1), band_names=names,
                                band_centers=centers, source_wavelengths=source)

        w = matrix()
        assert w == matrix() and not w != matrix()
        assert w != matrix(weights=(0.5, 0.5))
        assert w != matrix(names=("B2",))
        assert w != matrix(centers=(501.0,))
        assert w != matrix(source=(490.0, 520.0))
        assert w != "not a matrix"
        with pytest.raises(TypeError, match="unhashable type: 'WeightMatrix'"):
            hash(w)

    @pytest.mark.parametrize("weights, names, centers, source, match", [
        (np.full((2, 1), 0.5), ("B1", "B2"), (500.0, 510.0), (490.0, 510.0),
         r"weights are \(2, 1\) with 2 band names; 2 wavelengths and 2 centers need \(2, 2\)"),
        (np.full((2, 1), 0.5), ("B1",), (500.0,), (490.0, 500.0, 510.0),
         r"weights are \(2, 1\) with 1 band names; 3 wavelengths and 1 centers need \(3, 1\)"),
        (np.full((2, 1), 0.5), ("B1", "B2"), (500.0,), (490.0, 510.0),
         r"weights are \(2, 1\) with 2 band names; 2 wavelengths and 1 centers need \(2, 1\)"),
        (np.zeros((2, 0)), (), (), (490.0, 510.0), "nonempty 2-D float64 matrix"),
    ], ids=["columns-vs-bands", "rows-vs-wavelengths", "names-vs-columns", "no-target"])
    def test_a_matrix_whose_fields_disagree_is_not_made(self, weights, names, centers, source,
                                                         match):
        """Every field is tied to the weights' shape, so weight_summary and
        resample_cube never meet a matrix that disagrees with itself."""
        with pytest.raises(ValidationError, match=match):
            WeightMatrix(weights=weights, band_names=names, band_centers=centers,
                         source_wavelengths=source)


def flat_cube(h, w, grid, value):
    return HyperCube(
        data=np.full((h, w, len(grid)), value, dtype=np.float32), wavelengths=tuple(grid)
    )


def simple_weights():
    grid = WavelengthGrid((490.0, 500.0, 510.0))
    table = table_for([("B1", [0.5, 1.0, 0.5])], [490.0, 500.0, 510.0])
    return grid, build_weight_matrix(grid, table, sensor(("B1", 500.0)))


class TestResampleCube:
    def test_constant_preservation(self):
        grid, w = simple_weights()
        cube = flat_cube(4, 4, grid.values, 0.7)
        out = resample_cube(cube, w)
        assert np.all(out.data == np.float32(0.7))

    def test_single_pixel_value(self):
        grid, w = simple_weights()
        cube = HyperCube(
            data=np.asarray([[[2.0, 4.0, 6.0]]], dtype=np.float32), wavelengths=grid.values
        )
        out = resample_cube(cube, w)
        assert out.data[0, 0, 0] == np.float32(4.0)

    def test_matches_double_loop_oracle(self):
        grid_vals = [400.0 + 5.0 * i for i in range(202)]
        rng = np.random.default_rng(99)
        data = rng.random((16, 16, 202), dtype=np.float32)
        cube = HyperCube(data=data, wavelengths=tuple(grid_vals))
        tab_grid = [450.0 + 2.0 * i for i in range(400)]
        cols = [
            ("Ba", [gaussian(x, 600.0, 80.0) for x in tab_grid]),
            ("Bb", [gaussian(x, 900.0, 120.0) for x in tab_grid]),
        ]
        table = table_for(cols, tab_grid)
        w = build_weight_matrix(
            WavelengthGrid(tuple(grid_vals)), table, sensor(("Ba", 600.0), ("Bb", 900.0))
        )
        out = resample_cube(cube, w)
        oracle = resample_cube_loops(data.astype(float).tolist(), w.weights.tolist())
        oracle = np.asarray(oracle)
        rel = np.abs(out.data.astype(np.float64) - oracle) / np.maximum(np.abs(oracle), 1e-30)
        assert rel.max() < 1e-6

    def test_linearity(self):
        grid, w = simple_weights()
        rng = np.random.default_rng(5)
        x = rng.random((8, 8, 3), dtype=np.float32)
        y = rng.random((8, 8, 3), dtype=np.float32)
        a, b = 2.0, -0.5
        combined = HyperCube(data=(a * x + b * y).astype(np.float32), wavelengths=grid.values)
        cx = HyperCube(data=x, wavelengths=grid.values)
        cy = HyperCube(data=y, wavelengths=grid.values)
        lhs = resample_cube(combined, w).data.astype(np.float64)
        rhs = a * resample_cube(cx, w).data.astype(np.float64) + b * resample_cube(cy, w).data.astype(np.float64)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-6)) < 1e-6

    def test_convex_combination_bounds(self):
        grid, w = simple_weights()
        rng = np.random.default_rng(8)
        data = rng.random((6, 6, 3), dtype=np.float32)
        cube = HyperCube(data=data, wavelengths=grid.values)
        out = resample_cube(cube, w)
        supported = w.weights[:, 0] > 0
        lo = data[:, :, supported].min(axis=2)
        hi = data[:, :, supported].max(axis=2)
        assert np.all(out.data[:, :, 0] >= np.nextafter(lo, -np.inf))
        assert np.all(out.data[:, :, 0] <= np.nextafter(hi, np.inf))

    def test_tiling_and_threads_bit_identical(self):
        grid_vals = tuple(400.0 + 5.0 * i for i in range(50))
        rng = np.random.default_rng(11)
        cube = HyperCube(data=rng.random((37, 23, 50), dtype=np.float32), wavelengths=grid_vals)
        tab_grid = [400.0 + i for i in range(300)]
        table = table_for([("B", [gaussian(x, 520.0, 60.0) for x in tab_grid])], tab_grid)
        w = build_weight_matrix(WavelengthGrid(grid_vals), table, sensor(("B", 520.0)))
        ref = resample_cube(cube, w, tile=37 * 23, threads=1)
        for tile in (1, 5, 64):
            for threads in (1, 4):
                out = resample_cube(cube, w, tile=tile, threads=threads)
                assert out.data.tobytes() == ref.data.tobytes()

    def test_grid_hash_mismatch(self):
        grid, w = simple_weights()
        other = flat_cube(2, 2, (491.0, 500.0, 510.0), 1.0)
        with pytest.raises(GridMismatchError):
            resample_cube(other, w)
        # float32 wavelengths are other values than the float64 ones the weights
        # were built from, although numpy 2 takes np.float32(500.1) == 500.1 as True.
        fine = (490.1, 500.1, 510.1)
        table = table_for([("B1", [0.5, 1.0, 0.5])], fine)
        w = build_weight_matrix(WavelengthGrid(fine), table, sensor(("B1", 500.1)))
        with pytest.raises(GridMismatchError):
            resample_cube(flat_cube(2, 2, np.array(fine, dtype=np.float32), 1.0), w)
        # and the other way round: weights given float32 wavelengths, a float64 cube
        w = WeightMatrix(weights=w.weights, band_names=w.band_names, band_centers=w.band_centers,
                         source_wavelengths=np.array(fine, dtype=np.float32))
        with pytest.raises(GridMismatchError):
            resample_cube(flat_cube(2, 2, fine, 1.0), w)

    def test_band_count_mismatch(self):
        grid, w = simple_weights()
        cube = flat_cube(2, 2, (490.0, 500.0), 1.0)
        with pytest.raises((GridMismatchError, ValidationError)):
            resample_cube(cube, w)

    def test_nan_rejected_by_default(self):
        grid, w = simple_weights()
        data = np.full((2, 2, 3), 0.5, dtype=np.float32)
        data[0, 0, 1] = np.nan
        cube = HyperCube(data=data, wavelengths=grid.values)
        with pytest.raises(ValidationError):
            resample_cube(cube, w)

    def test_nan_propagates_only_to_supported_outputs(self):
        grid_vals = (490.0, 500.0, 510.0, 900.0)
        grid = WavelengthGrid(grid_vals)
        cols = [("B1", [0.5, 1.0, 0.5, 0.0]), ("B9", [0.0, 0.0, 0.0, 1.0])]
        table = table_for(cols, list(grid_vals))
        w = build_weight_matrix(grid, table, sensor(("B1", 500.0), ("B9", 900.0)))
        data = np.full((1, 2, 4), 0.5, dtype=np.float32)
        data[0, 0, 1] = np.nan  # supported by B1 only
        cube = HyperCube(data=data, wavelengths=grid_vals)
        out = resample_cube(cube, w, allow_nan=True)
        assert np.isnan(out.data[0, 0, 0])
        assert out.data[0, 0, 1] == np.float32(0.5)
        assert not np.any(np.isnan(out.data[0, 1]))

    def test_infinity_reaches_only_supported_outputs(self):
        grid_vals = (490.0, 500.0, 510.0, 900.0)
        cols = [("B1", [0.5, 1.0, 0.5, 0.0]), ("B9", [0.0, 0.0, 0.0, 1.0])]
        w = build_weight_matrix(
            WavelengthGrid(grid_vals), table_for(cols, list(grid_vals)),
            sensor(("B1", 500.0), ("B9", 900.0)),
        )
        data = np.full((1, 1, 4), 0.5, dtype=np.float32)
        data[0, 0, 3] = np.inf  # supported by B9 only; B1 never computes inf*0
        out = resample_cube(HyperCube(data=data, wavelengths=grid_vals), w, allow_nan=True)
        assert out.data[0, 0, 0] == np.float32(0.5)
        assert out.data[0, 0, 1] == np.inf

    @pytest.mark.parametrize("threads", [1, 2])
    def test_opposite_infinities_sum_to_nan_without_a_warning(self, threads):
        grid_vals = (490.0, 500.0, 510.0, 900.0)
        cols = [("B1", [0.5, 1.0, 0.5, 0.0]), ("B9", [0.0, 0.0, 0.0, 1.0])]
        w = build_weight_matrix(
            WavelengthGrid(grid_vals), table_for(cols, list(grid_vals)),
            sensor(("B1", 500.0), ("B9", 900.0)),
        )
        data = np.full((1, 2, 4), 0.5, dtype=np.float32)
        data[:, :, 0], data[:, :, 2] = np.inf, -np.inf  # both supported by B1
        # The test configuration turns a RuntimeWarning into an error.
        out = resample_cube(HyperCube(data=data, wavelengths=grid_vals), w,
                            tile=1, threads=threads, allow_nan=True)
        # The CPU's own NaN for inf - inf may be negative (0xFFC00000 on x86);
        # the output NaN is always 0x7FC00000.
        assert np.all(out.data[:, :, 0].view(np.uint32) == 0x7FC00000)
        assert np.all(out.data[:, :, 1] == np.float32(0.5))


class TestWeightSummary:
    def test_one_hot_column(self):
        grid = WavelengthGrid((490.0, 500.0, 510.0))
        table = table_for([("B1", [0.0, 1.0, 0.0])], [490.0, 500.0, 510.0])
        w = build_weight_matrix(grid, table, sensor(("B1", 500.0)))
        band = weight_summary(w)["bands"][0]
        assert band["support_count"] == 1
        assert band["effective_width_bands"] == pytest.approx(1.0)
        assert band["weighted_mean_wavelength_nm"] == pytest.approx(500.0)

    def test_uniform_column(self):
        n = 5
        grid_vals = tuple(500.0 + 10.0 * i for i in range(n))
        table = table_for([("B", [1.0] * n)], list(grid_vals))
        w = build_weight_matrix(WavelengthGrid(grid_vals), table, sensor(("B", 520.0)))
        band = weight_summary(w)["bands"][0]
        assert band["effective_width_bands"] == pytest.approx(n)

    def test_gaussian_effective_width_between_one_and_support(self):
        grid_vals = [400.0 + 10.0 * i for i in range(202)]
        tab_grid = [500.0 + i for i in range(1201)]
        table = table_for([("B08", [gaussian(x, 842.0, 115.0) for x in tab_grid])], tab_grid)
        w = build_weight_matrix(WavelengthGrid(tuple(grid_vals)), table, sensor(("B08", 842.0)))
        band = weight_summary(w)["bands"][0]
        assert 1.0 < band["effective_width_bands"] < band["support_count"]
