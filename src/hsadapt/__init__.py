"""hsadapt: adapt hyperspectral cubes into a target multispectral sensor's
band space (nearest-band selection or SRF resampling) and score the results.

The public names below are imported from their submodule on first use
(PEP 562), so `import hsadapt` alone loads no submodule and no numpy, and a
CLI process pays only for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("band_select", "SelectionPlan apply_selection nearest_band_indices"),
        ("cube_io", "HyperCube LabelMask read_cube write_cube read_mask write_mask read_targets_csv"),
        ("metrics", "ConfusionMatrix SegReport RegReport accumulate_confusion miou baseline_mse nmse"),
        ("resample", "WeightMatrix build_weight_matrix resample_cube weight_summary"),
        ("spectral", "WavelengthGrid TargetBand SensorSpec SrfTable parse_sensor_spec "
                     "parse_srf_table srf_evaluate"),
        ("synth", "AbsorptionFeatureSpec gen_flat_cube gen_absorption_cube gen_random_cube "
                  "attenuation_experiment"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
