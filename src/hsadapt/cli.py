"""Batch command-line front end.

Subcommands: adapt (project a cube into a sensor's band space), metrics
(score segmentation or regression outputs), synth (write synthetic fixtures),
inspect (summarize cubes, masks, plans, weight matrices).

Exit codes: 0 success, 1 data/validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .band_select import SelectionPlan, apply_selection, nearest_band_indices
from .cube_io import (
    CUBE_MAGIC,
    MASK_MAGIC,
    read_cube,
    read_mask,
    read_targets_csv,
    write_cube,
    write_mask,
)
from .errors import HsadaptError, ValidationError
from .metrics import ConfusionMatrix, accumulate_confusion, baseline_mse, miou, nmse
from .resample import (
    build_weight_matrix,
    read_weights_csv,
    resample_cube,
    weight_summary,
    write_weights_csv,
)
from .spectral import WavelengthGrid, parse_sensor_spec, parse_srf_table
from .synth import (
    AbsorptionFeatureSpec,
    gen_absorption_cube,
    gen_flat_cube,
    gen_random_cube,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _default_threads() -> int:
    env = os.environ.get("HSADAPT_THREADS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError:
        raise ValidationError(f"HSADAPT_THREADS={env!r} is not an integer") from None
    if n < 1:
        raise ValidationError("HSADAPT_THREADS must be >= 1")
    return n


def _write_manifest(
    output: Path,
    subcommand: str,
    params: dict,
    inputs: dict[str, str],
    extra: dict,
    started: float,
) -> None:
    manifest = {
        "tool": "hsadapt",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "input_digests": inputs,
        "output_digests": {str(output): _sha256(output)},
        "wall_time_s": time.monotonic() - started,
        **extra,
    }
    Path(str(output) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _emit_report(report: dict, text_lines: list[str], out: str | None) -> None:
    doc = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(doc + "\n", encoding="utf-8")
    else:
        print(doc)
    for line in text_lines:
        print(line, file=sys.stderr)


def cmd_adapt(args: argparse.Namespace) -> int:
    started = time.monotonic()
    in_path = Path(args.input)
    sensor_path = Path(args.sensor)
    spec = parse_sensor_spec(sensor_path.read_text(encoding="utf-8"))
    # Hash the cube from the bytes already read, then let them go before the kernel runs.
    raw = in_path.read_bytes()
    inputs = {str(in_path): hashlib.sha256(raw).hexdigest(), str(sensor_path): _sha256(sensor_path)}
    cube = read_cube(raw, allow_non_finite=args.allow_nan)
    del raw
    threads = args.threads if args.threads is not None else _default_threads()

    if args.method == "naive":
        plan = nearest_band_indices(cube.grid, spec)
        adapted = apply_selection(cube, plan)
        extra = {"selection_plan": plan.summary() | {"source_grid_hash": plan.source_grid_hash}}
    else:
        srf_path = Path(args.srf)
        table = parse_srf_table(srf_path.read_text(encoding="utf-8"), spec)
        inputs[str(srf_path)] = _sha256(srf_path)
        w = build_weight_matrix(cube.grid, table, spec)
        adapted = resample_cube(
            cube, w, tile=args.tile, threads=threads, allow_nan=args.allow_nan
        )
        extra = {
            "weight_matrix": {
                "source_grid_hash": w.source_grid_hash,
                "digest": hashlib.sha256(w.weights.tobytes()).hexdigest(),
                "support_counts": list(w.support_counts),
            }
        }

    out_path = Path(args.output)
    out_path.write_bytes(write_cube(adapted))
    params = {
        "method": args.method,
        "sensor": str(sensor_path),
        "input": str(in_path),
        "output": str(out_path),
        "srf": args.srf,
        "threads": threads,
        "tile": args.tile,
        "allow_nan": args.allow_nan,
    }
    _write_manifest(out_path, "adapt", params, inputs, extra, started)
    return EXIT_OK


def _paired_masks(pred_dir: Path, truth_dir: Path) -> list[tuple[Path, Path]]:
    preds = {p.stem: p for p in sorted(pred_dir.glob("*.hsm"))}
    truths = {p.stem: p for p in sorted(truth_dir.glob("*.hsm"))}
    missing = sorted(set(preds) ^ set(truths))
    if missing:
        raise ValidationError(f"unpaired chip file(s): {missing}")
    if not preds:
        raise ValidationError("no .hsm files found to score")
    return [(preds[s], truths[s]) for s in sorted(preds)]


def cmd_metrics_seg(args: argparse.Namespace) -> int:
    pairs = _paired_masks(Path(args.pred_dir), Path(args.truth_dir))
    acc = ConfusionMatrix(n_classes=args.classes)
    per_chip = []
    for pred_path, truth_path in pairs:
        pred = read_mask(pred_path.read_bytes())
        truth = read_mask(truth_path.read_bytes())
        chip = accumulate_confusion(pred, truth, args.classes, args.ignore)
        if args.per_chip:
            per_chip.append({"chip": pred_path.stem, "miou": miou(chip).to_dict()["miou"]})
        acc = acc.merge(chip)
    report = miou(acc).to_dict()
    report["ignored_pixels"] = acc.ignored_pixels
    report["chips"] = len(pairs)
    if args.per_chip:
        report["per_chip"] = per_chip
        report["per_chip_mean_miou"] = float(np.mean([c["miou"] for c in per_chip]))
    text = [f"chips scored: {len(pairs)}", f"mIoU (pooled): {report['miou']:.6f}"]
    _emit_report(report, text, args.out)
    return EXIT_OK


def cmd_metrics_reg(args: argparse.Namespace) -> int:
    pred_ids, pred_names, pred = read_targets_csv(Path(args.pred).read_text(encoding="utf-8"))
    truth_ids, truth_names, truth = read_targets_csv(Path(args.truth).read_text(encoding="utf-8"))
    _, train_names, train = read_targets_csv(Path(args.train).read_text(encoding="utf-8"))
    if pred_names != truth_names or pred_names != train_names:
        raise ValidationError(
            f"parameter columns differ: pred {pred_names}, truth {truth_names}, train {train_names}"
        )
    if set(pred_ids) != set(truth_ids):
        raise ValidationError(
            f"sample ids differ between pred and truth: {sorted(set(pred_ids) ^ set(truth_ids))}"
        )
    # Align prediction rows to truth order by sample_id.
    order = [pred_ids.index(i) for i in truth_ids]
    report = nmse(pred[order], truth, baseline_mse(train), tuple(pred_names))
    doc = report.to_dict()
    text = [f"parameters: {', '.join(pred_names)}", f"normalized MSE: {report.nmse:.6f}"]
    _emit_report(doc, text, args.out)
    return EXIT_OK


def _parse_grid(args: argparse.Namespace) -> WavelengthGrid:
    values = tuple(
        args.grid_start + i * args.grid_step for i in range(args.bands)
    )
    return WavelengthGrid(values)


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.monotonic()
    grid = _parse_grid(args)
    if args.generator == "flat":
        cube = gen_flat_cube(args.height, args.width, grid, args.value)
    elif args.generator == "absorption":
        feature = AbsorptionFeatureSpec(
            continuum=args.continuum, center=args.center, depth=args.depth, fwhm=args.fwhm
        )
        cube = gen_absorption_cube(args.height, args.width, grid, feature)
    else:
        cube = gen_random_cube(args.height, args.width, grid, args.seed)
    out_path = Path(args.output)
    out_path.write_bytes(write_cube(cube))
    params = {k: v for k, v in vars(args).items() if k not in ("func",)}
    _write_manifest(out_path, "synth", params, {}, {}, started)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    raw = path.read_bytes()
    if raw[:4] == CUBE_MAGIC:
        cube = read_cube(raw, allow_non_finite=True)
        data = cube.data
        report = {
            "kind": "cube",
            "h": cube.height,
            "w": cube.width,
            "c": cube.bands,
            "wavelength_span_nm": [min(cube.wavelengths), max(cube.wavelengths)],
            "per_band": [
                {
                    "wavelength_nm": cube.wavelengths[j],
                    "min": float(np.nanmin(data[:, :, j])),
                    "max": float(np.nanmax(data[:, :, j])),
                    "mean": float(np.nanmean(data[:, :, j])),
                }
                for j in range(cube.bands)
            ],
        }
    elif raw[:4] == MASK_MAGIC:
        mask = read_mask(raw)
        total = mask.labels.size
        ignored = int(np.count_nonzero(mask.labels == mask.ignore_value))
        values, counts = np.unique(mask.labels, return_counts=True)
        report = {
            "kind": "mask",
            "h": int(mask.labels.shape[0]),
            "w": int(mask.labels.shape[1]),
            "ignore_value": mask.ignore_value,
            "ignored_fraction": ignored / total,
            "label_counts": {int(v): int(c) for v, c in zip(values, counts)},
        }
    else:
        text = raw.decode("utf-8", errors="replace")
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            plan = SelectionPlan.from_json(text)
            report = {"kind": "selection_plan", **plan.summary(),
                      "source_grid_hash": plan.source_grid_hash}
        else:
            w = read_weights_csv(text)
            report = {"kind": "weight_matrix", **weight_summary(w)}
    _emit_report(report, [], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsadapt",
        description="Adapt hyperspectral cubes to a multispectral sensor's bands and score outputs.",
    )
    parser.add_argument("--version", action="version", version=f"hsadapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="project a cube into a target sensor's band space")
    p_adapt.add_argument("--method", required=True, choices=["naive", "srf"])
    p_adapt.add_argument("--sensor", required=True, help="sensor spec JSON")
    p_adapt.add_argument("--input", required=True, help="input HSC cube")
    p_adapt.add_argument("--output", required=True, help="output HSC cube")
    p_adapt.add_argument("--srf", help="SRF table CSV (required for --method srf)")
    p_adapt.add_argument("--threads", type=int, default=None)
    p_adapt.add_argument("--tile", type=int, default=64)
    p_adapt.add_argument("--allow-nan", action="store_true")
    p_adapt.set_defaults(func=cmd_adapt)

    p_metrics = sub.add_parser("metrics", help="score predictions")
    msub = p_metrics.add_subparsers(dest="task", required=True)
    p_seg = msub.add_parser("seg", help="segmentation mIoU over paired mask directories")
    p_seg.add_argument("--pred-dir", required=True)
    p_seg.add_argument("--truth-dir", required=True)
    p_seg.add_argument("--classes", required=True, type=int)
    p_seg.add_argument("--ignore", type=int, default=-1)
    p_seg.add_argument("--per-chip", action="store_true")
    p_seg.add_argument("--out")
    p_seg.set_defaults(func=cmd_metrics_seg)
    p_reg = msub.add_parser("reg", help="regression normalized MSE")
    p_reg.add_argument("--pred", required=True)
    p_reg.add_argument("--truth", required=True)
    p_reg.add_argument("--train", required=True)
    p_reg.add_argument("--out")
    p_reg.set_defaults(func=cmd_metrics_reg)

    p_synth = sub.add_parser("synth", help="write synthetic HSC fixtures")
    p_synth.add_argument("generator", choices=["flat", "absorption", "random"])
    p_synth.add_argument("--height", type=int, required=True)
    p_synth.add_argument("--width", type=int, required=True)
    p_synth.add_argument("--grid-start", type=float, default=400.0)
    p_synth.add_argument("--grid-step", type=float, default=5.0)
    p_synth.add_argument("--bands", type=int, default=202)
    p_synth.add_argument("--value", type=float, default=0.5, help="flat generator value")
    p_synth.add_argument("--continuum", type=float, default=0.7)
    p_synth.add_argument("--center", type=float, default=700.0)
    p_synth.add_argument("--depth", type=float, default=0.2)
    p_synth.add_argument("--fwhm", type=float, default=10.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="summarize a cube, mask, plan, or weights file")
    p_inspect.add_argument("path")
    p_inspect.add_argument("--out")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "adapt" and args.method == "srf" and not args.srf:
        parser.error("--srf is required when --method srf")
    try:
        return args.func(args)
    except HsadaptError as e:
        print(f"hsadapt: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"hsadapt: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError) as e:
        print(f"hsadapt: error: unreadable file ({e})", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
