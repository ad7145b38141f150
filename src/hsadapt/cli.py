"""Batch command-line front end.

Subcommands: adapt (project a cube into a sensor's band space), metrics
(score segmentation or regression outputs), synth (write synthetic fixtures),
inspect (summarize an HSC-v1 cube or an HSM-v1 mask).

Exit codes: 0 success, 1 data/validation error, 2 usage error.
"""

from __future__ import annotations

if __name__ == "__main__":  # `python -m hsadapt.cli`: before numpy loads
    from .entry import single_blas_thread

    single_blas_thread()

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from . import __version__
from .cube_io import (
    CUBE_MAGIC,
    MASK_MAGIC,
    CubeReader,
    CubeWriter,
    LabelMask,
    atomic_files,
    read_mask,
    read_targets_csv,
    require_finite,
)
from .errors import FormatError, HsadaptError, ValidationError
# Top-level imports are only what every command loading this module needs;
# each command imports the rest itself (see "Process cost" in the README).
from .spectral import (SensorSpec, WavelengthGrid, parse_sensor_spec, parse_srf_table,
                       wavelength_digest)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
NAIVE_STRIP_BYTES = 1024 * 1024  # payload bytes per naive strip in `adapt`


def _read_text(path: Path) -> tuple[bytes, str]:
    """A text input's bytes and their UTF-8 text, from one read."""
    raw = path.read_bytes()
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


_positive_int = _int_at_least(1)


MAX_CLASSES = 1 << 15  # labels are int16, so at most 0..32767 occur


def _class_count(text: str) -> int:
    n = _positive_int(text)
    if n > MAX_CLASSES:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_CLASSES} (labels are int16), got {n}")
    return n


def _manifest_path(output: Path) -> Path:
    return Path(str(output) + ".manifest.json")


def _write_manifest(
    f: BinaryIO,
    output: Path,
    output_digest: str,
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
        "output_digests": {str(output): output_digest},
        "wall_time_s": time.monotonic() - started,
        **extra,
    }
    f.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def _emit_report(report: dict, text_lines: list[str], out: str | None) -> None:
    doc = json.dumps(report, indent=2)
    if out:
        with atomic_files(out) as (f,):
            f.write((doc + "\n").encode("utf-8"))
    else:
        print(doc)
    for line in text_lines:
        print(line, file=sys.stderr)


def _plan(args: argparse.Namespace, spec: SensorSpec, grid: WavelengthGrid) -> tuple:
    """What `--method` makes of the input grid, built once per run: the
    function that adapts one checked strip, the adapted cube's wavelengths,
    the strip budget in bytes (None for the reader's default), the SRF's
    input digest and the method's manifest fields, with the grid's digest."""
    grid_hash = wavelength_digest(grid.values)
    if args.method == "naive":
        from .band_select import apply_selection, nearest_band_indices

        plan = nearest_band_indices(grid, spec)
        extra = {"selection_plan": plan.summary() | {"source_grid_hash": grid_hash}}
        # Strips of at most 1 MiB: the reader and its digest worker hold one,
        # and the gather has no run size to fill.
        adapt = lambda strip: apply_selection(strip, plan)
        return adapt, plan.wavelengths, NAIVE_STRIP_BYTES, {}, extra
    import hashlib
    from .resample import build_weight_matrix, resample_cube

    srf_path = Path(args.srf)
    srf_raw, srf_text = _read_text(srf_path)
    w = build_weight_matrix(grid, parse_srf_table(srf_text, spec), spec)
    srf_inputs = {str(srf_path): hashlib.sha256(srf_raw).hexdigest()}
    extra = {
        "weight_matrix": {
            "source_grid_hash": grid_hash,
            "digest": hashlib.sha256(w.weights.tobytes()).hexdigest(),
            "support_counts": list(w.support_counts),
        }
    }
    # Strips of up to STRIP_BYTES, so a 128×128×202 chip is one kernel call.
    # The strip loop has checked each strip, so the kernel checks no run.
    adapt = lambda strip: resample_cube(strip, w, allow_nan=True)
    return adapt, w.band_centers, None, srf_inputs, extra


def cmd_adapt(args: argparse.Namespace) -> int:
    """One pass over the input: check its header, plan, write the output's
    header, then read, check, adapt, write and hash one row strip at a time,
    so memory is bounded by a strip."""
    import hashlib  # loads OpenSSL, which only the commands that hash need

    started = time.monotonic()
    in_path = Path(args.input)
    sensor_path = Path(args.sensor)
    out_path = Path(args.output)
    sensor_raw, sensor_text = _read_text(sensor_path)
    sensor_digest = hashlib.sha256(sensor_raw).hexdigest()
    spec = parse_sensor_spec(sensor_text)
    params = {
        "method": args.method,
        "sensor": str(sensor_path),
        "input": str(in_path),
        "output": str(out_path),
        "srf": args.srf,
        "allow_nan": args.allow_nan,
    }
    in_hash = hashlib.sha256()
    with in_path.open("rb") as f:
        src = CubeReader(f, hasher=in_hash)  # the strip loop checks finiteness
        grid = WavelengthGrid(src.wavelengths)
        adapt, wavelengths, strip_bytes, srf_inputs, extra = _plan(args, spec, grid)
        with atomic_files(out_path, _manifest_path(out_path)) as (out, manifest):
            # Refuses a band order that no reader accepts before a strip is read.
            dst = CubeWriter(out, src.height, src.width, wavelengths)
            for strip in src.strips(strip_bytes):
                if not args.allow_nan:
                    require_finite(strip.data, "--allow-nan")
                dst.write(adapt(strip))
                del strip  # so the next strip is decoded while none is held
            inputs = {str(in_path): in_hash.hexdigest(), str(sensor_path): sensor_digest}
            _write_manifest(manifest, out_path, dst.hexdigest(), "adapt", params,
                            inputs | srf_inputs, extra, started)
    return EXIT_OK


def _mask_names(d: str) -> set[str]:
    """The directory's `*.hsm` entries, from one listing."""
    return {name for name in os.listdir(d) if name.endswith(".hsm")}


def _chip_name(name: str) -> str:
    """A mask file's chip name: its file name without `.hsm` ("" for `.hsm`)."""
    return name[:-4]


def _paired_masks(pred_dir: str, truth_dir: str) -> list[str]:
    """The `*.hsm` names both directories hold, in chip-name order. The
    caller joins a name to each directory when it reads that pair."""
    preds = _mask_names(pred_dir)
    truths = _mask_names(truth_dir)
    missing = sorted(map(_chip_name, preds ^ truths))
    if missing:
        raise ValidationError(f"unpaired chip file(s): {missing}")
    if not preds:
        raise ValidationError("no .hsm files found to score")
    del truths  # before the sort makes its keys
    return sorted(preds, key=_chip_name)


def _read_chip(path: str) -> LabelMask:
    """One mask file, its header checked before its payload is read; a bad
    one's error names it."""
    with open(path, "rb") as f:
        try:
            return read_mask(f)
        except HsadaptError as e:
            raise type(e)(f"{path}: {e}") from None


def cmd_metrics_seg(args: argparse.Namespace) -> int:
    from .metrics import accumulate_confusion, miou

    names = _paired_masks(args.pred_dir, args.truth_dir)
    acc = None
    per_chip = []
    for name in names:
        pred_path = os.path.join(args.pred_dir, name)
        truth_path = os.path.join(args.truth_dir, name)
        pred = _read_chip(pred_path)
        truth = _read_chip(truth_path)
        ignore = truth.ignore_value if args.ignore is None else args.ignore
        try:
            chip = accumulate_confusion(pred, truth, args.classes, ignore)
        except ValidationError as e:
            raise ValidationError(f"{pred_path} vs {truth_path}: {e}") from None
        # The first chip is the pool, so a bad one is refused before any
        # classes² matrix is allocated; every later chip merges into it.
        acc = chip if acc is None else acc.merge(chip)
        if args.per_chip:
            # A chip with no scored pixel has no mIoU; the mean leaves it out.
            score = miou(chip).miou if chip.counts.any() else None
            per_chip.append({"chip": _chip_name(name), "miou": score})
        del chip  # so the next chip's histogram is built while none is held
    report = miou(acc).to_dict()
    report["ignored_pixels"] = acc.ignored_pixels
    report["chips"] = len(names)
    if args.per_chip:
        report["per_chip"] = per_chip
        scored = [c["miou"] for c in per_chip if c["miou"] is not None]
        report["per_chip_mean_miou"] = float(np.mean(scored))
    text = [f"chips scored: {len(names)}", f"mIoU (pooled): {report['miou']:.6f}"]
    _emit_report(report, text, args.out)
    return EXIT_OK


def cmd_metrics_reg(args: argparse.Namespace) -> int:
    from .metrics import baseline_mse, nmse

    pred_ids, pred_names, pred = read_targets_csv(_read_text(Path(args.pred))[1])
    truth_ids, truth_names, truth = read_targets_csv(_read_text(Path(args.truth))[1])
    _, train_names, train = read_targets_csv(_read_text(Path(args.train))[1])
    if pred_names != truth_names or pred_names != train_names:
        raise ValidationError(
            f"parameter columns differ: pred {pred_names}, truth {truth_names}, train {train_names}"
        )
    if set(pred_ids) != set(truth_ids):
        raise ValidationError(
            f"sample ids differ between pred and truth: {sorted(set(pred_ids) ^ set(truth_ids))}"
        )
    # Align prediction rows to truth order by sample_id.
    pred_row = {i: n for n, i in enumerate(pred_ids)}
    order = [pred_row[i] for i in truth_ids]
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
    from .synth import AbsorptionFeatureSpec, gen_absorption_cube, gen_flat_cube, gen_random_cube

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
    with atomic_files(out_path, _manifest_path(out_path)) as (f, manifest):
        dst = CubeWriter(f, cube.height, cube.width, cube.wavelengths)
        dst.write(cube)  # the whole cube as one strip, written without a copy
        params = {k: v for k, v in vars(args).items() if k not in ("func", "parser")}
        _write_manifest(manifest, out_path, dst.hexdigest(), "synth", params, {}, {}, started)
    return EXIT_OK


def _cube_report(f: BinaryIO) -> dict:
    """Per-band min, max and mean of an HSC-v1 stream, folded over its row
    strips so memory stays bounded by one strip. NaNs are skipped; a band with
    no other value reports NaN."""
    src = CubeReader(f)
    lo = np.full(src.bands, np.nan, dtype=np.float32)
    hi = lo.copy()
    total = np.zeros(src.bands, dtype=np.float64)
    count = np.zeros(src.bands, dtype=np.int64)
    for strip in src.strips():
        x = strip.data.reshape(-1, src.bands)
        np.fmin(lo, np.fmin.reduce(x, axis=0), out=lo)
        np.fmax(hi, np.fmax.reduce(x, axis=0), out=hi)
        seen = np.isnan(x)
        np.logical_not(seen, out=seen)  # in place: one mask per strip, not two
        with np.errstate(invalid="ignore"):  # +inf and -inf in a band: its mean is NaN
            total += np.add.reduce(x, axis=0, dtype=np.float64, where=seen)
        count += np.count_nonzero(seen, axis=0)
        del strip, x, seen  # so the next strip is decoded while none is held
    return {
        "kind": "cube",
        "h": src.height,
        "w": src.width,
        "c": src.bands,
        "wavelength_span_nm": [min(src.wavelengths), max(src.wavelengths)],
        "per_band": [
            {
                "wavelength_nm": src.wavelengths[j],
                "min": float(lo[j]),
                "max": float(hi[j]),
                "mean": float(np.float32(total[j] / count[j])) if count[j] else float("nan"),
            }
            for j in range(src.bands)
        ],
    }


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    with path.open("rb") as f:
        magic = f.peek(4)[:4]  # not read, so a pipe reaches the readers' refusal
        if magic == CUBE_MAGIC:
            report = _cube_report(f)
        elif magic == MASK_MAGIC:
            mask = read_mask(f)
            values, counts = np.unique(mask.labels, return_counts=True)
            label_counts = {int(v): int(c) for v, c in zip(values, counts)}
            report = {
                "kind": "mask",
                "h": int(mask.labels.shape[0]),
                "w": int(mask.labels.shape[1]),
                "ignore_value": mask.ignore_value,
                "ignored_fraction": label_counts.get(mask.ignore_value, 0) / mask.labels.size,
                "label_counts": label_counts,
            }
        else:
            raise FormatError(f"{path}: not an HSC-v1 cube or HSM-v1 mask")
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
    p_adapt.add_argument("--srf", help="SRF table CSV (--method srf only)")
    p_adapt.add_argument("--allow-nan", action="store_true")
    p_adapt.set_defaults(func=cmd_adapt, parser=p_adapt)

    p_metrics = sub.add_parser("metrics", help="score predictions")
    msub = p_metrics.add_subparsers(dest="task", required=True)
    p_seg = msub.add_parser("seg", help="segmentation mIoU over paired mask directories")
    p_seg.add_argument("--pred-dir", required=True)
    p_seg.add_argument("--truth-dir", required=True)
    p_seg.add_argument("--classes", required=True, type=_class_count)
    p_seg.add_argument(
        "--ignore", type=int, help="truth label to drop (default: each truth mask's ignore_value)"
    )
    p_seg.add_argument("--per-chip", action="store_true")
    p_seg.add_argument("--out")
    p_seg.set_defaults(func=cmd_metrics_seg, parser=p_seg)
    p_reg = msub.add_parser("reg", help="regression normalized MSE")
    p_reg.add_argument("--pred", required=True)
    p_reg.add_argument("--truth", required=True)
    p_reg.add_argument("--train", required=True)
    p_reg.add_argument("--out")
    p_reg.set_defaults(func=cmd_metrics_reg, parser=p_reg)

    p_synth = sub.add_parser("synth", help="write synthetic HSC fixtures")
    # One subcommand per generator, each with only the options it reads.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--height", type=int, required=True)
    shared.add_argument("--width", type=int, required=True)
    shared.add_argument("--grid-start", type=float, default=400.0)
    shared.add_argument("--grid-step", type=float, default=5.0)
    shared.add_argument("--bands", type=int, default=202)
    shared.add_argument("--output", required=True)
    gen = p_synth.add_subparsers(dest="generator", required=True)
    p_flat = gen.add_parser("flat", parents=[shared])
    p_flat.add_argument("--value", type=float, default=0.5)
    p_absorption = gen.add_parser("absorption", parents=[shared])
    p_absorption.add_argument("--continuum", type=float, default=0.7)
    p_absorption.add_argument("--center", type=float, default=700.0)
    p_absorption.add_argument("--depth", type=float, default=0.2)
    p_absorption.add_argument("--fwhm", type=float, default=10.0)
    p_random = gen.add_parser("random", parents=[shared])
    p_random.add_argument("--seed", type=_int_at_least(0), default=0)
    for p in (p_flat, p_absorption, p_random):
        p.set_defaults(parser=p)
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="summarize a cube or mask file")
    p_inspect.add_argument("path")
    p_inspect.add_argument("--out")
    p_inspect.set_defaults(func=cmd_inspect, parser=p_inspect)

    return parser


def _overwritten_input(args: argparse.Namespace) -> str | None:
    """A usage error's message when a command would write over one of its
    own inputs, or None."""
    if args.command == "adapt":
        writes = {"--output": args.output,
                  "--output's manifest": str(_manifest_path(Path(args.output)))}
        reads = {"--input": args.input, "--sensor": args.sensor, "--srf": args.srf}
    elif args.command == "inspect":
        writes, reads = {"--out": args.out}, {"path": args.path}
    elif args.command == "metrics" and args.task == "reg":
        writes = {"--out": args.out}
        reads = {"--pred": args.pred, "--truth": args.truth, "--train": args.train}
    elif args.command == "metrics" and args.out and os.path.exists(args.out):
        # seg reads every *.hsm entry of its two directories; only an --out
        # that exists can be one of them, so only then are they listed.
        writes, reads = {"--out": args.out}, {}
        for opt, d in (("--pred-dir", args.pred_dir), ("--truth-dir", args.truth_dir)):
            try:
                reads |= {f"{opt}'s {name}": os.path.join(d, name) for name in _mask_names(d)}
            except OSError:  # a directory that cannot be listed fails when it is scored
                pass
    else:
        return None
    for w, out in writes.items():
        for r, src in reads.items():
            try:  # samefile: however each path is spelled, hard links too
                if out and src and os.path.samefile(out, src):
                    return f"{w} and {r} name the same file ({out}); it would be overwritten"
            except OSError:  # one of them does not exist
                pass
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # The top-level parser takes no option values, so the subcommand is the
    # first token that is not an option. Any other token before it is the
    # top-level parser's usage error, reported before the subcommand's parser
    # can report its own missing options; other usage errors print the
    # subcommand's usage.
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), 0)
    unknown = [tok for tok in argv[:at] if tok not in ("-h", "--help", "--version")]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args, leftovers = parser.parse_known_args(argv)
    if leftovers:
        args.parser.error(f"unrecognized arguments: {' '.join(leftovers)}")
    if args.command == "adapt":
        if args.method == "srf" and not args.srf:
            args.parser.error("--srf is required when --method srf")
        if args.method == "naive" and args.srf is not None:
            args.parser.error("--srf applies only to --method srf")
    clash = _overwritten_input(args)
    if clash:
        args.parser.error(clash)
    try:
        return args.func(args)
    except (HsadaptError, OSError, MemoryError) as e:
        # An input too large for this machine is a data error, like a bad one.
        print(f"hsadapt: error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Process entry point: main(), then exit. Freezing the collector first
    lets the interpreter's exit-time full collection skip every object alive
    at that point, numpy's included; the process is ending, so nothing that
    collection could free matters. main() itself never freezes, so callers
    that run it in-process keep collecting their garbage."""
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
