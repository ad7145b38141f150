"""hsadapt benchmark: drives the public CLI and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs `src/hsadapt` and `configs/`
and exits 2 without a result when they are missing. Inputs are generated
from --seed into `.perfbench/` (deleted at exit), so nothing is downloaded.

Load: a closed loop with one client. Each operation is one
`python -m hsadapt.cli` process, started only after the previous one ended.
A run measures for --seconds of operation wall time and at least 25
operations, so that wall_s.tail lies above the median.

Workloads (why each exists):
  chips_srf    a stream of distinct 128x128x202 chips, `adapt --method srf`
               at the default single thread: the paper's real traffic, where
               import, SRF parsing and the weight build dominate.
  scene_naive  one 512x512x202 scene with a NaN no-data strip through
               `adapt --method naive --allow-nan`: it bypasses
               spectral/resample, so kernel or weight changes must not move
               it; read, gather, write and digest are all of the work.
  score_seg    `metrics seg --classes 12` over 1000 seeded 128x128 mask pairs
               with ignore pixels: the only path through `metrics` and
               `read_mask`, many small files instead of one big one.

--trace 0 prints the end-to-end metrics, measured on CLI processes:
  setup_s      the CLI's fixed cost per call: the workload's own `adapt`
               command on a 1x1-pixel cube with the same grid and flags
               (import, spec/SRF parse, weight build or band plan, and a
               one-pixel read, kernel, write and manifest); a bare
               `import hsadapt.cli` for score_seg. Median of several set-up
               processes spread over the run, between the operations.
  wall_s.p50   median wall time per operation
  wall_s.tail  the highest percentile with at least ten samples beyond it
  mpix_per_s   input pixels completed per second of operation wall time
               (chips/s = mpix_per_s / 0.016384 on chips_srf)
  cpu_s.p50    median user+system CPU per operation (os.wait4 rusage)
  peak_rss_mb  median of the operations' ru_maxrss
Each process is started through perfbench/launch.py, which times it and
reads its rusage, so that the memory of this process cannot leak into
ru_maxrss.
failed_frac (failed / attempted) is printed beside them and carried by the
result's `attempted` and `failed` fields.

--trace 1 runs the same operations in-process through `hsadapt.cli.main`,
with every public layer function that the CLI calls wrapped in a span
(name, start, end, parent, op id). Spans stay in memory and are written to
`.perfbench/spans-<workload>-seed<n>.jsonl` at the end. Each round runs an
untraced op, a timed op (spans only) and a memory op (spans plus
tracemalloc); the differences to the untraced op are the tracing overheads.
A layer that does not run on a workload reports 0. Metrics marked
[computed] are derived from array sizes and the reference weights, not timed.

Every output, the set-up processes' included, is checked against a
reference built outside the timed region by code independent of hsadapt: a
gather for naive, a fixed-order float64 accumulation for srf, a bincount
confusion matrix for seg. Adapt outputs must also have a manifest whose
output digest matches the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SENSOR = ROOT / "configs" / "sentinel2_l2a_12band.json"
SRF = ROOT / "configs" / "sentinel2_l2a_gaussian_srf.csv"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
OUT_DIR = ROOT / ".perfbench"

GRID_START, GRID_STEP, GRID_BANDS = 420.0, 10.0, 202
CHIP, SCENE = 128, 512
NAN_STRIP = 16  # NaN columns on the scene's left edge
MASK_PAIRS, CLASSES, IGNORE = 1000, 12, -1
MIN_OPS = 25  # so that wall_s.tail, with ten ops beyond it, is p60 or higher
SETUP_PROBES = 9
IMPORT_REPEATS = 3
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import hsadapt.cli; "
                "print(time.perf_counter() - t0)")
MB = 1e6

# Public functions of each measured layer that the CLI calls. `synth` only
# makes inputs and `errors` does no work, so neither is measured.
LAYER_FUNCS = {
    "spectral": ("parse_sensor_spec", "parse_srf_table"),
    "cube_io": ("read_cube", "write_cube", "read_mask"),
    "resample": ("build_weight_matrix", "resample_cube"),
    "band_select": ("nearest_band_indices", "apply_selection"),
    "metrics": ("accumulate_confusion", "miou"),
}
COMPUTED = {
    "resample.srf_samples",
    "resample.weight_nnz_frac",
    "resample.mmac_per_s",
    "resample.bytes_moved_mb",
}


# ---------------------------------------------------------------- processes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HSADAPT_THREADS", None)  # the CLI's default must be one thread
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    log: str


def spawn(argv: list[str], log_path: Path) -> Proc:
    """Run one child to completion through perfbench/launch.py, which times
    it and takes its rusage from os.wait4."""
    result = log_path.with_suffix(".json")
    result.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(result), *argv], stdout=log,
                                stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command it runs
            proc.wait()
            raise
    r = json.loads(result.read_text(encoding="utf-8"))
    return Proc(r["rc"], r["wall_s"], r["cpu_s"], r["maxrss_mb"],
                log_path.read_text(encoding="utf-8", errors="replace"))


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hsadapt.cli", *args]


# --------------------------------------------------------------- references


def read_container(path: Path, magic: bytes) -> tuple[dict, bytes, int]:
    raw = path.read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path.name}: bad magic {raw[:4]!r}")
    (hlen,) = struct.unpack("<Q", raw[4:12])
    return json.loads(raw[12 : 12 + hlen]), raw, 12 + hlen


def read_hsc(path: Path) -> tuple[dict, bytes, np.ndarray]:
    header, raw, off = read_container(path, b"HSC1")
    shape = (header["h"], header["w"], header["c"])
    return header, raw, np.frombuffer(raw, dtype="<f4", offset=off).reshape(shape)


def load_sensor() -> tuple[list[str], np.ndarray]:
    bands = json.loads(SENSOR.read_text(encoding="utf-8"))["bands"]
    return [b["name"] for b in bands], np.array([float(b["center_nm"]) for b in bands])


def load_srf(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    with SRF.open(newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r]
    header = [h.strip() for h in rows[0]]
    data = np.array([[float(c) for c in r] for r in rows[1:]])
    return data[:, 0], np.stack([data[:, header.index(n)] for n in names])


def ref_weights(grid: np.ndarray, srf_wl: np.ndarray, srf_cols: np.ndarray) -> np.ndarray:
    """(C_in, K) weights: each SRF sampled at the band centers, zero outside
    its table, columns normalized to unit sum."""
    raw = np.stack([np.interp(grid, srf_wl, col, left=0.0, right=0.0) for col in srf_cols], axis=1)
    return raw / raw.sum(axis=0)


def ref_srf(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fixed-order float64 accumulation over input bands in ascending order.

    Bands with zero weight are skipped: for finite inputs adding x*0.0 leaves
    the sum unchanged, so this equals the dense loop. NaN inputs count as 0
    and poison every output band that gives their input band weight.
    """
    flat = x.reshape(-1, x.shape[2])
    out = np.empty((flat.shape[0], weights.shape[1]), dtype=np.float32)
    for k in range(weights.shape[1]):
        acc = np.zeros(flat.shape[0])
        poisoned = np.zeros(flat.shape[0], dtype=bool)
        for j in np.flatnonzero(weights[:, k]):
            col = flat[:, j].astype(np.float64)
            nan = np.isnan(col)
            col[nan] = 0.0
            poisoned |= nan
            acc += col * weights[j, k]
        acc[poisoned] = np.nan
        out[:, k] = acc
    return out.reshape(x.shape[0], x.shape[1], -1)


def ref_naive(x: np.ndarray, grid: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the input band nearest each center, ties to the lower index."""
    idx = [int(np.argmin(np.abs(grid - mu))) for mu in centers]
    return np.ascontiguousarray(x[:, :, idx]), grid[idx]


def check_cube(out: Path, want: np.ndarray, want_wl: np.ndarray) -> str | None:
    """None when `out` holds exactly `want` and its manifest digests it."""
    try:
        header, raw, data = read_hsc(out)
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable output or manifest: {e!r}"
    if header.get("dtype") != "f32le" or header.get("layout") != "bip":
        return f"unexpected header {header}"
    if data.shape != want.shape:
        return f"output shape {data.shape}, expected {want.shape}"
    if header.get("wavelengths_nm") != [float(v) for v in want_wl]:
        return "output wavelengths differ from the reference"
    if not np.array_equal(data, want, equal_nan=True):
        bad = np.count_nonzero(~((data == want) | (np.isnan(data) & np.isnan(want))))
        return f"{bad} output values differ from the reference"
    if hashlib.sha256(raw).hexdigest() not in manifest.get("output_digests", {}).values():
        return "manifest output digest does not match the output file"
    return None


def ref_seg(pairs: list[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Pooled bincount confusion matrix and its exact mean IoU."""
    counts = np.zeros(CLASSES * CLASSES, dtype=np.int64)
    ignored = 0
    for pred, truth in pairs:
        keep = truth != IGNORE
        counts += np.bincount(CLASSES * truth[keep].astype(np.int64) + pred[keep],
                              minlength=CLASSES * CLASSES)
        ignored += int(np.count_nonzero(~keep))
    conf = counts.reshape(CLASSES, CLASSES)
    inter = np.diag(conf)
    union = conf.sum(axis=0) + conf.sum(axis=1) - inter
    ious = {c: Fraction(int(inter[c]), int(union[c])) for c in range(CLASSES) if union[c]}
    return {
        "per_class_iou": {str(c): float(v) for c, v in ious.items()},
        "miou": float(sum(ious.values(), Fraction(0)) / len(ious)),
        "ignored_pixels": ignored,
        "chips": len(pairs),
    }


def check_seg(report: Path, want: dict) -> str | None:
    try:
        got = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return f"unreadable report: {e!r}"
    bad = [k for k in want if got.get(k) != want[k]]
    return f"report fields {bad} differ from the reference" if bad else None


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    argv: list[str]  # CLI arguments after `hsadapt`
    pixels: int  # input pixels the op completes
    verify: Callable[[], str | None]
    want: np.ndarray | None = None  # expected adapt output, for the kernel probe


def _fresh(*paths: Path) -> None:
    """Remove a previous op's outputs so a stale file cannot pass the check."""
    for p in paths:
        p.unlink(missing_ok=True)
        Path(str(p) + ".manifest.json").unlink(missing_ok=True)


class Workload:
    method = ""  # adapt --method, or "" for score_seg
    flags: tuple[str, ...] = ()  # further adapt flags

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.names, self.centers = load_sensor()
        self.input_path = work / "input.hsc"
        self.out = work / "output.hsc"
        self.setup_in = work / "setup.hsc"
        self.setup_out = work / "setup-output.hsc"
        self.setup_want: tuple[np.ndarray, np.ndarray] | None = None
        self.weights: np.ndarray | None = None

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def _adapt_argv(self, input_path: Path, output: Path) -> list[str]:
        argv = ["adapt", "--method", self.method, "--sensor", str(SENSOR),
                "--input", str(input_path), "--output", str(output), *self.flags]
        return argv + (["--srf", str(SRF)] if self.method == "srf" else [])

    def _write_setup_cube(self, grid: np.ndarray) -> np.ndarray:
        """A seeded 1x1-pixel cube on `grid` for the set-up processes."""
        from hsadapt.cube_io import write_cube
        from hsadapt.spectral import WavelengthGrid
        from hsadapt.synth import gen_random_cube

        cube = gen_random_cube(1, 1, WavelengthGrid(tuple(float(v) for v in grid)), self.seed)
        self.setup_in.write_bytes(write_cube(cube))
        return cube.data

    def setup_op(self) -> tuple[list[str], Callable[[], str | None]]:
        """A set-up process's command line and its output check."""
        if not self.method:
            return [sys.executable, "-c", "import hsadapt.cli"], lambda: None
        _fresh(self.setup_out)
        return (cli_argv(self._adapt_argv(self.setup_in, self.setup_out)),
                lambda: check_cube(self.setup_out, *self.setup_want))


class ChipsSrf(Workload):
    method = "srf"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        from hsadapt.spectral import WavelengthGrid

        self.grid = WavelengthGrid(tuple(GRID_START + i * GRID_STEP for i in range(GRID_BANDS)))
        self.weights = ref_weights(self.grid.as_array(), *load_srf(self.names))
        self.setup_want = (ref_srf(self._write_setup_cube(self.grid.as_array()), self.weights),
                           self.centers)

    def op(self, i: int) -> Op:
        from hsadapt.cube_io import write_cube
        from hsadapt.synth import gen_random_cube

        cube = gen_random_cube(CHIP, CHIP, self.grid, self.seed * 1_000_000 + i)
        self.input_path.write_bytes(write_cube(cube))
        want = ref_srf(cube.data, self.weights)
        _fresh(self.out)
        return Op(self._adapt_argv(self.input_path, self.out), CHIP * CHIP,
                  lambda: check_cube(self.out, want, self.centers), want)


class SceneNaive(Workload):
    """One seeded scene from `hsadapt synth random` with a NaN strip, reused by every op."""

    method = "naive"
    flags = ("--allow-nan",)

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        from hsadapt.cube_io import HyperCube, write_cube

        gen = spawn(cli_argv(["synth", "random", "--height", str(SCENE), "--width", str(SCENE),
                              "--grid-start", str(GRID_START), "--grid-step", str(GRID_STEP),
                              "--bands", str(GRID_BANDS), "--seed", str(seed),
                              "--output", str(self.input_path)]), work / "synth.log")
        if gen.rc != 0:
            raise RuntimeError(f"hsadapt synth failed ({gen.rc}): {gen.log}")
        Path(str(self.input_path) + ".manifest.json").unlink(missing_ok=True)
        header, _, data = read_hsc(self.input_path)
        x = data.copy()
        x[:, :NAN_STRIP, :] = np.nan
        grid = np.array(header["wavelengths_nm"])
        self.input_path.write_bytes(write_cube(HyperCube(data=x, wavelengths=tuple(grid))))
        self.want, self.want_wl = ref_naive(x, grid, self.centers)
        self.setup_want = ref_naive(self._write_setup_cube(grid), grid, self.centers)

    def op(self, i: int) -> Op:
        _fresh(self.out)
        return Op(self._adapt_argv(self.input_path, self.out), SCENE * SCENE,
                  lambda: check_cube(self.out, self.want, self.want_wl), self.want)


class ScoreSeg(Workload):
    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        from hsadapt.cube_io import LabelMask, write_mask

        rng = np.random.default_rng(seed)
        self.pred_dir, self.truth_dir = work / "pred", work / "truth"
        self.pred_dir.mkdir()
        self.truth_dir.mkdir()
        pairs = []
        for i in range(MASK_PAIRS):
            # 16-px class blocks, 5% ignore pixels, 20% of predictions wrong.
            blocks = rng.integers(0, CLASSES, (CHIP // 16, CHIP // 16), dtype=np.int16)
            truth = np.kron(blocks, np.ones((16, 16), dtype=np.int16))
            truth[rng.random(truth.shape) < 0.05] = IGNORE
            pred = np.where(rng.random(truth.shape) < 0.2,
                            rng.integers(0, CLASSES, truth.shape, dtype=np.int16),
                            np.maximum(truth, 0)).astype(np.int16)
            name = f"chip_{i:04d}.hsm"
            (self.truth_dir / name).write_bytes(write_mask(LabelMask(truth, IGNORE)))
            (self.pred_dir / name).write_bytes(write_mask(LabelMask(pred, IGNORE)))
            pairs.append((pred, truth))
        self.want = ref_seg(pairs)
        self.report = work / "report.json"

    def op(self, i: int) -> Op:
        self.report.unlink(missing_ok=True)
        argv = ["metrics", "seg", "--pred-dir", str(self.pred_dir), "--truth-dir",
                str(self.truth_dir), "--classes", str(CLASSES), "--out", str(self.report)]
        return Op(argv, MASK_PAIRS * CHIP * CHIP, lambda: check_seg(self.report, self.want))


WORKLOADS = {"chips_srf": ChipsSrf, "scene_naive": SceneNaive, "score_seg": ScoreSeg}


# ------------------------------------------------------------------ metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; above the median once there are 22 or more."""
    s = sorted(samples)
    n = len(s)
    return 100.0 * (n - 10) / n, s[n - 11]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def report_line(name: str, m: dict, note: str = "") -> None:
    print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<8} {note}".rstrip())


def run_timed(wl: Workload, seconds: float) -> tuple[dict, int, int]:
    errors: list[str] = []
    attempted = 0

    def run(argv: list[str], verify: Callable[[], str | None], what: str) -> Proc:
        nonlocal attempted
        p = spawn(argv, wl.work / "op.log")
        err = f"exit code {p.rc}: {p.log.strip()[-500:]}" if p.rc != 0 else verify()
        attempted += 1
        if err:
            errors.append(f"{what}: {err}")
        return p

    def setup() -> None:
        setups.append(run(*wl.setup_op(), f"set-up {len(setups)}").wall_s)

    # One set-up process every seconds / SETUP_PROBES of op time, so that the
    # set-up median spans the same stretch of the run as the ops' medians.
    setups: list[float] = []
    procs: list[tuple[Proc, int]] = []
    measured = 0.0
    for i in itertools.count():
        if i and len(setups) < SETUP_PROBES and measured >= len(setups) * seconds / SETUP_PROBES:
            setup()
        op = wl.op(i)  # input generation and reference stay outside the timing
        p = run(cli_argv(op.argv), op.verify, f"op {i}")
        if i == 0:
            continue  # untimed warm-up: fills the page cache and bytecode cache
        procs.append((p, op.pixels))
        measured += p.wall_s
        if measured >= seconds and len(procs) >= MIN_OPS:
            break
    while len(setups) < SETUP_PROBES:
        setup()

    walls = [p.wall_s for p, _ in procs]
    pct, tail_v = tail(walls)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s.p50": metric(statistics.median(walls), "s"),
        "wall_s.tail": metric(tail_v, "s"),
        "mpix_per_s": metric(sum(px for _, px in procs) / sum(walls) / 1e6, "Mpx/s"),
        "cpu_s.p50": metric(statistics.median(p.cpu_s for p, _ in procs), "s"),
        "peak_rss_mb": metric(statistics.median(p.maxrss_mb for p, _ in procs), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-up processes",
        "wall_s.p50": f"median of {len(walls)} ops",
        "wall_s.tail": f"p{pct:.4g} of {len(walls)} ops",
    }
    for name, m in metrics.items():
        report_line(name, m, notes.get(name, ""))
    report_line("failed_frac", metric(len(errors) / attempted, "ratio"),
                f"{len(errors)} of {attempted} processes, warm-up and set-up included")
    for e in errors:
        print(f"  FAILED {e}", file=sys.stderr)
    return metrics, attempted, len(errors)


# ------------------------------------------------------------------ tracing


class Tracer:
    """In-memory spans: name, start, end, parent span index, op id, pass.
    Under tracemalloc a span also records its peak allocation above the live
    heap at its start."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.peaks: list[int] = []
        self.op = -1
        self.pass_ = ""
        self.kernel_args: tuple[tuple, dict] | None = None  # last resample_cube call

    @contextlib.contextmanager
    def span(self, name: str):
        mem = tracemalloc.is_tracing()
        rec = {"id": len(self.spans), "op": self.op, "pass": self.pass_, "name": name,
               "parent": self.stack[-1] if self.stack else None}
        if mem:
            base, peak = tracemalloc.get_traced_memory()
            if self.peaks:  # keep the parent's peak before resetting it
                self.peaks[-1] = max(self.peaks[-1], peak)
            tracemalloc.reset_peak()
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.peaks.append(0)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            peak = self.peaks.pop()
            if mem:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                rec["peak_alloc_mb"] = (peak - base) / MB
                if self.peaks:
                    self.peaks[-1] = max(self.peaks[-1], peak)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if name == "resample.resample_cube":
                self.kernel_args = (args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap each layer function both in its module and where hsadapt.cli
        imported it, so every call the CLI makes opens a span."""
        import importlib

        cli = importlib.import_module("hsadapt.cli")
        undo = []
        for layer, names in LAYER_FUNCS.items():
            mod = importlib.import_module(f"hsadapt.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                traced = self.wrap(f"{layer}.{fname}", orig)
                for ns in (mod, cli):
                    if getattr(ns, fname, None) is orig:
                        undo.append((ns, fname, orig))
                        setattr(ns, fname, traced)
        try:
            yield
        finally:
            for ns, fname, orig in undo:
                setattr(ns, fname, orig)

    def op_spans(self, op: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op]


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def run_inprocess(op: Op) -> str | None:
    """Run the op through hsadapt.cli.main; None when it exits 0. The caller
    checks the outputs afterwards, outside any timing."""
    import hsadapt.cli as cli

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stderr):
            rc = cli.main(op.argv)
    except Exception as e:  # a crash is a failed op, not a benchmark crash
        return f"raised {e!r}"
    return f"exit code {rc}: {stderr.getvalue().strip()[-500:]}" if rc != 0 else None


def run_traced(wl: Workload, seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    import hsadapt.resample as resample

    imports = []
    for _ in range(IMPORT_REPEATS):
        p = spawn([sys.executable, "-c", IMPORT_TIMER], wl.work / "import.log")
        if p.rc != 0:
            raise RuntimeError(f"import of hsadapt.cli failed ({p.rc}): {p.log}")
        imports.append(float(p.log.strip().splitlines()[-1]))

    tracer = Tracer()
    errors: list[str] = []
    untraced: list[float] = []
    timed_ops: list[int] = []
    mem_ops: list[int] = []
    kernel = {1: [], 2: []}
    threads_used = 1
    attempted = 0
    op_id = 0

    def check(err: str | None, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if err:
            errors.append(f"{what} op {op_id}: {err}")

    op = wl.op(0)
    check(run_inprocess(op) or op.verify(), "warm-up")

    def untraced_op() -> None:
        nonlocal op_id, op
        op_id += 1
        op = wl.op(op_id)
        t0 = time.perf_counter()
        err = run_inprocess(op)
        untraced.append(time.perf_counter() - t0)
        check(err or op.verify(), "untraced")

    def timed_op() -> None:
        nonlocal op_id, op, threads_used
        op_id += 1
        op = wl.op(op_id)
        tracer.op, tracer.pass_ = op_id, "time"
        with tracer.installed():
            with tracer.span("cli.main"):
                err = run_inprocess(op)
        captured, tracer.kernel_args = tracer.kernel_args, None
        check(err or op.verify(), "traced")
        timed_ops.append(op_id)
        if captured is None:
            return
        # Time the kernel again at the other thread count on the same inputs.
        args, kwargs = captured
        threads_used = kwargs.get("threads", 1)
        other = 2 if threads_used == 1 else 1
        with tracer.span(f"resample.resample_cube.t{other}"):
            out = resample.resample_cube(*args, **{**kwargs, "threads": other})
        same = np.array_equal(out.data, op.want, equal_nan=True)
        check(None if same else f"threads={other} output differs", "kernel-probe")
        for s in tracer.op_spans(op_id):
            if s["name"] == "resample.resample_cube":
                kernel[threads_used].append(_dur(s))
            elif s["name"] == f"resample.resample_cube.t{other}":
                kernel[other].append(_dur(s))

    def mem_op() -> None:
        nonlocal op_id, op
        op_id += 1
        op = wl.op(op_id)
        tracer.op, tracer.pass_ = op_id, "mem"
        tracemalloc.start()
        try:
            with tracer.installed(), tracer.span("cli.main"):
                err = run_inprocess(op)
        finally:
            tracemalloc.stop()
            tracer.kernel_args = None
        check(err or op.verify(), "tracemalloc")
        mem_ops.append(op_id)

    started = time.perf_counter()
    for rnd in itertools.count():
        # Alternate which of the untraced and span-only ops goes first, so an
        # order effect does not show up as tracing overhead.
        first, second = (untraced_op, timed_op) if rnd % 2 == 0 else (timed_op, untraced_op)
        for run_pass in (first, second, mem_op):
            run_pass()
        if time.perf_counter() - started >= seconds:
            break

    with open(spans_path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s) + "\n")

    def per_op(ops: list[int], fn: Callable[[list[dict]], float]) -> float:
        return statistics.median(fn(tracer.op_spans(o)) for o in ops)

    def total(name: str) -> Callable[[list[dict]], float]:
        return lambda spans: sum(_dur(s) for s in spans if s["name"] == name)

    def peak(name: str) -> Callable[[list[dict]], float]:
        return lambda spans: max((s["peak_alloc_mb"] for s in spans if s["name"] == name), default=0.0)

    def root(spans: list[dict]) -> float:
        return next(_dur(s) for s in spans if s["name"] == "cli.main")

    def cli_self(spans: list[dict]) -> float:
        main = next(s for s in spans if s["name"] == "cli.main")
        return _dur(main) - sum(_dur(s) for s in spans if s["parent"] == main["id"])

    m = {"cli.import_s": metric(statistics.median(imports), "s"),
         "cli.self_s": metric(per_op(timed_ops, cli_self), "s")}
    for layer, names in LAYER_FUNCS.items():
        for fname in names:
            m[f"{layer}.{fname}_s"] = metric(per_op(timed_ops, total(f"{layer}.{fname}")), "s")

    del m["resample.resample_cube_s"]  # reported per thread count below
    srf = wl.weights is not None
    c_in, k_out = GRID_BANDS, len(wl.names)
    pixels = op.pixels
    t1 = statistics.median(kernel[1]) if kernel[1] else 0.0
    t2 = statistics.median(kernel[2]) if kernel[2] else 0.0
    t_used = t1 if threads_used == 1 else t2
    read_s = m["cube_io.read_cube_s"]["value"]
    read_mb_per_s = wl.input_path.stat().st_size / MB / read_s if read_s else 0.0
    m.update({
        "resample.srf_samples": metric(c_in * k_out if srf else 0, "count"),
        "resample.weight_nnz_frac": metric(
            np.count_nonzero(wl.weights) / wl.weights.size if srf else 0.0, "ratio"),
        "resample.resample_cube_s.t1": metric(t1, "s"),
        "resample.resample_cube_s.t2": metric(t2, "s"),
        "resample.thread_speedup": metric(t1 / t2 if t1 and t2 else 0.0, "ratio"),
        "resample.mmac_per_s": metric(pixels * c_in * k_out / t_used / 1e6 if t_used else 0.0, "MMAC/s"),
        "resample.bytes_moved_mb": metric(pixels * (c_in + k_out) * 4 / MB if srf else 0.0, "MB"),
        "resample.peak_alloc_mb": metric(per_op(mem_ops, peak("resample.resample_cube")), "MB"),
        "cube_io.read_mb_per_s": metric(read_mb_per_s, "MB/s"),
        "cube_io.read_peak_alloc_mb": metric(per_op(mem_ops, peak("cube_io.read_cube")), "MB"),
        "trace.overhead_s": metric(per_op(timed_ops, root) - statistics.median(untraced), "s"),
        "trace.tracemalloc_overhead_s": metric(
            per_op(mem_ops, root) - statistics.median(untraced), "s"),
    })
    notes = {
        "cli.import_s": f"median of {len(imports)} fresh interpreters",
        "cli.self_s": "cli.main minus its layer spans",
        "trace.overhead_s": f"median untraced in-process op {statistics.median(untraced):.4g} s",
    }
    if srf:
        for t in (1, 2):
            notes[f"resample.resample_cube_s.t{t}"] = (
                f"{len(kernel[t])} ops" + (" (the CLI's thread count)" if t == threads_used else ""))
        notes["resample.mmac_per_s"] = f"dense C_in*K MACs at threads={threads_used}"
    for name in sorted(m):
        report_line(name, m[name], ("[computed] " if name in COMPUTED else "") + notes.get(name, ""))
    print(f"  {len(timed_ops)} traced rounds; spans written to {spans_path.relative_to(ROOT)}")
    for e in errors:
        print(f"  FAILED {e}", file=sys.stderr)
    return m, attempted, len(errors)


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (SRC / "hsadapt" / "cli.py", SENSOR, SRF) if not p.is_file()]
    if missing:
        print(f"perfbench: not an hsadapt checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"hsadapt benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed = run_traced(wl, args.seconds, spans)
        else:
            metrics, attempted, failed = run_timed(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
