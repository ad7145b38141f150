"""The CLI as a process: which modules a command loads, what `run()`, the
process entry point, hands back to the shell, and which threads it starts."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsadapt
from hsadapt.cli import main
from hsadapt.cube_io import LabelMask, write_cube, write_mask
from hsadapt.spectral import WavelengthGrid
from hsadapt.synth import gen_random_cube

REPO = Path(__file__).resolve().parents[1]
SENSOR = str(REPO / "configs" / "sentinel2_l2a_12band.json")
SRF = str(REPO / "configs" / "sentinel2_l2a_gaussian_srf.csv")


def python(*args: str, blas_threads: str | None = None, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports hsadapt from this checkout, with
    OPENBLAS_NUM_THREADS set to `blas_threads` or unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


@pytest.fixture
def chip(tmp_path):
    grid = WavelengthGrid(tuple(420.0 + 10.0 * i for i in range(202)))
    path = tmp_path / "chip.hsc"
    path.write_bytes(write_cube(gen_random_cube(8, 8, grid, seed=0)))
    return path


def srf_argv(chip: Path) -> list[str]:
    return ["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
            "--input", str(chip), "--output", str(chip.with_name("out.hsc"))]


# Modules that `adapt --method srf` does not run; each costs import time.
UNUSED_BY_SRF = (
    "hsadapt.synth", "hsadapt.band_select", "hsadapt.metrics", "concurrent.futures", "fractions",
)


def test_srf_adapt_imports_only_what_it_runs(chip):
    code = (
        "import sys, json\n"
        "from hsadapt.cli import main\n"
        f"rc = main({srf_argv(chip)!r})\n"
        f"print(json.dumps([rc, [m for m in {UNUSED_BY_SRF!r} if m in sys.modules]]))\n"
    )
    p = python("-c", code)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == [0, []]


def test_only_a_hashed_cube_read_loads_the_digest_queue(tmp_path, chip):
    """`_queue` maps a shared library into every process that imports it; only
    a command that hashes a cube as it reads it loads it."""
    code = (
        "import sys, json\n"
        "from hsadapt.cli import main\n"
        "rcs = [main(a) for a in {argvs!r}]\n"
        "print(json.dumps([rcs, '_queue' in sys.modules]))\n"
    )
    report = ["inspect", str(chip), "--out", str(tmp_path / "report.json")]
    for argvs, loaded in (([report], False), ([report, srf_argv(chip)], True)):
        p = python("-c", code.format(argvs=argvs))
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout) == [[0] * len(argvs), loaded]


# Modules that cost a command memory or import time: OpenSSL's libcrypto
# (`_hashlib`, 3.4 MB resident), `decimal` (which `fractions` loads), the
# digest worker's `_queue`, the kernel pool, and hsadapt's own layers.
WATCHED = (
    "hashlib", "_hashlib", "csv", "fractions", "decimal", "_queue", "concurrent.futures",
    "hsadapt.synth", "hsadapt.band_select", "hsadapt.metrics", "hsadapt.resample",
)
HASHED = {"hashlib", "_hashlib"}


def footprint_argv(d: Path, chip: Path, command: str) -> list[str]:
    mask = d / "mask.hsm"
    mask.write_bytes(write_mask(LabelMask(labels=np.zeros((4, 4), dtype=np.int16))))
    for name in ("pred", "truth", "train"):
        (d / f"{name}.csv").write_text("sample_id,K\na,1\nb,2\n")
    out = str(d / "out")
    return {
        "adapt-srf": srf_argv(chip),
        "adapt-naive": ["adapt", "--method", "naive", "--sensor", SENSOR,
                        "--input", str(chip), "--output", out],
        "synth": ["synth", "random", "--height", "2", "--width", "2", "--output", out],
        "inspect-cube": ["inspect", str(chip), "--out", out],
        "inspect-mask": ["inspect", str(mask), "--out", out],
        "metrics-seg": seg_dirs(d, 2) + ["--out", out],
        "metrics-reg": ["metrics", "reg", "--pred", str(d / "pred.csv"), "--truth",
                        str(d / "truth.csv"), "--train", str(d / "train.csv"), "--out", out],
    }[command]


@pytest.mark.parametrize("command, loaded", [
    # Only the commands that write a digest load OpenSSL; only the SRF and
    # targets CSVs load `csv`; no command loads `fractions` or `decimal`.
    ("adapt-srf", HASHED | {"csv", "_queue", "hsadapt.resample"}),
    ("adapt-naive", HASHED | {"_queue", "hsadapt.band_select"}),
    ("synth", HASHED | {"hsadapt.synth", "hsadapt.band_select", "hsadapt.resample"}),
    ("inspect-cube", set()),
    ("inspect-mask", set()),
    ("metrics-seg", {"hsadapt.metrics"}),
    ("metrics-reg", {"csv", "hsadapt.metrics"}),
])
def test_each_command_loads_only_what_it_runs(tmp_path, chip, command, loaded):
    code = (
        "import sys, json\n"
        "from hsadapt.cli import main\n"
        f"rc = main({footprint_argv(tmp_path, chip, command)!r})\n"
        f"print(json.dumps([rc, [m for m in {WATCHED!r} if m in sys.modules]]))\n"
    )
    p = python("-c", code)
    assert p.returncode == 0, p.stderr
    rc, modules = json.loads(p.stdout)
    assert (rc, set(modules)) == (0, loaded)


def test_bare_package_import_loads_no_numpy():
    p = python("-c", "import sys, hsadapt; print(sorted(m for m in sys.modules if "
                     "m.startswith(('numpy', 'hsadapt.'))))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def test_every_public_name_resolves():
    assert len(set(hsadapt.__all__)) == len(hsadapt.__all__)
    for name in hsadapt.__all__:
        assert getattr(hsadapt, name).__name__ == name
        assert name in dir(hsadapt)
    with pytest.raises(AttributeError, match="no_such_name"):
        hsadapt.no_such_name
    star: dict = {}
    exec("from hsadapt import *", star)
    assert set(hsadapt.__all__) <= set(star)


def seg_dirs(d: Path, chips: int) -> list[str]:
    rng = np.random.default_rng(0)
    for side in ("pred", "truth"):
        (d / side).mkdir()
        for i in range(chips):
            labels = rng.integers(0, 3, (4, 4)).astype(np.int16)
            (d / side / f"c{i:04d}.hsm").write_bytes(write_mask(LabelMask(labels=labels)))
    return ["metrics", "seg", "--pred-dir", str(d / "pred"), "--truth-dir", str(d / "truth"),
            "--classes", "3"]


def test_process_exit_codes_and_stdout(tmp_path, chip):
    """run() passes main()'s exit code to the shell, and a report printed to
    stdout arrives whole (here about 40 KB, more than a pipe buffer)."""
    ok = python("-m", "hsadapt.cli", *seg_dirs(tmp_path, 500), "--per-chip")
    assert ok.returncode == 0, ok.stderr
    report = json.loads(ok.stdout)
    assert len(report["per_chip"]) == report["chips"] == 500
    assert len(ok.stdout) > 1 << 15
    adapted = python("-m", "hsadapt.cli", *srf_argv(chip))
    assert adapted.returncode == 0, adapted.stderr
    data = python("-m", "hsadapt.cli", "inspect", str(tmp_path / "missing.hsc"))
    assert data.returncode == 1
    assert data.stderr.startswith("hsadapt: error:")
    usage = python("-m", "hsadapt.cli", "adapt", "--method", "bogus")
    assert usage.returncode == 2


def test_run_freezes_after_main_and_still_runs_exit_hooks(chip):
    code = (
        "import atexit, gc, sys\n"
        "import hsadapt.cli as cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['hsadapt', *{srf_argv(chip)!r}]\n"
        "cli.run()\n"
    )
    p = python("-c", code)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "frozen True\n"


def test_main_never_freezes(tmp_path, chip, capsys):
    before = gc.get_freeze_count()
    assert main(srf_argv(chip)) == 0
    assert main(seg_dirs(tmp_path, 2)) == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"hsadapt": "hsadapt.entry:run"}


needs_task_list = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                     reason="needs /proc/self/task")


def threads_after(entry: str, blas_threads: str | None = None) -> list:
    """Run `entry` as `hsadapt --version` in a fresh process; return the
    process's thread count and OPENBLAS_NUM_THREADS after it."""
    code = (
        "import json, os, sys\n"
        "sys.argv = ['hsadapt', '--version']\n"
        "try:\n"
        f"    {entry}\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    p = python("-c", code, blas_threads=blas_threads)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


RUN_AS_MAIN = "import runpy; runpy.run_module('hsadapt.cli', run_name='__main__')"
CONSOLE_SCRIPT = "from hsadapt.entry import run; run()"


@needs_task_list
@pytest.mark.parametrize("entry", [RUN_AS_MAIN, CONSOLE_SCRIPT], ids=["module", "console-script"])
def test_cli_process_starts_no_blas_pool(entry):
    """Each entry asks OpenBLAS for one thread before numpy loads, so the
    process ends with its main thread alone. Without that, numpy's import
    leaves two threads on a 2-CPU machine."""
    assert threads_after(entry) == [1, "1"]


@needs_task_list
def test_a_blas_thread_count_the_caller_set_wins():
    assert threads_after(RUN_AS_MAIN, blas_threads="2")[1] == "2"


@needs_task_list
def test_library_import_leaves_the_environment_alone():
    assert threads_after("import hsadapt.cli")[1] is None
