"""The CLI as a process: which modules a command loads, and what `run()`, the
process entry point, hands back to the shell."""

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


def python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports hsadapt from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env.pop("HSADAPT_THREADS", None)
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
    assert project["scripts"] == {"hsadapt": "hsadapt.cli:run"}
