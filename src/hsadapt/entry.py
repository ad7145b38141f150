"""Process entry: the `hsadapt` console script's target, and the setting that
`python -m hsadapt.cli` also applies before numpy loads.

`import numpy` starts OpenBLAS's worker pool, one thread per further CPU, and
each worker busy-waits after it starts: 0.10-0.14 CPU seconds per process on
a 2-vCPU machine. hsadapt makes no threaded BLAS call (its only BLAS calls
are 1-D dot products), so a CLI process asks OpenBLAS for one thread. This
module imports no numpy; importing it, or `hsadapt` or `hsadapt.cli` as a
library, changes no environment variable.
"""

import os


def single_blas_thread() -> None:
    """Ask OpenBLAS to start no worker pool, unless the caller already chose
    a thread count. Acts only before numpy is first imported."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def run() -> None:
    """The `hsadapt` console script: `hsadapt.cli.run()`, with numpy loaded
    only after `single_blas_thread()`."""
    single_blas_thread()
    from . import cli

    cli.run()
