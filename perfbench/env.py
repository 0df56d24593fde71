"""Process set-up shared by the benchmark's entry points: pin the numeric
libraries to one thread and import ``curvsol`` from the checkout's ``src/``.

Importing this module imports neither numpy nor curvsol, so the thread
limits are in the environment before either loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One client in one process: BLAS and OpenMP pools would otherwise compete
# with the client for the machine's cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/curvsol`` package to measure."""


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


def import_curvsol():
    """Import ``curvsol`` from ``ROOT/src`` and nowhere else."""
    if not (SRC / "curvsol" / "__init__.py").is_file():
        raise MissingProgramError(f"no curvsol package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curvsol
    if Path(curvsol.__file__).resolve().parent != SRC / "curvsol":
        raise MissingProgramError(f"curvsol was imported from {curvsol.__file__}, not {SRC}")
    return curvsol
