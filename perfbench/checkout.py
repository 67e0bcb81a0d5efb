"""Locating the program under test inside the checkout the benchmark runs in.

Standard library only: the set-up probe imports this module before it times
``import heatleak``, so nothing here may import numpy or heatleak at module
level.
"""

from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")

# BLAS/OpenMP pools pinned to one thread, so a two-core machine measures the
# program rather than thread scheduling; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout lacks the heatleak sources or the oracle the checks use."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def require_program() -> None:
    for path in (os.path.join(SRC, "heatleak", "__init__.py"), ORACLES):
        if not os.path.isfile(path):
            raise MissingProgram(f"{os.path.relpath(path, ROOT)} not found in {ROOT}")


def import_heatleak():
    """Import heatleak from this checkout's ``src/``, never from elsewhere."""
    require_program()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import heatleak
    import heatleak.cli
    if not os.path.abspath(heatleak.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"heatleak imported from {heatleak.__file__}, not {SRC}")
    return heatleak


def load_oracles():
    """The independent brute-force oracle of the test suite."""
    require_program()
    spec = importlib.util.spec_from_file_location("heatleak_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
