"""The BLAS thread policy of the training and evaluation loops.

``one_thread`` runs numpy's bundled OpenBLAS on one thread for the
duration of a call, then restores the previous count: at these matrix
sizes a second thread buys no wall time and nearly doubles the CPU time
of ``prune``. It wraps ``gates.learn_channel_importance``, ``train.fit``
and ``arch.evaluate_accuracy``, so every command and every library
caller of those loops gets the same pool. A thread count set in the
environment (``THREAD_VARS``) leaves the pool alone, as does a missing
library or symbol. The count is set through ``ctypes`` because numpy,
and with it OpenBLAS, is loaded before any loop runs; the library is
looked up once per process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
               "OMP_NUM_THREADS")
# (get, set) symbol pairs: numpy >= 2 wheels first, then older builds
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None where no such library or symbol exists."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block, or the decorated function, on one OpenBLAS thread
    unless the user chose a count through the environment; restore the
    previous count after."""
    blas = (None if any(os.environ.get(v) for v in THREAD_VARS)
            else openblas())
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
