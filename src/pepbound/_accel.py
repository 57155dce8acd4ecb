"""Backend selection for the numerical kernels.

Two interchangeable backends run the same kernel source:

* ``numba`` -- kernels are compiled with ``numba.njit(cache=True, nogil=True)``.
* ``numpy`` -- kernels run as plain Python over numpy arrays.

The backend is fixed once at import time from the environment variable
``PEPBOUND_BACKEND`` (``auto``, ``numba`` or ``numpy``; default ``auto``).
``auto`` compiles when numba imports cleanly and falls back to numpy
otherwise.  Kernels avoid fastmath-style reassociation on purpose: the
double-double arithmetic in :mod:`pepbound.doubledouble` relies on exact
IEEE-754 rounding of every intermediate.
"""

import os
import warnings

_requested = os.environ.get("PEPBOUND_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    warnings.warn(
        "PEPBOUND_BACKEND=%r is not one of 'auto', 'numba', 'numpy'; "
        "using 'auto'" % _requested
    )
    _requested = "auto"

NUMBA_ENABLED = False
if _requested in ("auto", "numba"):
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:
        if _requested == "numba":
            raise ImportError(
                "PEPBOUND_BACKEND=numba but numba is not importable"
            )

BACKEND = "numba" if NUMBA_ENABLED else "numpy"


def jit(fn):
    """Compile ``fn`` under the numba backend; return it unchanged otherwise."""
    if NUMBA_ENABLED:
        return _njit(cache=True, nogil=True)(fn)
    return fn


def thread_count() -> int:
    """Worker count of the pipeline: always 1, since it runs on one thread.

    Kept because the benchmark records it as the ``workers`` field of its
    run provenance.
    """
    return 1
