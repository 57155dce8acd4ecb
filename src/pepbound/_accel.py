"""Run provenance of the numerical kernels.

The kernels in :mod:`pepbound._kernels` and :mod:`pepbound.doubledouble` are
plain Python over numpy arrays; there is one backend and nothing to select.
"""

#: Name of the one kernel backend, recorded in experiment metadata.
BACKEND = "numpy"


def thread_count() -> int:
    """Worker count of the pipeline: always 1, since it runs on one thread.

    Kept because the benchmark records it as the ``workers`` field of its
    run provenance.
    """
    return 1
