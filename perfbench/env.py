"""Locate the checkout and import pepbound from its ``src`` tree.

The benchmark measures the configuration a user gets by default, so the two
environment variables that change it (``PEPBOUND_BACKEND``,
``PEPBOUND_THREADS``) are removed before the package is imported: the
backend is fixed at import time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for temp files, results and span dumps; ignored by git.
OUT = ROOT / ".bench_build" / "perfbench"
DEFAULT_ENV_VARS = ("PEPBOUND_BACKEND", "PEPBOUND_THREADS")


def bootstrap() -> None:
    """Scrub the config variables and put ``src`` first on ``sys.path``.

    Exits with a nonzero status when the checkout holds no package source, so a
    benchmark copied without the program it measures prints no result.
    """
    if not (SRC / "pepbound" / "__init__.py").is_file():
        sys.exit("perfbench: no package source at %s" % SRC)
    for var in DEFAULT_ENV_VARS:
        os.environ.pop(var, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pepbound

    if Path(pepbound.__file__).resolve().parent != SRC / "pepbound":
        sys.exit("perfbench: imported pepbound from %s, not from %s"
                 % (pepbound.__file__, SRC))


def child_env() -> dict:
    """Environment for a fresh interpreter that imports the same package."""
    env = {k: v for k, v in os.environ.items() if k not in DEFAULT_ENV_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env
