"""Outside-in tracing of pepbound: spans around the public functions.

The program is not edited.  :class:`Tracer` replaces each traced function by
a timing wrapper in *every* pepbound module that binds its name (the package
namespace, the defining module and each importer, e.g.
``pepbound.bench.separation`` and ``pepbound.oracle.dd_newton_refine``), and
puts the originals back on :meth:`Tracer.uninstall`.

Each call becomes a span ``(id, name, parent, thread, op, start, end,
counters)``.  Spans stay in memory until :meth:`Tracer.dump`.  Kernel
counters are read from return values only: Jacobi sweeps, Newton iterations,
nonzero ``lu_factor`` statuses.  QZ sweep counts are not returned by
``qz_iterate`` and so cannot be seen from outside.

Two kinds of span exist.  *Layer* spans are the pipeline stages (polynomial
build, assembly, QZ, inverse iteration, recovery, reference refinement,
separation, bounds, output); a layer's self time is its duration minus the
layer spans nested directly in it on the same thread, so the busy time of
the worker threads shows even where it overlaps.  *Inner* spans (SVD
helpers and the compiled kernels) only add time and counters; their time is
also part of the self time of the layer that called them.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pepbound


def _jacobi(args, res, exc):
    if exc is not None:
        return {}
    n = args[0].shape[1]
    return {"sweeps": res[0], "rotations": res[0] * (n * (n - 1) // 2)}


def _newton(args, res, exc):
    return {} if exc is not None else {"iterations": res[1]}


def _lu(args, res, exc):
    return {} if exc is not None else {"failed": int(res != 0)}


def _refine(args, res, exc):
    return {"unconverged": int(exc is not None or not res.converged)}


def _written(args, res, exc):
    return {} if exc is not None else {"bytes": os.path.getsize(args[1])}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how its span is named."""

    module: str
    func: str
    name: str
    layer: bool
    count: Callable | None = None


_BOUNDS = ("sin_acute_angle", "gep_eigvec_bound", "pep_bound_general",
           "pep_bound_kronecker", "pep_bound_frobenius")

TARGETS = (
    Target("pepbound.bench", "run_experiment", "bench.run_experiment", True),
    Target("pepbound.bench", "emit_csv", "bench.emit_csv", True, _written),
    Target("pepbound.bench", "emit_plot", "bench.emit_plot", True, _written),
    Target("pepbound.polyval", "random_polynomial", "polyval.random_polynomial", True),
    Target("pepbound.kronlin", "assemble", "kronlin.assemble", True),
    Target("pepbound.kronlin", "recover_eigenvector", "kronlin.recover_eigenvector", True),
    Target("pepbound.kronlin", "right_factor", "kronlin.right_factor", True),
    Target("pepbound.oracle", "reference_spectrum", "oracle.reference_spectrum", True),
    Target("pepbound.oracle", "refine_eigenpair", "oracle.refine_eigenpair", True, _refine),
    Target("pepbound.denseig", "generalized_schur", "denseig.generalized_schur", True),
    Target("pepbound.denseig", "inverse_iteration_vector",
           "denseig.inverse_iteration_vector", True),
    Target("pepbound.denseig", "separation", "denseig.separation", True),
    *(Target("pepbound.bounds", f, "bounds", True) for f in _BOUNDS),
    Target("pepbound.denseig", "singular_values", "denseig.singular_values", False),
    Target("pepbound.denseig", "spectral_norm", "denseig.spectral_norm", False),
    # Metric names must start with a letter, so pepbound._kernels is "kernels".
    Target("pepbound._kernels", "jacobi_singular_values",
           "kernels.jacobi_singular_values", False, _jacobi),
    Target("pepbound._kernels", "dd_newton_refine", "kernels.dd_newton_refine", False,
           _newton),
    Target("pepbound._kernels", "hessenberg_triangular", "kernels.hessenberg_triangular",
           False),
    Target("pepbound._kernels", "qz_iterate", "kernels.qz_iterate", False),
    Target("pepbound._kernels", "lu_factor", "kernels.lu_factor", False, _lu),
)


def _package_modules() -> list:
    for info in pkgutil.iter_modules(pepbound.__path__):
        importlib.import_module("pepbound." + info.name)
    return [m for k, m in list(sys.modules.items())
            if k == "pepbound" or k.startswith("pepbound.")]


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self.origin = time.perf_counter()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        name, layer, count = target.name, target.layer, target.count

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            layer_parent = next((s for s, is_layer in reversed(stack) if is_layer), None)
            stack.append((sid, layer))
            res, exc = None, None
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counters = count(args, res, exc) if count else {}
                if exc is not None:
                    counters["raised"] = 1
                spans.append((sid, name, layer, parent, layer_parent,
                              threading.get_ident(), self.op, t0, t1, counters))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for target in TARGETS:
            orig = getattr(sys.modules[target.module], target.func)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def bindings(self) -> list[str]:
        """``module.attr`` of every patched binding (while installed)."""
        return sorted("%s.%s" % (m.__name__, a) for m, a, _ in self._patched)

    def dump(self, path) -> None:
        """Write all spans as JSON, times in seconds from tracer creation."""
        keys = ("id", "name", "layer", "parent", "layer_parent", "thread", "op",
                "start", "end", "counters")
        rows = []
        for span in sorted(self.spans, key=lambda s: s[0]):
            row = dict(zip(keys, span))
            row["start"] -= self.origin
            row["end"] -= self.origin
            rows.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def aggregate(spans) -> dict:
    """Per-name ``s``, ``self_s`` (layers), ``calls`` and summed counters.

    ``s`` adds the outermost span of each name per thread, so a function
    nested in itself is not counted twice; ``self_s`` adds every layer span's
    duration minus its direct layer children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] and s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[8] - s[7])
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for s in spans:
        sid, name, layer, parent = s[0], s[1], s[2], s[3]
        dur = s[8] - s[7]
        add(name + ".calls", 1)
        outer = parent
        while outer is not None and outer in by_id and by_id[outer][1] != name:
            outer = by_id[outer][3]
        if outer is None or outer not in by_id:
            add(name + ".s", dur)
        if layer:
            add(name + ".self_s", dur - child_time.get(sid, 0.0))
        for k, v in s[9].items():
            add("%s.%s" % (name, k), v)
    return out
