"""The three workloads and their operations, generated from the seed.

An operation is one experiment (``run_experiment``) or one reference
spectrum (``random_polynomial`` then ``reference_spectrum``), called through
the public package namespace with the default configuration.  The seed
fixes the polynomial seeds; every pass of a run repeats the same operations.

* ``certify`` -- the ``pepbound run`` path at d=5, n=6: (p1, l1) and
  (p2, l3), each computing its own reference.  Separation (Jacobi
  sigma_min on 29x29 compressions) dominates.
* ``oracle`` -- the ``pepbound oracle`` path: the reference spectrum of p2
  at d=5, n=10 (50 pairs).  Double-double Newton refinement and the
  coefficient norms dominate; no separation is computed.
* ``sweep`` -- 21 small p1 experiments, d and n in {2, 3, 4} with every
  valid preset, writing CSV and SVG.  Many tiny SVDs, pool tasks too small
  to amortize, the largest QZ share, and the output layer.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pepbound
from pepbound import ExperimentConfig, PolySpec

WORKLOADS = ("certify", "oracle", "sweep")


@dataclass(frozen=True)
class Op:
    """One operation: an experiment when ``linearization`` is set, else a
    reference spectrum."""

    spec: PolySpec
    linearization: str | None = None
    outputs: bool = False

    @property
    def label(self) -> str:
        s = self.spec
        lin = self.linearization or "ref"
        return f"{s.kind}-d{s.d}-n{s.n}-{lin}-seed{s.seed}"


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same ``seed`` gives the same list."""
    rng = random.Random(seed)

    def spec(kind: str, d: int, n: int) -> PolySpec:
        return PolySpec(kind=kind, n=n, d=d, seed=rng.getrandbits(32))

    if workload == "certify":
        return [Op(spec("p1", 5, 6), "l1"), Op(spec("p2", 5, 6), "l3")]
    if workload == "oracle":
        return [Op(spec("p2", 5, 10))]
    if workload == "sweep":
        ops = []
        for d in (2, 3, 4):
            for n in (2, 3, 4):
                presets = ("l1", "l2", "l3") if d % 2 else ("l1", "l2")
                ops.extend(Op(spec("p1", d, n), lin, outputs=True) for lin in presets)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: Op, outdir: str, k: int):
    """Run one operation; returns the report, or ``(P, refs)``."""
    if op.linearization is None:
        P = pepbound.random_polynomial(op.spec)
        return P, pepbound.reference_spectrum(P)
    out_csv = out_plot = None
    if op.outputs:
        out_csv = os.path.join(outdir, f"op{k}.csv")
        out_plot = os.path.join(outdir, f"op{k}.svg")
    cfg = ExperimentConfig(poly=op.spec, linearization=op.linearization,
                           out_csv=out_csv, out_plot=out_plot)
    return pepbound.run_experiment(cfg)


def tally(result) -> tuple[int, int, int]:
    """``(rows, certified, flagged)`` of one operation's result.

    For an experiment, certified rows are the unflagged ones; for a
    reference spectrum, the converged pairs.
    """
    if isinstance(result, tuple):
        refs = result[1]
        good = sum(1 for r in refs if r.converged)
        return len(refs), good, len(refs) - good
    rows = result.rows
    good = sum(1 for r in rows if not r.flags)
    return len(rows), good, len(rows) - good
