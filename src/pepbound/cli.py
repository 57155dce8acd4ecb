"""Command-line interface.

Three subcommands:

* ``run``    -- execute one experiment (polynomial x linearization), write the
  CSV report and optionally the SVG plot;
* ``verify`` -- run the structural invariant suite on one random instance and
  print one PASS/FAIL line per invariant;
* ``oracle`` -- compute the extended-precision reference spectrum for a
  polynomial and save it as a JSON cache.

Exit codes: 0 on success, 1 on numerical failure (non-convergence,
unconverged references, I/O errors while writing results), 2 on usage errors
(bad flags, malformed input files, invalid configurations).
"""

from __future__ import annotations

import argparse
import sys

from .bench import ExperimentConfig, run_experiment, run_invariant_suite
from .exceptions import DomainError, NumericalError
from .oracle import reference_spectrum, save_reference_cache
from .polyval import PolySpec, load_polynomial, random_polynomial

__all__ = ["main"]


def _poly_spec(poly: str, n: int, d: int, seed: int) -> PolySpec:
    key = poly.lower()
    if key in ("p1", "p2"):
        return PolySpec(kind=key, n=n, d=d, seed=seed)
    return PolySpec(kind="file", n=max(n, 1), d=max(d, 1), seed=seed, path=poly)


def _add_poly_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--poly",
        default="p1",
        help="polynomial: 'p1' (well-scaled), 'p2' (widely-scaled), or a JSON file path",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--d", type=int, default=5, help="polynomial grade (default 5)")
    p.add_argument("--n", type=int, default=10, help="matrix size (default 10)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pepbound",
        description=(
            "Polynomial eigenvalue toolkit: block Kronecker linearizations, a "
            "dense QZ eigensolver, and a-posteriori eigenvector error bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and emit CSV/plot")
    _add_poly_flags(runp)
    runp.add_argument(
        "--linearization",
        default="l1",
        choices=["l1", "l2", "l3"],
        help="linearization preset (default l1)",
    )
    runp.add_argument("--out", default=None, help="CSV output path")
    runp.add_argument("--plot", default=None, help="SVG plot output path")

    verp = sub.add_parser("verify", help="run the invariant suite")
    verp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    verp.add_argument("--d", type=int, default=3, help="polynomial grade (default 3)")
    verp.add_argument("--n", type=int, default=3, help="matrix size (default 3)")

    orap = sub.add_parser("oracle", help="emit a reference spectrum cache")
    _add_poly_flags(orap)
    orap.add_argument("--out", required=True, help="JSON cache output path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        poly=_poly_spec(args.poly, args.n, args.d, args.seed),
        linearization=args.linearization,
        out_csv=args.out,
        out_plot=args.plot,
    )
    report = run_experiment(cfg)
    unflagged = sum(1 for r in report.rows if not r.flags)
    print(
        f"{len(report.rows)} eigenpairs ({unflagged} unflagged), "
        f"backend={report.metadata['backend']}, "
        f"wall={report.metadata['wall_time_s']:.2f}s"
    )
    for diag in report.diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    if args.out:
        print(f"wrote {args.out}")
    if args.plot:
        print(f"wrote {args.plot}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_invariant_suite(args.seed, args.d, args.n)
    ok = True
    for name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        ok = ok and passed
        print(f"{tag} {name}: {detail}")
    return 0 if ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _poly_spec(args.poly, args.n, args.d, args.seed)
    if spec.kind == "file":
        P = load_polynomial(spec.path)
    else:
        P = random_polynomial(spec)
    refs = reference_spectrum(P)
    save_reference_cache(args.out, P, refs)
    bad = sum(1 for r in refs if not r.converged)
    print(f"wrote {len(refs)} reference eigenpairs to {args.out} ({bad} unconverged)")
    return 1 if bad else 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_oracle(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
