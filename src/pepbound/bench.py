"""Experiment harness: eigenvector error bounds measured end to end.

One experiment = one polynomial (built from a :class:`~pepbound.polyval.PolySpec`
or loaded from a file) and one preset linearization.  The pipeline:

1. build and scale the polynomial;
2. assemble the linearization pencil and solve it with the dense QZ engine;
3. extract one eigenvector per finite eigenvalue by inverse iteration and
   recover the polynomial eigenvector from its block structure;
4. pair every computed eigenvalue with the nearest extended-precision
   reference eigenvalue (flagging ambiguous or shared pairings);
5. measure the polynomial residual and the angle between computed and
   reference eigenvectors per eigenpair, then the separations (computed
   at the *reference* eigenvectors, mirroring the use of an exact
   eigenpair) for all eigenpairs with batched ``sigma_min``;
6. evaluate the a-posteriori error bounds and collect everything into rows
   sorted by ``|lam|`` ascending.

Reports can be serialized as CSV (17 significant digits, byte-deterministic
for a fixed config) and as a self-contained SVG scatter plot of error vs
bound on a log10 scale.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._accel import BACKEND
from .bounds import (
    BoundRow,
    pep_bound_frobenius,
    pep_bound_kronecker,
    sin_acute_angle,
)
from .denseig import (
    eigenvalues,
    generalized_schur,
    inverse_iteration_vector,
    separation,
    separations,
)
from .exceptions import DomainError, NumericalError
from .kronlin import assemble, preset_linearization, recover_eigenvector, right_factor
from .oracle import RefEigenpair, reference_spectrum
from .polyval import (
    MatrixPolynomial,
    PolySpec,
    load_polynomial,
    random_polynomial,
    residual_norm,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "render_csv",
    "emit_csv",
    "render_plot",
    "emit_plot",
    "run_invariant_suite",
]

CSV_HEADER = (
    "index,lambda_re,lambda_im,abs_lambda,residual,sep,"
    "sin_angle,bound_kron,bound_frob,ratio,flags"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: polynomial recipe, linearization preset, outputs.

    The random seed lives inside ``poly`` so one value controls the whole
    experiment.  ``out_csv``/``out_plot`` are optional output paths.
    """

    poly: PolySpec
    linearization: str
    out_csv: str | None = None
    out_plot: str | None = None

    def __post_init__(self) -> None:
        lin = self.linearization.lower()
        if lin not in ("l1", "l2", "l3"):
            raise DomainError(f"unknown linearization {self.linearization!r}")
        object.__setattr__(self, "linearization", lin)


@dataclass(frozen=True)
class ExperimentReport:
    """Rows (one per finite eigenpair, sorted by ``|lam|``), plus context."""

    rows: tuple[BoundRow, ...]
    config: ExperimentConfig
    diagnostics: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))


def _build_polynomial(spec: PolySpec) -> MatrixPolynomial:
    if spec.kind == "file":
        return load_polynomial(spec.path)
    return random_polynomial(spec)


def _pair_reference(
    lam: complex, refs: list[RefEigenpair]
) -> tuple[int, tuple[str, ...]]:
    """Nearest-reference pairing with ambiguity flags."""
    dists = [abs(lam - r.lam.value) for r in refs]
    order = sorted(range(len(refs)), key=lambda i: dists[i])
    best = order[0]
    flags = []
    if len(order) > 1:
        gap = dists[order[1]] - dists[best]
        if gap < 1e-8 * (1.0 + abs(lam)):
            flags.append("ambiguous_pairing")
    ref = refs[best]
    if not ref.converged:
        flags.append("ref_unconverged")
    if ref.clustered:
        flags.append("ref_clustered")
    return best, tuple(flags)


def run_experiment(
    cfg: ExperimentConfig,
    reference: list[RefEigenpair] | None = None,
) -> ExperimentReport:
    """Run the full pipeline for one configuration.

    ``reference`` lets callers reuse a precomputed reference spectrum when
    sweeping several linearizations over the same polynomial; by default it
    is computed here.  Per-eigenpair numerical failures become row flags or
    diagnostics; only configuration and I/O problems abort the run.
    """
    t0 = time.perf_counter()
    P = _build_polynomial(cfg.poly)
    form = preset_linearization(P, cfg.linearization)
    L = assemble(P, form)
    refs = reference if reference is not None else reference_spectrum(P)
    if not refs:
        raise DomainError("empty reference spectrum")

    S = generalized_schur(L.A, L.B)
    evs = eigenvalues(S)
    diagnostics: list[str] = []
    finite: list[complex] = []
    for k, ev in enumerate(evs):
        if math.isinf(ev.real) or math.isinf(ev.imag):
            diagnostics.append(f"excluded infinite eigenvalue (position {k})")
        else:
            finite.append(complex(ev))

    d = P.d
    # Everything per eigenvalue up to the separation: a diagnostic string,
    # or ``(lam, lam_ref, resid, angle, ref_i, flags, v_ref)``.
    results: list = []
    for lam in finite:
        try:
            v = inverse_iteration_vector(L.A, L.B, lam)
            xt = recover_eigenvector(v, form, lam, poly=P)
        except NumericalError as exc:
            results.append(f"eigenvector extraction failed at {lam!r}: {exc}")
            continue
        ref_i, flags = _pair_reference(lam, refs)
        ref = refs[ref_i]
        x_ref = ref.x_complex
        nrm = np.linalg.norm(x_ref)
        if nrm == 0.0:
            results.append(f"reference eigenvector is zero at {lam!r}")
            continue
        x_ref = x_ref / nrm
        resid = residual_norm(P, lam, xt)
        angle = sin_acute_angle(x_ref, xt)
        lam_ref = ref.lam.value
        variant = "H1" if abs(lam_ref) < 1.0 else "H2"
        fp = right_factor(form, variant)
        v_ref = fp.h(lam_ref) @ x_ref
        results.append((lam, lam_ref, resid, angle, ref_i, flags, v_ref))

    pending = [res for res in results if not isinstance(res, str)]
    claimed = Counter(ref_i for _, _, _, _, ref_i, _, _ in pending)
    # The separations of all eigenpairs at once, through batched sigma_min.
    seps = iter(separations(L.A, L.B, [(v_ref, lam) for lam, *_, v_ref in pending]))

    rows = []
    for res in results:
        if isinstance(res, str):
            diagnostics.append(res)
            continue
        lam, lam_ref, resid, angle, ref_i, flags, _ = res
        sepres = next(seps)
        if isinstance(sepres, NumericalError):
            sepval = 0.0
            flags = flags + ("sep_error",)
            diagnostics.append(f"separation failed at {lam!r}: {sepres}")
        else:
            sepval = sepres.sep
            flags = flags + sepres.flags
        flags = flags + (("shared_ref",) if claimed[ref_i] > 1 else ())
        rows.append((lam, lam_ref, resid, sepval, angle, flags))

    rows.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    final_rows = tuple(
        BoundRow(
            index=i + 1,
            lambda_exact=lam_ref,
            lambda_computed=lam,
            residual=resid,
            sep=sepval,
            sin_angle=angle,
            bound_kron=pep_bound_kronecker(resid, lam, d, sepval),
            bound_frob=pep_bound_frobenius(resid, lam, d, sepval),
            g_norm=1.0 / max(1.0, abs(lam) ** (d - 1)),
            flags=flags,
        )
        for i, (lam, lam_ref, resid, sepval, angle, flags) in enumerate(rows)
    )
    report = ExperimentReport(
        rows=final_rows,
        config=cfg,
        diagnostics=tuple(diagnostics),
        metadata={
            "version": __version__,
            "backend": BACKEND,
            "numpy": np.__version__,
            "wall_time_s": time.perf_counter() - t0,
            "n": P.n,
            "d": P.d,
        },
    )
    if cfg.out_csv:
        emit_csv(report, cfg.out_csv)
    if cfg.out_plot:
        emit_plot(report, cfg.out_plot)
    return report


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def render_csv(report: ExperimentReport) -> str:
    """The CSV text for a report (deterministic for a fixed config)."""
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    str(r.index),
                    _fmt(r.lambda_computed.real),
                    _fmt(r.lambda_computed.imag),
                    _fmt(abs(r.lambda_computed)),
                    _fmt(r.residual),
                    _fmt(r.sep),
                    _fmt(r.sin_angle),
                    _fmt(r.bound_kron),
                    _fmt(r.bound_frob),
                    _fmt(r.ratio),
                    ";".join(r.flags),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(report: ExperimentReport, path: str) -> None:
    """Write :func:`render_csv` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(report))


# --------------------------------------------------------------------------
# SVG plot
# --------------------------------------------------------------------------

_W, _H = 760.0, 430.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 26.0, 52.0


def _plot_decades(rows) -> tuple[float, float]:
    vals = []
    for r in rows:
        for v in (r.sin_angle, r.bound_kron):
            if 0.0 < v < math.inf:
                vals.append(v)
    if not vals:
        return -18.0, 0.0
    lo = math.floor(math.log10(min(vals)))
    hi = math.ceil(math.log10(max(vals)))
    if lo == hi:
        hi += 1.0
    return float(lo), float(hi)


def render_plot(report: ExperimentReport) -> str:
    """Self-contained SVG scatter: error and bound per eigenvector index.

    The y axis is log10 with zero values clamped to the bottom decade and
    infinite bounds clamped to the top one.  Output contains no timestamps,
    so identical reports render byte-identical files.
    """
    rows = report.rows
    if not rows:
        raise DomainError("cannot plot an empty report")
    lo, hi = _plot_decades(rows)
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    m = len(rows)

    def xpos(idx: int) -> float:
        if m == 1:
            return (x0 + x1) / 2.0
        return x0 + (idx - 1) * (x1 - x0) / (m - 1)

    def ypos(v: float) -> float:
        if v <= 0.0:
            dec = lo
        elif math.isinf(v):
            dec = hi
        else:
            dec = min(max(math.log10(v), lo), hi)
        return y0 + (dec - lo) * (y1 - y0) / (hi - lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" height="{_H:g}" '
        f'viewBox="0 0 {_W:g} {_H:g}">',
        f'<rect x="0" y="0" width="{_W:g}" height="{_H:g}" fill="white"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    # y ticks at integer decades (at most ~12 labels)
    span = int(hi - lo)
    step = max(1, int(math.ceil(span / 12.0)))
    dec = lo
    while dec <= hi + 1e-9:
        yy = ypos(10.0 ** dec)
        parts.append(
            f'<line x1="{x0 - 4:.2f}" y1="{yy:.2f}" x2="{x0:.2f}" y2="{yy:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{int(dec)}</text>'
        )
        dec += step
    # x ticks: ~10 evenly spaced indices
    xstep = max(1, m // 10)
    for idx in range(1, m + 1, xstep):
        xx = xpos(idx)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{y0:.2f}" x2="{xx:.2f}" y2="{y0 + 4:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{y0 + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{idx}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">eigenvector index</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">error / bound</text>'
    )
    # series: bound as squares (drawn first), error as circles on top
    for r in rows:
        xx = xpos(r.index)
        yy = ypos(r.bound_kron)
        parts.append(
            f'<rect class="bnd" x="{xx - 3:.2f}" y="{yy - 3:.2f}" width="6" '
            'height="6" fill="darkorange"/>'
        )
    for r in rows:
        xx = xpos(r.index)
        yy = ypos(r.sin_angle)
        parts.append(
            f'<circle class="err" cx="{xx:.2f}" cy="{yy:.2f}" r="3" '
            'fill="steelblue"/>'
        )
    # legend
    lx, ly = x1 - 170.0, y1 + 10.0
    parts.append(
        f'<rect x="{lx - 8:.2f}" y="{ly - 12:.2f}" width="178" height="40" '
        'fill="white" stroke="black" stroke-width="0.5"/>'
    )
    parts.append(f'<circle cx="{lx:.2f}" cy="{ly:.2f}" r="3" fill="steelblue"/>')
    parts.append(
        f'<text x="{lx + 10:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
        'font-size="12">eigenvector error</text>'
    )
    parts.append(
        f'<rect x="{lx - 3:.2f}" y="{ly + 13:.2f}" width="6" height="6" '
        'fill="darkorange"/>'
    )
    parts.append(
        f'<text x="{lx + 10:.2f}" y="{ly + 20:.2f}" font-family="sans-serif" '
        'font-size="12">error bound</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(report: ExperimentReport, path: str) -> None:
    """Write :func:`render_plot` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_plot(report))


# --------------------------------------------------------------------------
# invariant suite (CLI `verify`)
# --------------------------------------------------------------------------

def run_invariant_suite(seed: int, d: int, n: int) -> list[tuple[str, bool, str]]:
    """Structural invariants on one random instance; returns (name, ok, detail)."""
    from .kronlin import (
        check_antidiagonal_sums,
        induced_polynomial,
        lambda_block,
        lk_block,
        make_m_pencil,
        verify_right_sided_factorization,
    )
    from .rng import SplitMix64

    results: list[tuple[str, bool, str]] = []
    spec = PolySpec(kind="p1", n=n, d=d, seed=seed)
    P = random_polynomial(spec)
    gen = SplitMix64(seed ^ 0xBEEF)

    # 1. structured-block contraction L_k(lam) (Lambda_k (x) I) = 0
    worst = 0.0
    for k in range(1, 6):
        for _ in range(3):
            lam = gen.complex_normal()
            worst = max(
                worst,
                float(np.max(np.abs(lk_block(k, lam, 2) @ lambda_block(k, lam, 2)))),
            )
    results.append(("block-contraction", worst <= 1e-12, f"max |L_k Lambda_k| = {worst:.2e}"))

    # 2. factorization identities for random corrected forms
    ok = True
    detail = ""
    for eps in range(d):
        eta = d - 1 - eps
        Bm = np.array(
            [[gen.complex_normal() for _ in range(eps * n)] for _ in range((eta + 1) * n)]
        ).reshape((eta + 1) * n, eps * n)
        Cm = np.array(
            [[gen.complex_normal() for _ in range((eps + 1) * n)] for _ in range(eta * n)]
        ).reshape(eta * n, (eps + 1) * n)
        M = make_m_pencil(P, eps, eta, Bm, Cm)
        if not check_antidiagonal_sums(M, P):
            ok = False
            detail = f"anti-diagonal sums broken at eps={eps}"
            break
        Q = induced_polynomial(M, eps, eta)
        if float(np.max(np.abs(Q.coeffs - P.coeffs))) > 1e-12:
            ok = False
            detail = f"induced polynomial mismatch at eps={eps}"
            break
        from .kronlin import BlockKroneckerForm

        fm = BlockKroneckerForm(
            eps=eps, eta=eta, n=n, M=M,
            row_perm=tuple(range(d)), col_perm=tuple(range(d)),
        )
        Lp = assemble(P, fm)
        sam = [gen.complex_normal() for _ in range(4)]
        for variant in ("H1", "H2"):
            fp = right_factor(fm, variant)
            rep = verify_right_sided_factorization(Lp, fp, P, sam)
            if not rep.passed:
                ok = False
                detail = f"{variant} residual {max(rep.residuals):.2e} at eps={eps}"
                break
        if not ok:
            break
    results.append(("right-sided-factorizations", ok, detail or "all (eps, eta) splits pass"))

    # 3. QZ reconstruction quality on the assembled preset
    form = preset_linearization(P, "l1")
    L = assemble(P, form)
    S = generalized_schur(L.A, L.B)
    N = L.N
    ra = float(
        np.linalg.norm(S.Q @ S.TA @ S.Z.conj().T - L.A) / max(np.linalg.norm(L.A), 1e-300)
    )
    rb = float(
        np.linalg.norm(S.Q @ S.TB @ S.Z.conj().T - L.B) / max(np.linalg.norm(L.B), 1e-300)
    )
    uq = float(np.linalg.norm(S.Q.conj().T @ S.Q - np.eye(N)))
    uz = float(np.linalg.norm(S.Z.conj().T @ S.Z - np.eye(N)))
    ok = ra <= 1e-12 * N and rb <= 1e-12 * N and uq <= 1e-13 * N and uz <= 1e-13 * N
    results.append(
        ("qz-reconstruction", ok, f"residuals {ra:.2e}/{rb:.2e}, unitarity {uq:.2e}/{uz:.2e}")
    )

    # 4. separation sanity on a diagonal pencil
    sep = separation(
        np.diag([1.0 + 0j, 2.0 + 0j]), np.eye(2, dtype=complex),
        np.array([1.0 + 0j, 0.0j]), 1.1 + 0j,
    ).sep
    results.append(("separation-diagonal", abs(sep - 0.9) <= 1e-14, f"sep = {sep!r}"))

    # 5. full pipeline: bound validity and bound ordering on this instance
    refs = reference_spectrum(P)
    cfg = ExperimentConfig(poly=spec, linearization="l1")
    report = run_experiment(cfg, reference=refs)
    clean = [r for r in report.rows if not r.flags]
    valid = all(r.sin_angle <= r.bound_kron + 1e-15 for r in clean)
    order = all(
        r.bound_frob <= r.bound_kron + 1e-15
        and r.bound_kron <= math.sqrt(d) * r.bound_frob * (1 + 1e-12) + 1e-300
        for r in clean
        if math.isfinite(r.bound_kron)
    )
    results.append(
        ("bound-validity", valid, f"{len(clean)} unflagged rows of {len(report.rows)}")
    )
    results.append(("bound-ordering", order, "frob <= kron <= sqrt(d)*frob"))

    # 6. eigenvalue consistency: computed vs reference, relative 1e-8
    worst = 0.0
    for r in report.rows:
        dist = min(abs(r.lambda_computed - q.lam.value) for q in refs)
        worst = max(worst, dist / (1.0 + abs(r.lambda_computed)))
    results.append(
        ("eigenvalue-consistency", worst <= 1e-8, f"worst relative distance {worst:.2e}")
    )

    # 7. CSV determinism, including a fresh reference spectrum
    again = run_experiment(cfg)
    same = render_csv(report) == render_csv(again)
    results.append(("csv-determinism", same, "byte-identical rerun"))
    return results
