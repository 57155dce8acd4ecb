"""pepbound: polynomial eigenvalue problems with a-posteriori eigenvector bounds.

The package builds block Kronecker linearizations of matrix polynomials,
solves them with an in-house dense complex QZ eigensolver, recovers
polynomial eigenvectors from the block structure, and certifies them with
residual-over-separation error bounds validated against extended-precision
reference eigenpairs.

Hot numerical kernels are compiled with numba when available; set
``PEPBOUND_BACKEND=numpy`` to force the pure-NumPy fallback.
"""

__version__ = "0.1.0"

from ._accel import BACKEND, NUMBA_ENABLED
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_plot,
    render_csv,
    render_plot,
    run_experiment,
    run_invariant_suite,
)
from .bounds import (
    BoundRow,
    gep_eigvec_bound,
    pep_bound_frobenius,
    pep_bound_general,
    pep_bound_kronecker,
    sin_acute_angle,
)
from .denseig import (
    GeneralizedSchur,
    GEPEigenpair,
    SepResult,
    eigenvalues,
    generalized_schur,
    gep_eigenpairs,
    inverse_iteration_vector,
    separation,
    separations,
    singular_values,
    singular_values_batch,
    smallest_singular_value,
    spectral_norm,
    unitary_completion,
)
from .exceptions import (
    Breakdown,
    DomainError,
    InfiniteEigenvalue,
    NoMatch,
    NonConvergence,
    NotAnEigenvector,
    NumericalError,
    SingularJacobian,
)
from .kronlin import (
    BlockKroneckerForm,
    FactorPair,
    FactorizationReport,
    MPencil,
    Pencil,
    assemble,
    check_antidiagonal_sums,
    discover_permutation,
    induced_polynomial,
    lambda_block,
    lk_block,
    m0_pencil,
    make_m_pencil,
    preset_linearization,
    r_block,
    recover_eigenvector,
    right_factor,
    s_block,
    verify_right_sided_factorization,
)
from .oracle import (
    ExtendedComplex,
    RefEigenpair,
    load_reference_cache,
    reference_spectrum,
    refine_eigenpair,
    save_reference_cache,
)
from .polyval import (
    MatrixPolynomial,
    PolySpec,
    evaluate,
    eval_derivative,
    load_polynomial,
    polynomial_from_document,
    random_polynomial,
    residual_norm,
    rev,
    save_polynomial,
    scale_max_norm,
)
from .rng import SplitMix64

__all__ = [
    "__version__",
    "BACKEND",
    "NUMBA_ENABLED",
    # bench
    "ExperimentConfig",
    "ExperimentReport",
    "emit_csv",
    "emit_plot",
    "render_csv",
    "render_plot",
    "run_experiment",
    "run_invariant_suite",
    # bounds
    "BoundRow",
    "gep_eigvec_bound",
    "pep_bound_frobenius",
    "pep_bound_general",
    "pep_bound_kronecker",
    "sin_acute_angle",
    # denseig
    "GeneralizedSchur",
    "GEPEigenpair",
    "SepResult",
    "eigenvalues",
    "generalized_schur",
    "gep_eigenpairs",
    "inverse_iteration_vector",
    "separation",
    "separations",
    "singular_values",
    "singular_values_batch",
    "smallest_singular_value",
    "spectral_norm",
    "unitary_completion",
    # exceptions
    "Breakdown",
    "DomainError",
    "InfiniteEigenvalue",
    "NoMatch",
    "NonConvergence",
    "NotAnEigenvector",
    "NumericalError",
    "SingularJacobian",
    # kronlin
    "BlockKroneckerForm",
    "FactorPair",
    "FactorizationReport",
    "MPencil",
    "Pencil",
    "assemble",
    "check_antidiagonal_sums",
    "discover_permutation",
    "induced_polynomial",
    "lambda_block",
    "lk_block",
    "m0_pencil",
    "make_m_pencil",
    "preset_linearization",
    "r_block",
    "recover_eigenvector",
    "right_factor",
    "s_block",
    "verify_right_sided_factorization",
    # oracle
    "ExtendedComplex",
    "RefEigenpair",
    "load_reference_cache",
    "reference_spectrum",
    "refine_eigenpair",
    "save_reference_cache",
    # polyval
    "MatrixPolynomial",
    "PolySpec",
    "evaluate",
    "eval_derivative",
    "load_polynomial",
    "polynomial_from_document",
    "random_polynomial",
    "residual_norm",
    "rev",
    "save_polynomial",
    "scale_max_norm",
    # rng
    "SplitMix64",
]
