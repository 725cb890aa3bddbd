"""Exact representation-theoretic machinery for quaternionic Kahler bundles.

The package computes, in exact rational arithmetic: dominant-weight
decompositions and Weyl dimensions for Sp(n); conformal weights, relative
dimensions, and Casimir eigenvalues of the summands of V_rho (x) E; the
Weitzenbock-type identities among the gradient squares on an irreducible
Sp(1)Sp(n) bundle; and optimal scalar-curvature eigenvalue lower bounds via
an exact-rational simplex over the pure-kappa identity span, together with
vanishing systems and the harmonic-form classification.
"""

from .bounds import (
    BoundCertificate,
    KernelAnalysis,
    NoCertificate,
    bound_for,
    closed_form_bound,
    connection_laplacian_bound,
    dirac_bound,
    harmonic_classification,
    hpn_first_eigenvalue,
    kernel_analysis,
    lp_max_bound,
    twistor_kernel_analysis,
)
from .casimir import (
    CasimirReport,
    DecompositionTable,
    casimir_eigenvalue,
    casimir_hat,
    casimir_report,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    conformal_weight,
    decompose_bundle,
    lambda_ab_bundle,
    relative_dimension_product,
    relative_dimension_weyl,
    sp1_conformal_weight,
    table1_row,
    verify_recursion,
)
from .identities import (
    BWIdentity,
    CurvatureTerm,
    InapplicableIdentityError,
    InconsistencyError,
    MixedBundleError,
    OperatorSpec,
    Rule,
    RuleShapeError,
    apply_rule,
    identity_bochner1,
    identity_bochner2,
    independence_rank,
    operator_coeffs,
    printed_identities,
    printed_identity,
    pure_kappa_identities,
    theorem_family,
)
from .rationals import format_rational, parse_rational
from .simplex import LPInfeasibleError, LPUnboundedError, simplex_maximize
from .weights import (
    BundleLabel,
    NonDominantError,
    ParameterRangeError,
    SpnWeight,
    decompose_rho_tensor_E,
    mu_shift,
    parse_weight,
    weyl_dim,
)

__version__ = "0.1.0"
