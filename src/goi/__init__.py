"""Operator-algebraic engine for linear-logic proofs.

Two interpretation backends over one measurement theory: an exact
symbolic backend (weighted partial injections on a countable basis) and
a dense complex-matrix backend, tied together by the feedback equation
and the log-determinant measurements.
"""

from .config import DEFAULT_SEED, STRUCT_TOL, struct_tol  # noqa: F401
from .linalg import (  # noqa: F401
    DenseOperator,
    SpectralReport,
    adjoint as dense_adjoint,
    direct_sum,
    fk_det,
    mat_mul,
    operator_norm,
    plain_det,
    spectral_radius,
    tensor,
)
from .groupoid import (  # noqa: F401
    Idx,
    NilpotencyResult,
    PartialInjectionOp,
    Region,
    adjoint,
    axiom_swap,
    beta_decode,
    beta_encode,
    compose,
    is_partial_symmetry,
    l_isometry,
    nilpotency,
    odot,
    r_isometry,
    restrict_outside,
    sum_disjoint,
    to_dense,
)
from .grouparith import GroupElement, g_compose, g_inverse, monoid_word_eval  # noqa: F401
from .measurement import (  # noqa: F401
    INDETERMINATE,
    Dialect,
    DialectalOperator,
    DialectIso,
    PseudoTrace,
    TRIVIAL_DIALECT,
    UNIT_TRACE,
    apply_variant,
    dagger,
    ddagger,
    is_indeterminate,
    ldet,
    ldet_series,
    meas_hyp,
    meas_mat,
    orthogonal_hyp,
    pseudo_trace_eval,
    sca_hyp,
    sca_mat,
    variant_invariance_residual,
)
from .execution import (  # noqa: F401
    InterfaceSplit,
    adjunction_residual_hyp,
    adjunction_residual_mat,
    associativity_residual,
    ex_goi1,
    feedback_dense,
    plug_dialectal,
    union_dialectal,
)
from .projects import (  # noqa: F401
    ConductWitnessSet,
    Delocation,
    Project,
    PromisingReport,
    build_fax,
    build_with_project,
    deloc_project,
    extend_carrier,
    is_promising,
    make_project,
    obs_equiv,
    orthogonal_witness_suite,
    plug_project,
    scale_project,
    sum_lambda,
    tensor_project,
    with_bar,
    zero_project,
)

__version__ = "0.1.0"
