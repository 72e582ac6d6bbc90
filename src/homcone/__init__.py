"""Exact Bayesian selection of permutation-invariant Gaussian graphical models.

The package computes normalizing constants of conjugate priors on the
concentration-matrix cones of symmetry-restricted graphical Gaussian models
over homogeneous graphs, in closed form through block matrix realizations,
and cross-checks them with generic convex-analytic and Monte Carlo paths.
"""

from .errors import (
    CapabilityError,
    ConjugationError,
    ConvergenceError,
    DomainError,
    DualMembershipError,
    HomconeError,
    HomogeneityError,
    IntegrabilityError,
    InvarianceError,
    ScopeError,
    ShapeError,
    StencilError,
    UsageError,
)
from .graphs import (
    Graph,
    Permutation,
    PermutationGroup,
    automorphism_group,
    enumerate_subgroups,
    graph_from_dict,
    is_homogeneous_graph,
    load_graph,
)
from .invariant import InvariantSpace, build_invariant_space, project, same_space
from .cone import (
    PsiResult,
    hessian_matrix,
    in_dual_cone,
    in_primal_cone,
    log_delta,
    log_phi,
    psi,
)
from .realization import (
    Realization,
    TriangularElement,
    VStructure,
    conjugate_space,
    delta_phi_fast,
    factor_T,
    full_sym_structure,
    log_gamma_v,
    ray_structure,
    realize,
    validate_vstructure,
)
from .butterfly import (
    butterfly_graph,
    butterfly_registry,
    butterfly_subgroups,
)
from .selection import (
    DataSummary,
    Hyperparams,
    Model,
    SelectionReport,
    build_butterfly_models,
    build_models,
    exam_marks_summary,
    fit_concentration,
    fit_concentration_mle,
    log_I,
    posterior,
    summarize_data,
)
from .oracle import (
    McEstimate,
    finite_diff_gradient,
    finite_diff_hessian,
    mc_cone_integral,
)

__version__ = "0.1.0"
