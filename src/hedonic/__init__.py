"""Hedonic market simulation and single-market identification of
preferences via discrete optimal transport."""

from .conjugate import (
    GridFunction,
    double_conjugate,
    is_zeta_convex,
    legendre,
    zeta_conjugate,
)
from .equilibrium import (
    EquilibriumOutcome,
    GridBoundaryError,
    atomlessness_diagnostic,
    build_z_grid,
    simulate_market,
    verify_equilibrium,
)
from .identify import (
    IdentifiedPotential,
    averaged_partial_effects,
    brenier_identify,
    general_identify,
    scalar_identify,
    simultaneous_equations_identify,
)
from .measures import (
    ConditionalSlice,
    DiscreteMeasure,
    DistributionSpec,
    MarketDataset,
    empirical_cdf_quantile,
    from_samples,
    partition_by_x,
    sample_reference,
)
from .ot import (
    DualPair,
    TransportPlan,
    barycentric_projection,
    check_cyclical_monotonicity,
    solve_entropic,
    solve_exact,
    surplus_matrix,
)
from .surplus import (
    ScalarFamily,
    StructuralSpec,
    SurplusFamily,
    TwistViolationError,
    check_twist,
)

__version__ = "0.1.0"
