"""Superintegrable charged-particle systems in static magnetic fields.

Field models (uniform, helical, monopole, cylindrically invariant),
Hamiltonian dynamics, integrals of motion and their determining
equations, Poisson-algebra verification, closed-form trajectories, and
separated 1D quantum eigenproblems.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    BracketTable,
    casimir_check,
    constantB_basis,
    constantB_bracket_table,
    monopole_admissible,
    monopole_closure_check,
    sample_states,
    verify_bracket_table,
)
from .closedform import (
    PendulumReduction,
    helical_z_of_t,
    helix_solution,
    pendulum_reduction,
    tilde_transform,
    x5_integral,
    x6_integral,
    zeta_solution,
)
from .dynamics import (
    IntegratorConfig,
    PhaseState,
    SolverStats,
    Trajectory,
    hamiltonian,
    integrate,
)
from .elliptic import (
    ellipk,
    inv_am,
    inv_sn,
    jacobi_am,
    jacobi_cn,
    jacobi_dn,
    jacobi_sn,
)
from .errors import (
    ConfigError,
    DegenerateKappa,
    DegenerateMomentum,
    DomainError,
    EigenSolveFailure,
    GridTooSmall,
    MagsuperError,
    NoBoundStates,
    ParameterError,
    SeparatrixRegime,
    StepFailure,
    UnsupportedModel,
)
from .fields import (
    ConstantB,
    Custom,
    Cylindrical,
    FieldCheckReport,
    GaugeFunction,
    HelicalB,
    Monopole,
    divergence_checks,
    gauge_shift,
    magnetic_field,
    model_from_config,
    scalar_potential,
    vector_potential,
)
from .integrals import (
    CoeffPolynomials,
    IntegralSpec,
    PhaseFunction,
    RESIDUAL_KEYS,
    as_phase_function,
    bracket_matrix,
    covariant_momentum,
    determining_residuals,
    evaluate_integral,
    hamiltonian_function,
    known_integrals,
    monopole_angular_specs,
    monopole_runge_lenz_specs,
    monopole_total_square_spec,
    phase_gradient,
)
from .quantum import (
    Grid1D,
    HelicalReducedResult,
    MathieuResult,
    SpectrumResult,
    helical_reduced_solve,
    landau_reduced_solve,
    mathieu_characteristic,
    mathieu_table,
    radial_reduced_solve,
)

#: the public names: everything imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
