"""muskatlab: a numerical laboratory for two-interface periodic Muskat flow.

Two immiscible fluid layers in a periodic porous medium sit above a bottom
boundary with prescribed pressure; the package solves the transformed
elliptic transmission problem for the velocity potentials, evolves the two
interfaces (with or without surface tension), monitors the Rayleigh-Taylor
parabolicity margins, and evaluates the frozen-coefficient Fourier
multiplier symbols of the linearized problem together with an independent
boundary-value-problem oracle for them.
"""

from .geometry import (
    AdmissibilityError,
    AdmissibilityReport,
    InterfacePair,
    PeriodicFn,
    PeriodicGrid,
    check_admissible,
    constant_fn,
    curvature,
    curvature_frechet,
    from_callable,
    make_grid,
    spectral_derivative,
)
from .operators import (
    CoefficientField,
    FluidParams,
    StripField,
    StripGrid,
    apply_operator,
    boundary_B1,
    boundary_B_minus,
    boundary_B_plus,
    coeffs_A_minus,
    coeffs_A_plus,
    frechet_A_along,
    frechet_B_along,
)
from .diffraction import (
    BoundaryOperator,
    DiffractionData,
    DiffractionSolution,
    SolverFailure,
    TransmissionOperator,
    check_complementing,
    pulled_back_operator,
    solve_general,
    solve_linearized,
    solve_potentials,
)
from .evolution import (
    RTReport,
    SimState,
    StepRejected,
    Trajectory,
    fit_mode_rate,
    linearized_matrix,
    mode_amplitude,
    phi,
    pressures,
    rayleigh_taylor,
    simulate,
    step,
)
from .symbols import (
    FrozenPoint,
    SymbolODESolution,
    frozen_constants,
    frozen_from_local_data,
    lambda_st_symbol,
    lambda_symbol,
    marcinkiewicz_check,
    ode_oracle_lambda,
    ode_oracle_phi,
    phi_st_symbol,
    phi_symbol,
    region_check_R,
    region_check_S,
)
from .config import ConfigError, SimConfig, WaveSpec

__version__ = "0.1.0"
