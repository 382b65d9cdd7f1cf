"""Minimum-energy steering for stable linear systems.

Reachability Gramians over finite and infinite horizons, minimum-energy
controls and their value function, the weighted state space induced by the
infinite-horizon Gramian, and the quadratic (Riccati-type) differential
identities satisfied by Gramian ratios — together with a zoo of benchmark
models (diagonal/spectral, scalar delay, nilpotent shift) on which all of
it can be cross-validated.  Independent Gramian oracles stand beside the
engine; the quadrature one, ``gramian_quadrature_sweep``, serves many
horizons with one graded sweep, since Q_t is a prefix of the integral for
any longer horizon.
"""

from .errors import (
    MarginError,
    MeshResolutionError,
    MinEnergyError,
    NonFiniteError,
    NotInSpaceError,
    NotPSDError,
    NotSymmetricError,
    PreconditionError,
    ReachabilityError,
    ScenarioError,
    StiffnessError,
    UnstableSystemError,
)
from .linalg import (
    REL_THRESHOLD,
    RangeInclusion,
    SymmetricPSD,
    commutes,
    commuting_pinv_compose,
    expm,
    negative_type_bound,
    pinv,
    range_inclusion,
)
from .systems import LinearSystem, Model, random_stable_system
from .gramians import (
    Gramian,
    KernelChainReport,
    RangeEqualityReport,
    compute_gramian,
    gramian_block_exponential,
    gramian_commuting_closed_form,
    gramian_lyapunov_ode,
    gramian_quadrature,
    gramian_quadrature_sweep,
    kernel_chain_check,
    range_equality_check,
)
from .energy import (
    ControlSignal,
    EuclideanGeometry,
    HGeometry,
    LeastNormControl,
    NullControllability,
    ReachabilityClass,
    Steering,
    Trajectory,
    brute_force_min_energy,
    classify_target,
    feedback_gain,
    h_norm,
    null_controllability_test,
    optimal_control,
    optimal_samples,
    optimal_trajectory,
    simulate_control,
    steer,
    value_function,
)
from .riccati import (
    CommutingSolution,
    LyapunovReport,
    ProjectionReport,
    RecoverLReport,
    ResidualReport,
    RiccatiCandidate,
    UniquenessReport,
    build_pv,
    commuting_candidate,
    commuting_family,
    detect_t1,
    inverse_candidate,
    lyapunov_residual,
    projected_solution_check,
    pv_candidate,
    recover_L,
    residual_probes,
    riccati_pairings,
    riccati_residual,
    riccati_residual_commuting,
    uniqueness_reconstruction,
)
from .models import (
    DelaySystem,
    ShiftDefectReport,
    ShiftSystem,
    SpectralClassification,
    SpectralNCReport,
    SpectralSystem,
    delay_domain_residual,
    delay_fundamental_solution,
    delay_gramian,
    delay_null_controllability,
    delay_optimal_control,
    delay_semigroup_matrix,
    landau_ginzburg,
    parse_model,
    power_law,
    shift_benchmark_target,
    shift_control_map,
    shift_gramian,
    shift_reachable_defect,
    shift_value_oracle,
    spectral_gramian,
    spectral_null_controllability,
    spectral_space_h_classification,
    thin_control_example,
)

__version__ = "0.1.0"
