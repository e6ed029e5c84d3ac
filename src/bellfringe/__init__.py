"""Bell-correlation witness and phase-sensitivity simulator for a
two-mode Bose gas in a double well."""

__version__ = "0.1.0"

from .spin_core import (  # noqa: F401
    DickeBasis,
    Moments,
    SpinState,
    StateEnsemble,
    build_basis,
    compute_moments,
    ensemble_moments,
    ladder_coefficient,
    moment_table,
    rotate_pi2_about_x,
)
from .josephson import (  # noqa: F401
    ConvergenceError,
    ModelParams,
    Spectrum,
    SymTridiag,
    build_hamiltonian,
    full_spectrum,
    ground_state,
    thermal_ensemble,
)
from .witnesses import (  # noqa: F401
    VisibilityError,
    WitnessReport,
    bell_theta,
    bell_witness,
    build_report,
    fringe_factor,
    minimize_bell_direct,
    optimal_theta,
    param_a,
    phase_squeezing,
    report_from_moments,
    sensitivity,
    visibility,
)
from .noise import (  # noqa: F401
    NoiseConfig,
    QuadratureRule,
    blur_visibility,
    delta_mixture,
    delta_thermal_mixture,
    gauss_hermite_rule,
    split_gaussian_rule,
    witness_with_noise,
)
from .analytics import (  # noqa: F401
    SemiclassicalPrediction,
    analytic_boundary_sigma,
    analytic_boundary_temperature,
    bell_thresholds,
    semiclassical_ab,
    thermal_xi2,
)
from .fringe_mc import (  # noqa: F401
    FringeParams,
    density,
    draw_shot_phase,
    fit_phase,
    sample_shot,
    verify_sensitivity,
)
from .scan import (  # noqa: F401
    ScanRow,
    ScanSpec,
    emit_outputs,
    extract_region_boundary,
    find_zero_crossings,
    run_scan,
)
