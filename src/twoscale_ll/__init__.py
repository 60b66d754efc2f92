"""Two-scale Landau-Lifshitz simulator and analysis toolkit.

A numpy/scipy library for the fast-response magnetization dynamics of a
ferromagnetic body under a slowly varying exterior field: demagnetizing
fields (FFT multiplier or depolarization tensor), equilibria and their
linearized stability, stiff time integration on the unit sphere, spectral
Galerkin diagnostics, and hysteresis loops.
"""

from .config import ConfigError
from .demag import (
    FftDemag,
    TensorDemag,
    demag_field,
    demag_tensor_estimate,
    depolarization_tensor,
)
from .dynamics import (
    BlowUpError,
    RunRecord,
    SolverConfig,
    energy,
    equilibrium_residual,
    integrate,
    ll_rhs,
    parabolic_rhs_F,
    relax_to_equilibrium,
    step,
    total_field,
)
from .experiments import (
    AsymptoticsPlan,
    HysteresisPlan,
    detect_layer_exit,
    run_asymptotics,
    run_hysteresis,
)
from .grid import (
    DegenerateCellError,
    DomainMask,
    EllipsoidSpec,
    Grid3,
    ModeMismatchError,
    ShapeMismatchError,
    constant_field,
    inner_products,
    laplacian_neumann,
    mean_magnetization,
    normalize_pointwise,
)
from .linearization import (
    ConstantEquilibrium,
    constant_equilibrium_apply,
    dissipation_scan,
    h2_quadratic_form,
    linearized_apply,
    remainder_apply,
    sample_admissible_perturbation,
)
from .schedule import (
    BumpEnvelope,
    ConstantEnvelope,
    FieldSchedule,
    FixedDirection,
    RotatingDirection,
    d_dt_h_ext,
    eval_h_ext,
)
from .spectral import commutator_PkF, project_Pk

__version__ = "0.1.0"
