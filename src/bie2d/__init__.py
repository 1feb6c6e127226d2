"""2-D layer-potential toolkit: dense Nystrom operators, distributional
boundary data, and interior/exterior Dirichlet and Neumann solvers."""

from .errors import (
    Bie2dError,
    ConditioningWarning,
    ConfigError,
    IncompatibleData,
    InvalidGeometry,
    InvalidProbe,
    LengthMismatch,
    NearBoundary,
    NoLimit,
    NonFiniteResult,
    OutOfRange,
    SingularSystem,
)
from .geometry import (
    BoundaryMesh,
    CurveSpec,
    DomainTopology,
    build_mesh,
    indicator,
    integrate,
    locate_points,
    pairing,
    stock_mesh,
    stock_specs,
)
from .operators import (
    OperatorSet,
    operator_set,
)
from .potentials import (
    HarmonicField,
    eval_double_layer,
    eval_single_layer,
    normal_derivative_single,
    trace_double,
    trace_single,
    value_at_infinity,
)
from .distributions import (
    J_isometry,
    J_preimage,
    PairDistribution,
    V_of_distribution,
    Wt_on_distribution,
    dist_jump_check,
    dist_normal_derivative,
    dist_pairing,
    dist_single_layer_field,
    mass_of,
    to_grid_representer,
)
from .solvers import (
    NullspaceBasis,
    SolveReport,
    check_compat_exterior,
    check_compat_interior,
    decompose,
    dirichlet_exterior,
    dirichlet_exterior_via_decomposition,
    dirichlet_interior,
    dirichlet_interior_via_decomposition,
    green_h,
    neumann_exterior,
    neumann_interior,
    nullspace,
    poisson_exterior,
    poisson_interior,
)
from .verify import VerifyReport, run_verify
