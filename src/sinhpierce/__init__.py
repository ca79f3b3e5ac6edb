"""Multi-bubble blow-up solutions of sinh-Poisson type equations on pierced
planar domains: ansatz construction, fixed-point correction, and a suite of
quantitative checks."""

from .coeffs import (
    BlowupConfig,
    CoefficientSet,
    ScaleParams,
    choose_scales,
    coefficient_set,
    compute_rho_i,
    constant_potential,
    solve_beta,
    solve_gamma,
)
from .corrector import (
    Run,
    SolveReport,
    Solution,
    Stage,
    construct_solution,
    continuation_sweep,
    fixed_point_correct,
)
from .geometry import (
    DomainSpec,
    Mesh,
    MeshPolicy,
    build_mesh,
)
from .greens import GreenProvider
from .operators import (
    Field,
    LinearOperator,
    nonlinear_N,
    residual_R,
    weight_W,
)
from .bubbles import (
    Bubble,
    assemble_U,
    build_ansatz,
    far_expansion,
    make_bubbles,
    project_numeric,
    regular_parts,
)
from .potentials import PotentialExpr, parse_potential
from .runconfig import RunConfig, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
