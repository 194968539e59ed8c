"""Numerical toolkit for symphonic and bi-symphonic maps between
chart-defined Riemannian manifolds."""

__version__ = "0.1.0"

from .expr import parse, program, eval_jet, to_source  # noqa: F401
from .geometry import (  # noqa: F401
    ManifoldModel, MetricAtPoint, metric_at, frame_at,
    gradient, hessian, laplacian, euclidean_space,
)
from .jet import Jet  # noqa: F401
from .maps import (  # noqa: F401
    MapSpec, TangentField, differential, pullback_metric,
    symphonic_energy_density, second_fundamental_form, tension_field,
    symphonic_stress, symphonic_tension, scalar_symphonic_residual,
)
from .mesh import Mesh, build_mesh, pairwise_sum  # noqa: F401
from .variational import (  # noqa: F401
    REDUCED, FULL, jacobi_operator, bi_tension, bi_tension_groups,
    symphonic_energy, bi_energy, first_variation_pairing,
    bi_variation_pairing, index_form_pairing,
)
from .oracle import (  # noqa: F401
    Deformation, fd_first_variation, fd_second_variation, richardson_order,
)
from .flow import FlowState, flow_init, flow_step, flow_run  # noqa: F401
from .cases import CaseResult, run_case, run_all, CASES  # noqa: F401
