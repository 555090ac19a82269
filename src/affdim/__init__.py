"""Dimension computation and certification for planar self-affine sets and
measures: singular value pressure, Lyapunov exponents, dominated-splitting
and separation certificates, and the theorem engine combining them."""

from .dimension import (
    DimensionReport,
    EstimateSeries,
    analyze,
    analyze_targets,
    box_dimension_estimate,
    correlation_dimension_estimate,
    hueter_lalley_check,
    lower_bound_iteration,
    ly_dimension_formula,
)
from .ergodic import (
    ExponentTriple,
    entropy,
    lyapunov_dimension,
    lyapunov_enclosure,
    lyapunov_monte_carlo,
    lyapunov_triangular,
)
from .hochman import DeltaReport, LineIfs, delta_n, hochman_rate
from .ifs import (
    AffineMap,
    BernoulliWeights,
    IfsSystem,
    Polygon,
    SscReport,
    check_ssc,
    compose_word,
    natural_projection,
    parse_system,
    sample_measure,
    serialize_system,
)
from .linalg2 import (
    Mat2,
    ProjArc,
    ProjPoint,
    SingularPair,
    arc_image,
    phi_s,
    proj_act,
    proj_metric,
    singular_values,
)
from .pressure import (
    RootEstimate,
    pressure_n,
    pressure_root,
    triangular_pressure,
    triangular_roots,
)
from .splitting import (
    Multicone,
    SplitReport,
    certify,
    check_multicone_invariance,
    check_triangular_split,
    min_angle_separation,
    stable_direction,
    strong_stable_direction,
)

__version__ = "0.1.0"
