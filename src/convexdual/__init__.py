"""Convex duality through weak membership oracles.

Given nothing but an approximate membership test for a convex body, the
pipelines here evaluate the dual norm of a sandwiched norm, decide
membership in the dual of a pointed full cone, evaluate Fenchel conjugates
of growth-certified convex functions, and estimate Mahler volume products.
Every derived object is an oracle again, so constructions compose.
"""

from .core import (
    CallCounter,
    CenteredBody,
    Interval,
    NormDescriptor,
    ToleranceConfig,
    DEFAULT_CONFIG,
    WeakVerdict,
    as_vector,
    rng_stream,
)
from .oracles import (
    FunctionApproxOracle,
    ReferenceCone,
    ReferenceNorm,
    WeakMembershipOracle,
    exact_to_weak,
    smat,
    svec,
)
from .cutting import (
    BracketError,
    FlatGaugeError,
    IterationCapError,
    WoptResult,
    WvalQuery,
    WvalVerdict,
    approx_separator,
    gauge_batch,
    wopt_from_wmem,
    wval_from_wmem,
)
from .normdual import (
    BisectionTrace,
    DualBallOracle,
    DualNormResult,
    ScalingBounds,
    approx_from_wmem,
    ball_scaling_bounds,
    bisection_step_count,
    dual_ball_wmem,
    dual_norm_eval,
    rescale_norm,
    wmem_from_approx,
)
from .conedual import (
    ConeDescriptor,
    DualConeOracle,
    cone_wmem_to_section_wmem,
    descriptor_from_reference,
    dual_cone_wmem,
    normalize_cone,
)
from .fenchel import (
    CertificateError,
    ConjugateEstimate,
    EpigraphBody,
    GrowthCertificate,
    InteriorMinCertificate,
    MinimizationResult,
    REFERENCE_FUNCTIONS,
    ReferenceFunction,
    dual_growth_constants,
    fenchel_brute,
    fenchel_eval,
    make_reference_function,
    min_via_wopt,
)
from .mahler import (
    MahlerEstimate,
    VolumeEstimate,
    linear_image,
    mahler_volume,
    volume_mc,
)

__version__ = "0.1.0"
