"""kbound: exact-arithmetic genus and K^2 bounds, divisor classes on the
degree-3 rational normal scroll in P^5, and machine-checkable certificates
for the lower bound K^2 >= -d(d-6) on surfaces of degree d > 35."""

from .bounds import (
    GenusBoundResult,
    HilbertProfile,
    castelnuovo_bound,
    castelnuovo_profile,
    chi_lower_bound_s4,
    double_point_k2,
    genus_from_profile,
    halphen_bound,
    pi1_bound,
    pi1_profile,
    pi2_bound,
    pi2_profile,
    propagate_profile,
    weighted_defect_closed_form,
    weighted_defect_direct,
)
from .exact import (
    FrameRangeError,
    InconsistencyError,
    OutOfDomainError,
    Poly,
    SignCertificate,
    rat_str,
    sign_certificate,
)
from .scroll import (
    CANONICAL,
    DivisorClass,
    ExtremalSurface,
    HYPERPLANE,
    KsqMinimum,
    RULING,
    ScrollFrame,
    class_from_frame,
    extremal_class,
    frame_from_class,
    is_admissible,
    k2_intersection,
    k2_min_closed_form,
    minimize_k2,
    phi,
    phi_derivative,
    sectional_genus,
    triple_product,
)
from .verify import (
    CaseVerdict,
    Certificate,
    verify_appendix,
    verify_r2,
    verify_r3,
    verify_r4,
    verify_r5_exclusion,
    verify_r5_remark,
    verify_r_ge6_scroll,
    verify_r_ge6_spanned,
    verify_sharpness,
    verify_theorem,
)

__version__ = "0.1.0"
