"""Exact pointwise Kaehler linear algebra with spectral-bound tables.

The package verifies, in exact Gaussian-rational arithmetic, the pointwise
operator identities and inequalities underlying spectral lower bounds on
Kaehler manifolds with a bounded potential 1-form; computes every explicit
bound constant as an exact rational; tabulates the classical bounded
symmetric domains; and confirms sharpness numerically with a radial
Sturm-Liouville eigensolver.
"""

from .exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    bidegree_basis,
    bidegree_project,
    conjugate,
    inner,
    monomial_basis,
    norm_sq,
    wedge,
)
from .kaehler import (
    PrimitiveDecomposition,
    dual_lefschetz,
    hodge_star,
    hr_pairing,
    is_primitive,
    kahler_form,
    lefschetz_L,
    lefschetz_power,
    norm_ratio,
    primitive_basis,
    primitive_bidegree_basis,
    primitive_decompose,
    primitive_dimension,
    primitive_projection,
    recompose,
    star_inverse,
    volume_form,
    weil_operator,
)
# The harness compiles right after the exact core it drives, before the
# other layers exist: its compile transient, the largest after exterior's,
# then stacks on less resident memory, which lowers the import's peak RSS.
from .harness import (
    FailureRecord,
    RandomSpec,
    SUITES,
    SuiteReport,
    check_federer,
    check_hodge_riemann,
    check_lefschetz_structure,
    check_lemma_32,
    check_prop_31,
    check_prop_33,
    check_sl2,
    check_star_primitive,
    random_form,
    run_all,
    run_suite,
    simple_random_form,
)
from .bounds import (
    BoundConstant,
    MinimalityReport,
    c_k,
    c_pq,
    constant_table,
    function_bound,
    middle_k_bound,
    middle_pq_bound,
    primitive_remark_bound,
    spectral_bound,
    verify_ck_is_min,
)
from .domains import (
    BoundReport,
    DegreeBound,
    DomainFactor,
    DomainSpec,
    classical_table,
    degree_k_bounds,
    domain,
    eta_min_sq,
    factor_invariants,
    hsc_upper_bound,
    kh_length_sq,
    lambda0_bound,
    parse_product,
    type_I,
    type_II,
    type_III,
    type_IV,
    type_V,
    type_VI,
)
from .spectral import (
    BisectionResult,
    ComplexHyperbolic,
    EigenResult,
    RealHyperbolic,
    SharpnessReport,
    assemble_tridiagonal,
    check_grid,
    lambda0_estimate,
    richardson_extrapolate,
    sharpness_report,
    smallest_eigenvalue,
)

__version__ = "0.1.0"
