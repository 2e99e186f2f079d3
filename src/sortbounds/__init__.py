"""Lower bounds for sorting under partial information.

Exact linear-extension counting and sampling, chain/order polytope geometry
with the predecessor-gap transfer map, the partial-order entropy program,
and adversary-matrix certificates for the harmonic quantum lower bound.
"""

from .errors import (
    CycleError,
    DomainError,
    LimitExceededError,
    NonConvergenceError,
    NotAnExtensionError,
    NotConsistentError,
    NotInChainPolytopeError,
    ParseError,
    QuadratureFailureError,
    SizeMismatchError,
    SortboundsError,
)
from .families import (
    antichain_poset,
    chain2_plus_point,
    chain_poset,
    diamond_poset,
    fence_poset,
    random_poset,
    random_sp_expr,
    standard_family,
)
from .linext import (
    LinearExtension,
    count_extensions,
    count_extensions_sp,
    extension_orders,
    is_extension,
    itlb,
    ln_count,
    orders_by_rank,
    sample_extension,
)
from .orderstats import (
    ClosedFormResiduals,
    closed_form_checks,
    density_cdf,
    density_f,
    exp_ln_gap_check,
    gap_distribution_check,
    harmonic,
    harmonic_table,
    ks_critical,
    ks_statistic,
)
from .polytopes import (
    EntropySolution,
    chain_matrix,
    chain_polytope_volume_mc,
    entropy,
    sample_chain_point,
    sample_order_point,
    transfer,
    transfer_inverse,
)
from .poset import (
    Poset,
    build_poset,
    count_induced_N,
    extends,
    maximal_chains,
    poset_from_text,
    poset_to_text,
    read_poset,
    relabel,
    write_poset,
)
from .quantum import (
    AdversaryMatrix,
    BoundsReport,
    NkBounds,
    TechConstant,
    analyze,
    build_adversary,
    certify_sandwich,
    d_vector,
    entropy_sp,
    hilbert_norm,
    lb,
    max_gamma_ij_norm,
    nk_bounds,
    norm_bracket,
    qh_fraction,
    qh_mc,
    qlb_fraction,
    qlb_sp_fraction,
    tech_constant,
    uniform_rayleigh,
)
from .spexpr import (
    Block,
    Parallel,
    Series,
    Singleton,
    SPExpr,
    n_poset,
    parallel,
    parse_sp,
    realize,
    recognize_sp,
    series,
    sp_decomposition,
)

__version__ = "0.1.0"
