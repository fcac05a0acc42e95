"""Convertible binary codes in the merge regime.

GF(2) linear algebra, linear-code structure (duals, puncturing,
shortening, distances, information sets), Reed-Muller construction, the
merge-regime conversion formalism with cost accounting, closed-form
cost bounds, and an exhaustive optimality oracle for small instances.
"""

from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionError,
    SizeGuardError,
    block_diag,
    enumerate_invertible,
    gl2_order,
    inverse,
    mat_mul,
    mat_vec,
    rank,
    right_kernel_basis,
    rref,
    solve,
    vec_mat,
    vstack,
)
from .codes import (
    CodeError,
    LinearCode,
    contains,
    decode_from_positions,
    dual,
    dual_distance,
    encode,
    first_information_set,
    from_generator,
    is_information_set,
    min_distance,
    puncture,
    random_code,
    same_code,
    sampled_min_weight,
    shorten,
    systematic_generator,
    zero_code,
)
from .reedmuller import (
    evaluate_monomial,
    low_weight_positions,
    monomial_basis,
    plotkin_sum,
    rm_code,
    rm_dimension,
    rm_generator,
    rm_transformed_generator,
)
from .conversion import (
    ConversionError,
    ConversionMatrix,
    ConvertibleInstance,
    CostReport,
    apply_conversion,
    classify_symbols,
    default_conversion,
    make_instance,
    rm_merge_apply,
    rm_merge_chain,
    rm_merge_procedure,
    verify_conversion,
)
from .bounds import (
    BoundRecord,
    BoundReport,
    BoundsError,
    ParamSet,
    audit,
    delta_sign_check,
    evaluate_bounds,
    read_lower_delta,
    read_lower_omega,
    unchanged_lower_complement,
    unchanged_total_lower,
    unchanged_upper_dual,
    unchanged_upper_singleton,
)
from .oracle import (
    SearchLimits,
    candidate_count,
    enumerate_conversions,
    min_access_cost,
)
from .matio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    read_matrix,
    write_matrix,
)

__version__ = "0.1.0"
