"""Convertible binary codes in the merge regime.

GF(2) linear algebra, linear-code structure (duals, puncturing,
shortening, distances, information sets), Reed-Muller construction, the
merge-regime conversion formalism with cost accounting, closed-form
cost bounds, and an exhaustive optimality oracle for small instances.

The public names below resolve on first use (PEP 562): importing the
package loads none of its modules, and ``convcode.rm_code`` imports
``convcode.reedmuller`` and returns its ``rm_code``.
"""

import importlib

# Public name -> the module that defines it.
_HOME = {name: module for module, names in {
    "gf2": """BitMatrix BitVector DimensionError SizeGuardError block_diag
        enumerate_invertible gl2_order inverse mat_mul rank rref vec_mat""",
    "codes": """CodeError LinearCode contains decode_from_positions dual
        dual_distance encode first_information_set from_generator
        min_distance puncture random_code shorten systematic_generator
        zero_code""",
    "reedmuller": """evaluate_monomial low_weight_positions monomial_basis
        plotkin_sum rm_code rm_dimension rm_generator
        rm_transformed_generator""",
    "conversion": """ConversionError ConversionMatrix ConvertibleInstance
        CostReport apply_conversion classify_symbols default_conversion
        make_instance rm_merge_apply rm_merge_chain rm_merge_procedure
        verify_conversion""",
    "bounds": """BoundRecord BoundReport BoundsError ParamSet audit
        evaluate_bounds read_lower_delta read_lower_omega
        unchanged_lower_complement unchanged_total_lower
        unchanged_upper_dual unchanged_upper_singleton""",
    "oracle": """SearchLimits candidate_count enumerate_conversions
        min_access_cost""",
    "matio": """MatrixFormatError format_matrix parse_matrix read_matrix
        write_matrix""",
}.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
