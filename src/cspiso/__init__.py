"""Exact partition functions, isomorphism witnesses, and Holant gadget
calculus for counting constraint satisfaction problems."""

from .algebra import (
    ConstraintFunction,
    GaussianRational,
    Matrix,
    binary_from_rows,
    conjugate_function,
    constant_function,
    equality_function,
    evaluate,
    flatten,
    format_scalar,
    gaussian,
    parse_scalar,
    permute_domain,
    unary_function,
    unflatten,
)
from .instances import (
    CFSet,
    LabeledInstance,
    forget_labels,
    is_simple,
    product,
    replace_functions,
    unit_instance,
)
from .partition import partition_function, pinned_partition
from .structure import (
    augment_universal,
    automorphisms,
    connected_components,
    contract_twins,
    direct_sum,
    direct_sum_sets,
    find_isomorphisms,
    is_isomorphism,
    isomorphisms,
    restrict_instance,
    twin_classes,
)
from .interpolation import (
    DistinguishResult,
    build_family_one,
    build_family_two,
    build_family_three,
    distinguish,
    vandermonde_class_sums,
    well_balanced_extension,
)
from .holant import (
    EQ,
    Gadget,
    adjoint,
    compose,
    csp_to_grid,
    equality_gadget,
    function_gadget,
    holant_value,
    crossing_gadget,
    signature_matrix,
    tensor,
)
from .expressions import (
    decompose,
    equality_expression,
    evaluate_expression,
    permutation_expression,
)
from .intertwiners import (
    IntertwinerSpace,
    PermutationGroup,
    gadget_span,
    intertwiner_basis,
    is_intertwiner,
    same_orbit,
    same_orbit_via_intertwiners,
    witness_sigma,
)

__version__ = "0.1.0"
