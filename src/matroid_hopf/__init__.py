"""Matroids, two Hopf algebra structures on their isomorphism classes,
dendriform coproduct splittings, and a convolution-character polynomial
invariant, all exact and verifiable by exhaustive computation on small
ground sets."""

from .matroid import (
    AxiomViolation,
    BadElement,
    BadVertexIndex,
    InvalidRank,
    Matroid,
    elements_of,
    empty_matroid,
    graphic,
    mask_of,
    submasks,
    uniform,
    validate,
)
from .canonical import (
    GroundSetTooLarge,
    IsoKey,
    canonical_key,
    is_isomorphic,
)
from .formal import (
    ArityMismatch,
    ModuleElement,
    Monomial,
    Polynomial,
    TensorElement,
    module_product,
)
from .hopf import (
    CoproductMode,
    antipode_element,
    antipode_rd,
    coproduct,
    coproduct_element,
    coproduct_monomial,
    counit,
    iterated_coproduct,
)
from .dendriform import (
    DendriformReport,
    EmptyMatroidError,
    SplitPair,
    check_dendriform_axioms,
    codendriform_gap,
    reduced_coproduct,
    split,
)
from .characters import (
    LinearFunctional,
    NotInfinitesimal,
    alpha,
    alpha_four_factor,
    conv_exp,
    conv_unit,
    convolve,
    delta_coloop,
    delta_loop,
    linear_combination,
    poly_P,
    poly_P_closed_form,
    poly_P_convolution_rhs,
    poly_P_recursion_check,
)
from .catalog import (
    Catalog,
    CatalogTooLarge,
    cached_catalog,
    enumerate_matroids,
    load_cache,
    save_cache,
)

__all__ = [
    "AxiomViolation", "BadElement", "BadVertexIndex", "InvalidRank", "Matroid",
    "elements_of", "empty_matroid", "graphic", "mask_of", "submasks", "uniform",
    "validate",
    "GroundSetTooLarge", "IsoKey", "canonical_key", "is_isomorphic",
    "ArityMismatch", "ModuleElement", "Monomial", "Polynomial", "TensorElement",
    "module_product",
    "CoproductMode", "antipode_element", "antipode_rd", "coproduct",
    "coproduct_element", "coproduct_monomial", "counit", "iterated_coproduct",
    "DendriformReport", "EmptyMatroidError", "SplitPair", "check_dendriform_axioms",
    "codendriform_gap", "reduced_coproduct", "split",
    "LinearFunctional", "NotInfinitesimal", "alpha", "alpha_four_factor",
    "conv_exp", "conv_unit", "convolve", "delta_coloop", "delta_loop",
    "linear_combination", "poly_P", "poly_P_closed_form", "poly_P_convolution_rhs",
    "poly_P_recursion_check",
    "Catalog", "CatalogTooLarge", "cached_catalog", "enumerate_matroids",
    "load_cache", "save_cache",
]
