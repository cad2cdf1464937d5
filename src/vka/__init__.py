"""Alexander-type invariants of long and closed virtual knots from Gauss codes."""

from .diagram import (
    CLOSED,
    Diagram,
    GaussCodeError,
    LONG,
    TRIVIAL_LONG,
    UNKNOT,
    close,
    concatenate,
    dn_family,
    parse_gauss,
    serialize_gauss,
    switch_all_crossings,
)
from .alexander import (
    GroupPresentationZ2,
    abelianize,
    diagonal_t,
    extended_presentation,
    one_var_matrix,
    one_variable,
    quotient_kill,
    tietze_eliminate,
)
from .invariants import (
    BudgetExceeded,
    char_poly,
    coloring_count,
    determinant_long,
    elementary_minors,
    hom_count_to_cyclic,
    transfer_condition,
    transfer_matrix,
    unit_minor_check,
)
from .laurent import LaurentPoly, parse_poly
from .moves import IllegalMove, apply_move, random_walk

__version__ = "0.1.0"

__all__ = [
    "CLOSED",
    "BudgetExceeded",
    "Diagram",
    "GaussCodeError",
    "GroupPresentationZ2",
    "IllegalMove",
    "LONG",
    "LaurentPoly",
    "TRIVIAL_LONG",
    "UNKNOT",
    "abelianize",
    "apply_move",
    "char_poly",
    "close",
    "coloring_count",
    "concatenate",
    "determinant_long",
    "diagonal_t",
    "dn_family",
    "elementary_minors",
    "extended_presentation",
    "hom_count_to_cyclic",
    "one_var_matrix",
    "one_variable",
    "parse_gauss",
    "parse_poly",
    "quotient_kill",
    "random_walk",
    "serialize_gauss",
    "switch_all_crossings",
    "tietze_eliminate",
    "transfer_condition",
    "transfer_matrix",
    "unit_minor_check",
]
