from .fields import field_from_name, field_name, is_prime, residue
from .linalg import cross, int_rank_det, primitive
from .multipoly import VARS_X, VARS_XU, format_terms, resultant, resultant_vanishes
from .parser import PolyParseError, parse_poly
from . import unipoly

__all__ = [
    "field_from_name",
    "field_name",
    "is_prime",
    "residue",
    "cross",
    "int_rank_det",
    "primitive",
    "VARS_X",
    "VARS_XU",
    "format_terms",
    "resultant",
    "resultant_vanishes",
    "PolyParseError",
    "parse_poly",
    "unipoly",
]
