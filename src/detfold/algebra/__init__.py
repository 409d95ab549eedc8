from .fields import QQ, FpElt, PrimeField, RationalField, field_from_name, is_prime
from .linalg import int_det_bareiss, kernel_rank_det, matrix_rank
from .multipoly import VARS_X, VARS_XU, MultiPoly, poly_matrix_det, resultant, resultant_vanishes
from .parser import PolyParseError, parse_poly
from . import unipoly

__all__ = [
    "QQ",
    "FpElt",
    "PrimeField",
    "RationalField",
    "field_from_name",
    "is_prime",
    "int_det_bareiss",
    "kernel_rank_det",
    "matrix_rank",
    "VARS_X",
    "VARS_XU",
    "MultiPoly",
    "poly_matrix_det",
    "resultant",
    "resultant_vanishes",
    "PolyParseError",
    "parse_poly",
    "unipoly",
]
