"""Rank-metric coding over finite-field towers.

Gabidulin codes in q-polynomial form, a Welch-Berlekamp half-distance
decoder, and two worst-case decoders for symmetric errors: a low-rate
decoder correcting symmetric errors of any rank (even n) and a high-rate
decoder correcting self-adjoint errors up to rank n-k.
"""

from .bilinear import (OrthonormalBasisError, SymSetup, gram_matrix,
                       orthonormal_basis, select_twist, trace_form)
from .channel import (RngStream, random_codeword, random_matrix,
                      random_selfadjoint_qpoly, random_symmetric_matrix)
from .gabidulin import DecodeReport, GabCode, random_error, wb_decode
from .gf import BaseField, ExtField, field_from_json, field_to_json, make_field
from .linalg import LinearSolver, Matrix
from .qpoly import NEG_INF, QPoly, matrix_of, matrix_to_qpoly, qpoly_rank
from .symdec import (HighRateDecoder, InvalidInstanceError, LowRateDecoder,
                     MatrixCode, matrix_code_of, phi_qpoly, unfold)

__version__ = "0.1.0"

__all__ = [
    "BaseField", "ExtField", "make_field", "field_to_json", "field_from_json",
    "Matrix", "LinearSolver",
    "SymSetup", "OrthonormalBasisError", "trace_form", "gram_matrix",
    "select_twist", "orthonormal_basis",
    "NEG_INF", "QPoly",
    "qpoly_rank", "matrix_of", "matrix_to_qpoly",
    "GabCode", "DecodeReport", "wb_decode", "random_error",
    "MatrixCode", "matrix_code_of",
    "phi_qpoly", "unfold", "LowRateDecoder", "HighRateDecoder",
    "InvalidInstanceError",
    "RngStream", "random_matrix", "random_symmetric_matrix",
    "random_selfadjoint_qpoly", "random_codeword",
]
