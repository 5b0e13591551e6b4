"""Measurement lab for I/O cost and repair bandwidth of linear Reed-Solomon repair.

The package models full-length Reed-Solomon codes over GF(q^ell), linear repair
schemes given by dual codewords, the per-node I/O matrices they induce, and both
routes to the I/O cost (direct column counting and the weight-of-rowspace formula).
It also builds low-I/O schemes from subspace-annihilating linearized polynomials
and searches scheme space exhaustively for certified minima.
"""
from .fieldmath import FieldContext
from .linalg import coset_weight, rank
from .rs import RSCode
from .scheme import RepairScheme
from .qpoly import qp_image, solve_annihilator, subspace_intersect_kernels
from .construction import (
    build_low_io_scheme,
    compare_baselines,
    has_block_shape,
    largest_valid_s,
    predicted_cost,
)
from .search import VerificationError, gaussian_binomial, min_io_exhaustive, verify_bound

__all__ = [
    "FieldContext",
    "coset_weight",
    "rank",
    "RSCode",
    "RepairScheme",
    "qp_image",
    "solve_annihilator",
    "subspace_intersect_kernels",
    "build_low_io_scheme",
    "compare_baselines",
    "has_block_shape",
    "largest_valid_s",
    "predicted_cost",
    "VerificationError",
    "gaussian_binomial",
    "min_io_exhaustive",
    "verify_bound",
]
