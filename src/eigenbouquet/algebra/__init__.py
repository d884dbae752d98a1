"""Exact polynomial arithmetic substrate: scalars, universes, polynomials,
parsing, gcd, fraction-free linear algebra and 1-membership certification.
The names imported here are the substrate's public interface."""

from .scalars import Scalar, as_scalar
from .universe import VarUniverse
from .poly import (
    ExponentOverflow,
    NotDivisible,
    Polynomial,
    UniverseMismatch,
    monic,
    primitive_normalize,
)
from .parser import ParseError, UnknownVariable, parse_polynomial
from .gcdtools import divexact, gcd_multivariate
from .linalg import (
    bareiss_rank,
    eval_matrix_rational,
    laplace_minors,
    scalar_matrix_rank,
)
from .groebner import MembershipResult, ideal_contains_one
