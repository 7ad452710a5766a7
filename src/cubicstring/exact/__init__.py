"""Exact arithmetic toolkit: rationals, polynomials, fraction-free linear
algebra, Sturm root isolation, and rational interval arithmetic."""

from .interval import RatInterval, eval_interval
from .linalg import Matrix, det_exact, leading_minors, solve_exact
from .poly import Polynomial, poly_gcd, poly_product
from .rational import format_rational, parse_rational, parse_rational_list
from .roots import (
    DEFAULT_ISOLATION_WIDTH,
    RootEnclosure,
    cauchy_root_bound,
    is_squarefree,
    refine_enclosure,
    simplest_rational_between,
    sturm_chain,
    sturm_isolate,
)

__all__ = [
    "DEFAULT_ISOLATION_WIDTH",
    "Matrix",
    "Polynomial",
    "RatInterval",
    "RootEnclosure",
    "cauchy_root_bound",
    "det_exact",
    "eval_interval",
    "format_rational",
    "is_squarefree",
    "leading_minors",
    "parse_rational",
    "parse_rational_list",
    "poly_gcd",
    "poly_product",
    "refine_enclosure",
    "simplest_rational_between",
    "solve_exact",
    "sturm_chain",
    "sturm_isolate",
]
