"""Exact arithmetic toolkit: rationals, polynomials, fraction-free linear
algebra, Sturm root isolation, and rational intervals on integers."""

from .interval import RatInterval, divide_ends, eval_interval
from .linalg import Matrix, bordered_minors, det_exact, solve_exact
from .poly import Polynomial, linear_combination
from .rational import format_rational, parse_rational, parse_rational_list
from .roots import (
    cauchy_root_bound,
    refine_enclosure,
    sturm_chain,
    sturm_isolate,
)

__all__ = [
    "Matrix",
    "Polynomial",
    "RatInterval",
    "bordered_minors",
    "cauchy_root_bound",
    "det_exact",
    "divide_ends",
    "eval_interval",
    "format_rational",
    "linear_combination",
    "parse_rational",
    "parse_rational_list",
    "refine_enclosure",
    "solve_exact",
    "sturm_chain",
    "sturm_isolate",
]
