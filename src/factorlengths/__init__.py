"""Exact factorization-length distributions for numerical semigroups."""

from .exactnum import QuadNumber, Rational, compare_quadratics, is_prime, isqrt, quad_sqrt
from .factorization import LengthMultiset, length_multiset, min_max_length
from .invariants import InvariantReport, invariant_report, mean_length, median_length, mode
from .semigroup import (
    InvalidGenerators,
    NotInSemigroup,
    Semigroup,
    TradeData,
    contains,
    make_semigroup,
    parse_semigroup,
    trade_data,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidGenerators",
    "InvariantReport",
    "LengthMultiset",
    "NotInSemigroup",
    "QuadNumber",
    "Rational",
    "Semigroup",
    "TradeData",
    "compare_quadratics",
    "contains",
    "invariant_report",
    "is_prime",
    "isqrt",
    "length_multiset",
    "make_semigroup",
    "mean_length",
    "median_length",
    "min_max_length",
    "mode",
    "parse_semigroup",
    "quad_sqrt",
    "trade_data",
]
