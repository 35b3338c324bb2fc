"""Small shared utilities: argument validation, RNG handling, float
totals, logging.

These helpers keep the rest of the library free of repetitive defensive
boilerplate while still failing fast (and with actionable messages) on
bad inputs — important for a simulator whose results silently degrade if,
say, a negative work amount sneaks in.
"""

from repro.util.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
)
from repro.util.fold import left_sum
from repro.util.rng import derive_seed, resolve_rng
from repro.util.log import get_logger
from repro.util.provenance import git_sha, utc_timestamp

__all__ = [
    "git_sha",
    "utc_timestamp",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_type",
    "derive_seed",
    "left_sum",
    "resolve_rng",
    "get_logger",
]
