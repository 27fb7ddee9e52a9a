"""Shared numeric tolerances and defaults.

The structural tolerance can be overridden at runtime through the
``GOI_TOL`` environment variable (used by the CLI and by every
structural predicate).
"""

from __future__ import annotations

import math
import os

# Structural predicates: hermitian, projection, partial isometry.
STRUCT_TOL = 1e-9

# Contraction tests: slack allowed on the operator norm above 1.
NORM_SLACK = 1e-6

# Per-seed step budget for orbit exploration.
ORBIT_BUDGET = 10_000

# Default seed for every randomized suite.
DEFAULT_SEED = 0xC0FFEE


def struct_tol() -> float:
    """GOI_TOL when it is set, else STRUCT_TOL; ValueError unless finite and positive."""
    env = os.environ.get("GOI_TOL")
    if not env:
        return STRUCT_TOL
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"GOI_TOL must be a finite positive number, got {env!r}")
    return tol
