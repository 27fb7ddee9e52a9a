"""Shared numeric tolerances and defaults.

The structural tolerance can be overridden at runtime through the
``GOI_TOL`` environment variable (used by the CLI and by every
structural predicate).
"""

from __future__ import annotations

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
    env = os.environ.get("GOI_TOL")
    if env:
        return float(env)
    return STRUCT_TOL
