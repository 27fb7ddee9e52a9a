"""goi's set-up as setup_s times it: import goi, then build default_basis().

This module imports only the standard library.  The benchmark's other
modules load numpy, so they are imported after ``set_up`` has run; a fresh
process that calls ``set_up`` first therefore times goi's own import of
numpy as part of goi's import.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from types import SimpleNamespace

# Attribute on the namespace -> the goi module the workloads call.
MODULES = {
    "cli": "goi.cli",
    "config": "goi.config",
    "execution": "goi.execution",
    "goi1": "goi.logic.goi1",
    "linalg": "goi.linalg",
    "locations": "goi.logic.locations",
    "matricial": "goi.logic.matricial",
    "measurement": "goi.measurement",
    "syntax": "goi.logic.syntax",
    "verify": "goi.verify",
}


def set_up() -> tuple[SimpleNamespace, float]:
    """Import the goi modules and build default_basis(); returns them and the seconds taken.

    numpy is imported inside the timed region too, a no-op while goi loads
    it itself: every workload's warm-up needs it.
    """
    t0 = perf_counter()
    g = SimpleNamespace(**{k: importlib.import_module(v) for k, v in MODULES.items()})
    g.root = importlib.import_module("goi")
    importlib.import_module("numpy")
    g.matricial.default_basis()
    return g, perf_counter() - t0
