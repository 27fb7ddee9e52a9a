"""Closed-loop measurement, set-up probes, statistics and provenance."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import ItemResult, Workload

# Fresh processes whose set-up gives setup_s.
SETUP_PROBES = {"full": 9, "tiny": 1}
PROBE_TIMEOUT_S = 150


def run_rounds(workload: Workload, seconds: float, after=None, replay=None) -> tuple[list[ItemResult], int]:
    """Run whole rounds, one item at a time, until the measured item time is
    within half a round of ``seconds``, so a run measures about ``seconds``
    and always whole rounds of the mix.

    ``after(seconds)`` runs untimed after each item; ``replay(r)`` runs
    untimed after round ``r``.
    """
    results: list[ItemResult] = []
    measured = 0.0
    r = 0
    while True:
        batch = workload.run_round(r, None, after)
        results += batch
        if replay is not None:
            replay(r)
        r += 1
        last = sum(x.seconds for x in batch)
        measured += last
        if measured >= seconds - last / 2:
            break
    return results, r


class SetupSampler:
    """setup_s samples from fresh interpreter processes, spread over the measured phase.

    Interference from other work on the host comes in bursts of a few
    seconds.  Probes run one after another would fall into one burst, so
    they run between items, at evenly spaced points of the measured time.
    """

    def __init__(self, script: Path, workload: str, seed: int, scale: str, seconds: float):
        self.cmd = [sys.executable, str(script), "--setup-probe", "--workload", workload, "--seed", str(seed), "--scale", scale]
        n = SETUP_PROBES[scale]
        self.due = [seconds * (k + 0.5) / n for k in range(n)]
        self.measured = 0.0
        self.samples: list[float] = []

    def after_item(self, seconds: float) -> None:
        self.measured += seconds
        while self.due and self.measured >= self.due[0]:
            self._probe()

    def finish(self) -> list[float]:
        """Run the probes a short run did not reach; returns every sample."""
        while self.due:
            self._probe()
        return self.samples

    def _probe(self) -> None:
        self.due.pop(0)
        _wait_until_idle()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _wait_until_idle(step_s: float = 0.05, limit_s: float = 1.0) -> None:
    """Sleep until this process stops using CPU, or for at most ``limit_s``.

    After a call, OpenBLAS workers spin for about 0.1 s of CPU before they
    park; a probe started meanwhile shares the two CPUs with them and its
    set-up runs up to 1.5x slower.
    """
    last = time.process_time()
    for _ in range(int(limit_s / step_s)):
        time.sleep(step_s)
        now = time.process_time()
        if now - last < step_s / 10:
            return
        last = now


# The host's speed, measured between items.  On a shared virtual machine
# the same code runs up to 2x slower for minutes at a time (adjunction-mat
# took 2.8 s in one run and 5.4 s a minute later); a fixed piece of work
# that touches no goi code slows down with it, so the compared rate is
# scaled to a host on which that work takes REFERENCE_S.
REFERENCE_S = 2e-3
# One sample per this much item time, and at least one after each item, so
# that the median weighs each stretch of the run by how long items ran in it.
REFERENCE_EVERY_S = 0.05
_REF_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def reference_work() -> float:
    """Seconds taken by interpreter work and small numpy calls, the two costs goi's items are made of.

    Element-wise calls on a fixed matrix only: BLAS buffers or numpy.random
    would add to peak_rss_mb on workloads that never load them.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(8_000):
        acc += i * i % 7
    for _ in range(200):
        (_REF_MATRIX * _REF_MATRIX + 1.0).sum()
    return time.perf_counter() - t0


def percentile(values: list[float], pct: int) -> float:
    """Exclusive-method percentile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: list[ItemResult], setup_samples: list[float], reference_samples: list[float]) -> tuple[dict, dict]:
    """The compared metrics and the ones printed beside them.

    items_per_ref_s is items_per_s scaled by the run's median time of
    reference_work() over REFERENCE_S.  Over ten runs items_per_s spreads
    by up to 0.29 IQR/median on a shared two-CPU virtual machine, and its
    median moves by up to 27 % within 90 minutes.  Percentiles of a fixed mix
    are one item kind's latency each and spread by 0.25 to 0.55, so they
    are printed but not compared.
    """
    lat = [r.seconds for r in results]
    rate = len(lat) / sum(lat)
    reference = statistics.median(reference_samples)
    compared = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_ref_s": (rate * reference / REFERENCE_S, "1/ref_s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    printed = {
        "items_per_s": (rate, "1/s"),
        "reference_ms": (reference * 1e3, "ms"),
        "item_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
    }
    return compared, printed


def named_latencies(results: list[ItemResult], names) -> dict:
    out = {}
    for name in names:
        lat = [r.seconds for r in results if r.name == name]
        if lat:
            out[name] = {"median_ms": statistics.median(lat) * 1e3, "n": len(lat)}
    return out


def round_mix(results: list[ItemResult], rounds: int) -> dict:
    counts: dict[str, int] = {}
    for r in results:
        counts[r.name] = counts.get(r.name, 0) + 1
    return {"rounds": rounds, "items": len(results), "per_round": {k: v / rounds for k, v in sorted(counts.items())}}


# ----------------------------------------------------------------------
# Provenance


def blas_info() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Size of the loaded OpenBLAS pool, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout; git is not asked to look above ``root``."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(root: Path, workload: Workload, seed: int, mix: dict) -> dict:
    g = workload.g
    return {
        "goi_version": g.root.__version__,
        "goi_path": str(Path(g.root.__file__).resolve().parent.relative_to(root)),
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "goi_tol": g.config.struct_tol(),
        "goi_tol_env": os.environ.get("GOI_TOL"),
        "workload": workload.name,
        "seed": seed,
        "scale": workload.scale,
        "params": workload.params(),
        "mix": mix,
    }
