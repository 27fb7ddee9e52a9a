"""Dense complex-matrix kernel.

Operators are square complex matrices whose rows and columns are labelled
by an ordered carrier of opaque tokens.  All arithmetic aligns operands by
label, never by raw position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .config import struct_tol
from .errors import CarrierError, NumericError

Label = object  # opaque totally-ordered token; ints and tuples in practice


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix indexed by an ordered carrier of labels."""

    carrier: tuple
    mat: np.ndarray

    def __post_init__(self):
        carrier = tuple(self.carrier)
        mat = np.array(self.mat, dtype=np.complex128)
        n = len(carrier)
        if mat.shape != (n, n):
            raise CarrierError(f"matrix shape {mat.shape} does not fit carrier of size {n}")
        if len(set(carrier)) != n:
            raise CarrierError("carrier labels must be distinct")
        if not np.isfinite(mat).all():
            raise NumericError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "mat", mat)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(carrier: Iterable) -> "DenseOperator":
        carrier = tuple(carrier)
        return DenseOperator(carrier, np.zeros((len(carrier), len(carrier)), dtype=np.complex128))

    @staticmethod
    def identity(carrier: Iterable) -> "DenseOperator":
        carrier = tuple(carrier)
        return DenseOperator(carrier, np.eye(len(carrier), dtype=np.complex128))

    @staticmethod
    def diagonal(carrier: Iterable, values: Sequence[complex]) -> "DenseOperator":
        carrier = tuple(carrier)
        return DenseOperator(carrier, np.diag(np.array(values, dtype=np.complex128)))

    # -- basic structure ----------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.carrier)

    def index_of(self, label) -> int:
        try:
            return self.carrier.index(label)
        except ValueError:
            raise CarrierError(f"label {label!r} not in carrier") from None

    def aligned_to(self, carrier: Sequence) -> np.ndarray:
        """Matrix re-ordered to the given carrier (same label set)."""
        carrier = tuple(carrier)
        if carrier == self.carrier:
            return self.mat
        if set(carrier) != set(self.carrier):
            raise CarrierError("carriers hold different label sets")
        pos = {l: i for i, l in enumerate(self.carrier)}
        perm = [pos[l] for l in carrier]
        return self.mat[np.ix_(perm, perm)]

    def embed(self, carrier: Sequence) -> "DenseOperator":
        """Zero-padded copy on a larger carrier."""
        carrier = tuple(carrier)
        if not set(self.carrier) <= set(carrier):
            raise CarrierError("embedding carrier must contain the original")
        mat = np.zeros((len(carrier), len(carrier)), dtype=np.complex128)
        pos = {l: i for i, l in enumerate(carrier)}
        idx = [pos[l] for l in self.carrier]
        mat[np.ix_(idx, idx)] = self.mat
        return DenseOperator(carrier, mat)

    def restrict(self, labels: Iterable) -> "DenseOperator":
        labels = tuple(labels)
        pos = {l: i for i, l in enumerate(self.carrier)}
        try:
            idx = [pos[l] for l in labels]
        except KeyError as exc:
            raise CarrierError(f"label {exc.args[0]!r} not in carrier") from None
        return DenseOperator(labels, self.mat[np.ix_(idx, idx)])

    # -- arithmetic sugar ----------------------------------------------

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.carrier, self.mat + other.aligned_to(self.carrier))

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return DenseOperator(self.carrier, self.mat - other.aligned_to(self.carrier))

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        return mat_mul(self, other)

    def scale(self, z: complex) -> "DenseOperator":
        return DenseOperator(self.carrier, z * self.mat)

    def max_abs_diff(self, other: "DenseOperator") -> float:
        d = self.mat - other.aligned_to(self.carrier)
        return float(np.max(np.abs(d))) if d.size else 0.0

    # -- predicates ----------------------------------------------------

    def is_hermitian(self, tol: float | None = None) -> bool:
        tol = struct_tol() if tol is None else tol
        if not self.dim:
            return True
        return float(np.max(np.abs(self.mat - self.mat.conj().T))) <= tol

    def is_projection(self, tol: float | None = None) -> bool:
        tol = struct_tol() if tol is None else tol
        if not self.dim:
            return True
        return (
            self.is_hermitian(tol)
            and float(np.max(np.abs(self.mat @ self.mat - self.mat))) <= tol
        )

    def is_partial_isometry(self, tol: float | None = None) -> bool:
        tol = struct_tol() if tol is None else tol
        if not self.dim:
            return True
        a = self.mat
        return float(np.max(np.abs(a @ a.conj().T @ a - a))) <= tol


@dataclass(frozen=True)
class SpectralReport:
    """Certified spectral-radius estimate.

    ``spectral_radius`` is a rigorous upper bound (Gelfand, Frobenius
    norm of repeated squares); ``lower_bound`` comes from trace powers.
    ``decided_by`` says why the squaring stopped: "upper" (below 1),
    "lower" (at least 1), "zero", "converged" or "cap" (60 squarings).
    """

    spectral_radius: float
    lower_bound: float
    exact_zero: bool = False
    note: str = ""
    squarings: int = 0
    decided_by: str = "converged"

    def below_one(self) -> bool:
        return self.exact_zero or self.spectral_radius < 1.0

    def at_least_one(self) -> bool:
        return (not self.below_one()) and self.lower_bound >= 1.0 - 1e-12

    def straddles_one(self) -> bool:
        return not self.below_one() and not self.at_least_one()


def mat_mul(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """Label-aligned matrix product; carriers must hold the same labels."""
    return DenseOperator(a.carrier, a.mat @ b.aligned_to(a.carrier))


def adjoint(a: DenseOperator) -> DenseOperator:
    return DenseOperator(a.carrier, a.mat.conj().T)


def operator_norm(a: DenseOperator) -> float:
    """Largest singular value, from LAPACK's SVD: ``np.linalg.norm(a, 2)`` without its axis handling."""
    if a.dim == 0:
        return 0.0
    return float(np.linalg.svd(a.mat, compute_uv=False).max())


def spectral_radius(a: DenseOperator, tol: float = 1e-9, gate: bool = False) -> SpectralReport:
    """Gelfand estimate by repeated squaring with certified bounds.

    By default the squaring runs until the upper bound converges to
    ``tol`` relative.  With ``gate=True`` it stops at the decision: once
    the upper bound is below 1, the lower bound is at least 1 - 1e-12, or
    a power vanishes.  If the upper bound converges while the bounds still
    straddle 1, it is frozen and the squaring goes on, up to 60, for the
    trace-power lower bound alone; that certifies a radius of exactly 1
    (cycles of partial symmetries), and never yields a new "below 1".
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.dim
    if n == 0 or not np.any(a.mat):
        return SpectralReport(0.0, 0.0, exact_zero=True, note="zero operator", decided_by="zero")

    b = np.array(a.mat)
    log_norm = 0.0  # log of the scale factor pulled out of b
    power = 1
    upper = float(np.linalg.norm(b))  # Frobenius bound at power 1
    lower = abs(np.trace(b)) / n
    note = ""
    squarings, converged = 0, False
    while squarings < 60 and not (gate and (upper < 1.0 or lower >= 1.0 - 1e-12)):
        b2 = b @ b
        fro = float(np.linalg.norm(b2))
        power *= 2
        squarings += 1
        if fro == 0.0:
            return SpectralReport(0.0, 0.0, exact_zero=True, note="nilpotent: some power vanishes", squarings=squarings, decided_by="zero")
        log_norm = 2.0 * log_norm + math.log(fro)
        b = b2 / fro
        cand = math.exp(log_norm / power) * (1.0 + 1e-13)
        tr_b = abs(np.trace(b))
        if tr_b > 0:
            lower = max(lower, math.exp((math.log(tr_b) + log_norm - math.log(n)) / power))
        if cand < upper and not converged:
            converged = upper - cand <= tol * max(cand, 1e-300) and power >= 16
            upper = cand
            if converged and not gate:
                break
    if gate:
        decided_by = "upper" if upper < 1.0 else "lower" if lower >= 1.0 - 1e-12 else "cap"
    else:
        decided_by = "converged" if converged else "cap"
    lower = min(lower, upper)
    if 0.999 <= upper and lower <= 1.001 and not (upper < 1.0 or lower >= 1.0 - 1e-12):
        note = "bounds straddle 1"
    return SpectralReport(upper, lower, note=note, squarings=squarings, decided_by=decided_by)


def plain_det(a: DenseOperator) -> complex:
    """Ordinary determinant via pivoted elimination."""
    if a.dim == 0:
        return 1.0 + 0j
    return complex(np.linalg.det(a.mat))


def fk_det(a: DenseOperator) -> float:
    """Positive determinant exp(tr log |a|) for the normalized trace, i.e.
    ``|det a| ** (1/n)``.  Singular input yields 0.
    """
    n = a.dim
    if n == 0:
        return 1.0
    sign, logabs = np.linalg.slogdet(a.mat)
    if sign == 0:
        return 0.0
    return math.exp((1.0 / n) * logabs)


def direct_sum(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    if set(a.carrier) & set(b.carrier):
        raise CarrierError("direct sum requires disjoint carriers")
    carrier = a.carrier + b.carrier
    n, m = a.dim, b.dim
    mat = np.zeros((n + m, n + m), dtype=np.complex128)
    mat[:n, :n] = a.mat
    mat[n:, n:] = b.mat
    return DenseOperator(carrier, mat)


def union_carrier(*carriers: Sequence) -> tuple:
    """The labels of every carrier in order of first appearance: the concatenation when they are disjoint."""
    return tuple(dict.fromkeys(chain.from_iterable(carriers)))
