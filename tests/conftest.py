import numpy as np
import pytest

from goi.groupoid import Idx, PartialInjectionOp
from goi.linalg import DenseOperator
from goi.measurement import DialectalOperator, PseudoTrace, dial_labels


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def hermitian_contraction(rng, n, scale=0.9):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (m + m.conj().T) / 2
    top = np.linalg.norm(m, 2)
    return m / top * scale if top else m


def random_dialectal(rng, carrier, dialect, symbolic):
    """A hermitian contraction in the dialect algebra, with positive weights."""
    alpha = PseudoTrace(tuple(rng.uniform(0.2, 1.5, size=len(dialect.blocks))))
    if symbolic:
        points = [Idx(loc, c) for loc in carrier for c in range(dialect.dim)]
        table = {}
        for b in range(len(dialect.blocks)):
            free = [pt for pt in points if dialect.assignment[pt.slot] == b]
            free = [free[i] for i in rng.permutation(len(free))]
            for x, y in zip(free[0::2], free[1::2]):
                w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
                table[x] = (y, w)
                table[y] = (x, w.conjugate())
        return DialectalOperator(carrier, dialect, alpha, PartialInjectionOp(table))
    labels = dial_labels(carrier, dialect.dim)
    block = np.tile(np.asarray(dialect.assignment), len(carrier))
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for b in range(len(dialect.blocks)):
        idx = np.flatnonzero(block == b)
        mat[np.ix_(idx, idx)] = hermitian_contraction(rng, len(idx))
    return DialectalOperator(carrier, dialect, alpha, DenseOperator(labels, mat))
