"""Tables that enter from outside are checked; the algebra's own results are built unchecked.

``PartialInjectionOp(..., validate=False)`` takes a table as given.  Every
way in for outside data (the constructor, ``from_table``, ``arrows``,
``cylinder(s)``, delocations, ``sum_disjoint`` of two operators) must
still refuse a weight off the unit circle, two sources on one target
and a table that meets a cylinder, and must read ``GOI_TOL``.  The
extension by a one-dimensional dialect is the identity and is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.cli import EXIT_CONFIG, main
from goi.errors import CarrierError, DisjointnessError
from goi.execution import union_dialectal
from goi.groupoid import Idx, PartialInjectionOp, WeightedInjection, sum_disjoint
from goi.linalg import DenseOperator
from goi.measurement import TRIVIAL_DIALECT, UNIT_TRACE, Dialect, DialectalOperator, extended_pair
from goi.projects import Delocation

from conftest import random_dialectal
from oracles import reference_dagger, reference_ddagger

R_CYLINDER = PartialInjectionOp.cylinder("R", "")  # n -> 2n, on every index of slot 0


class TestEnteringTablesAreChecked:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialInjectionOp({Idx(0): (Idx(1), 0.5)}),
            lambda: PartialInjectionOp({(0, 1): ((1, 1), 1.1j)}),
            lambda: PartialInjectionOp.arrows([(0, 1)], weight=0.5),
            lambda: PartialInjectionOp.cylinder("R", "L", weight=2.0),
            lambda: PartialInjectionOp.cylinders([("R", "L", 0.9, 0, 0)]),
            lambda: Delocation.from_pairs([0, 1], [2, 3], phases=[1.0, 0.5]),
        ],
    )
    def test_weight_off_the_unit_circle(self, build):
        with pytest.raises(ValueError, match="modulus 1"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialInjectionOp.from_table({0: 2, 1: 2}),
            lambda: PartialInjectionOp.arrows([(0, 2), (1, 2)]),
            lambda: PartialInjectionOp({Idx(0): (Idx(2), 1.0), Idx(1): (Idx(2), -1.0)}),
            lambda: Delocation.from_pairs([0, 1], [2, 2]),
            lambda: sum_disjoint(PartialInjectionOp.from_table({0: 2}), PartialInjectionOp.from_table({1: 2})),
        ],
    )
    def test_two_sources_on_one_target(self, build):
        with pytest.raises(DisjointnessError, match="two sources"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialInjectionOp({Idx(3): (Idx(5), 1.0)}, cyls=R_CYLINDER.cyls),
            lambda: sum_disjoint(PartialInjectionOp.from_table({3: 5}), R_CYLINDER),
            lambda: sum_disjoint(PartialInjectionOp.from_table({1: 4}), R_CYLINDER),
        ],
    )
    def test_table_meets_a_cylinder(self, build):
        with pytest.raises(DisjointnessError, match="overlap"):
            build()

    def test_goi_tol_is_read_where_a_table_enters(self, monkeypatch):
        near = 1.0 + 1e-5
        with pytest.raises(ValueError, match="modulus 1"):
            PartialInjectionOp.arrows([(0, 1)], weight=near)
        monkeypatch.setenv("GOI_TOL", "1e-3")
        assert PartialInjectionOp.arrows([(0, 1)], weight=near).table[Idx(0)][1] == near

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartialInjectionOp.from_table({0: 1}),
            lambda: PartialInjectionOp.cylinder("R", ""),
            lambda: Delocation.from_pairs([0], [1]),
        ],
    )
    def test_bad_goi_tol_is_refused_where_a_table_enters(self, monkeypatch, build):
        monkeypatch.setenv("GOI_TOL", "abc")
        with pytest.raises(ValueError, match="GOI_TOL must be a finite positive number"):
            build()

    def test_bad_goi_tol_exits_4(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "p.sexp"
        path.write_text("(tensor (ax X1) (ax X2))", encoding="utf-8")
        monkeypatch.setenv("GOI_TOL", "-1")
        assert main(["interpret", str(path)]) == EXIT_CONFIG
        assert "GOI_TOL must be a finite positive number" in capsys.readouterr().err

    def test_one_way_table_is_not_a_dialectal_operator(self):
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator((0, 1), TRIVIAL_DIALECT, UNIT_TRACE, PartialInjectionOp.from_table({0: 1}))
        # both arrows, but weights that are not conjugate
        twisted = PartialInjectionOp({Idx(0): (Idx(1), 1j), Idx(1): (Idx(0), 1j)})
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator((0, 1), TRIVIAL_DIALECT, UNIT_TRACE, twisted)


# ----------------------------------------------------------------------
# The trivial dialect


DIALECTS = (Dialect((1,)), Dialect((2,)), Dialect((1, 1)), Dialect((2, 1)))
KINDS = ("dense", "table", "weighted")


def _drawn(rng, carrier, dialect, kind) -> DialectalOperator:
    op = random_dialectal(rng, carrier, dialect, kind != "dense")
    if kind != "weighted":
        return op
    return DialectalOperator(op.carrier, op.dialect, op.pseudo_trace, WeightedInjection.of(op.op))


def _payload_equal(x, y) -> bool:
    """Dense payloads entry for entry, tables arrow for arrow whatever their kind."""
    if isinstance(x, DenseOperator) or isinstance(y, DenseOperator):
        return (
            isinstance(x, DenseOperator)
            and isinstance(y, DenseOperator)
            and x.carrier == y.carrier
            and np.array_equal(x.mat, y.mat)
        )
    return dict(x.table) == dict(y.table)


class TestTrivialDialect:
    def test_trivial_dialect_is_the_unit_of_the_tensor(self):
        for d in DIALECTS:
            assert TRIVIAL_DIALECT.tensor(d) == d == d.tensor(TRIVIAL_DIALECT)
        assert Dialect((2,)).tensor(Dialect((1, 1))) == Dialect((2, 2), (0, 1, 0, 1))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DIALECTS),
        st.sampled_from(KINDS),
        st.sampled_from(KINDS),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_union_with_a_trivial_side_is_the_extension(self, seed, dialect, kind_trivial, kind_other, trivial_left):
        rng = np.random.default_rng(seed)
        trivial = _drawn(rng, (0, 1, 2), TRIVIAL_DIALECT, kind_trivial)
        other = _drawn(rng, (3, 4), dialect, kind_other)
        G, H = (trivial, other) if trivial_left else (other, trivial)
        carrier = G.carrier + H.carrier
        # the arrow-by-arrow references, which extend by every coordinate, the one coordinate included
        a = reference_dagger(G, H.dialect, H.pseudo_trace).on_carrier(carrier)
        b = reference_ddagger(H, G.dialect, G.pseudo_trace).on_carrier(carrier)
        ext = extended_pair(G, H)
        assert ext.carrier == carrier and ext.dialect == a.dialect == b.dialect and ext.pseudo_trace == a.pseudo_trace
        dense = isinstance(ext.a, DenseOperator)
        # each table keeps its kind, unimodular or weighted
        assert dense or (type(ext.a), type(ext.b)) == (type(G.op), type(H.op))
        assert _payload_equal(ext.a, a.dense_payload() if dense else a.op)
        assert _payload_equal(ext.b, b.dense_payload() if dense else b.op)
        union = union_dialectal(G, H)
        assert union.carrier == carrier and union.dialect == a.dialect and union.is_symbolic == (not dense)
        assert np.array_equal(union.dense_payload().mat, a.dense_payload().mat + b.dense_payload().mat)
