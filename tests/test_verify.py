import numpy as np
import pytest

from goi import verify
from goi.config import DEFAULT_SEED
from goi.errors import GoiError
from goi.groupoid import Idx, PartialInjectionOp


class SingularRng:
    """Stands in for a numpy Generator whose every normal draw is all ones (a singular matrix)."""

    def __init__(self):
        self.draws = 0

    def normal(self, size):
        self.draws += 1
        return np.ones(size)


def always_rejected(*args, **kwargs):
    raise GoiError("rejected draw")


def rejected_unless_zero(u, v, split, _real=verify.feedback_dense):
    # rejects every random draw of check_execution_properties, not the zero v of its series oracle
    return always_rejected() if np.any(v.mat) else _real(u, v, split)


def test_rand_invertible_gives_up_after_its_cap():
    rng = SingularRng()
    assert verify.rand_invertible(rng, 4) is None
    assert rng.draws == 2 * verify.DRAWS_PER_INSTANCE


def test_fk_suite_without_invertible_draws_is_not_a_pass(monkeypatch):
    monkeypatch.setattr(verify, "_rng", lambda seed, salt: SingularRng())
    rec = verify.check_fk_suite(DEFAULT_SEED, 5)
    assert rec.status == "indeterminate" and rec.data["instances"] == 0


@pytest.mark.parametrize(
    "check, name, stub, wanted",
    [
        (verify.check_adjunction_hyp, "adjunction_residual_hyp", always_rejected, 7),
        (verify.check_adjunction_mat, "adjunction_residual_mat", always_rejected, 7),
        (verify.check_execution_properties, "feedback_dense", rejected_unless_zero, 10),
    ],
)
def test_redraw_loop_stops_at_its_cap(monkeypatch, check, name, stub, wanted):
    monkeypatch.setattr(verify, name, stub)
    rec = check(DEFAULT_SEED, 7)
    assert rec.status == "indeterminate" and not rec.ok
    assert rec.data["instances"] == 0
    assert rec.data["drawn"] == verify.DRAWS_PER_INSTANCE * wanted


def test_default_seed_draws_no_rejected_adjunction():
    for check in (verify.check_adjunction_hyp, verify.check_adjunction_mat):
        rec = check(DEFAULT_SEED, 100)
        assert rec.ok and rec.data["instances"] == rec.data["drawn"] == 100


def test_ldet_lemmas_without_nilpotent_draws_is_not_a_pass(monkeypatch):
    cyclic = PartialInjectionOp({Idx(0): (Idx(1), 1.0), Idx(1): (Idx(0), 1.0)})
    monkeypatch.setattr(verify, "rand_partial_injection", lambda rng: cyclic)
    rec = verify.check_ldet_lemmas(DEFAULT_SEED, 100)
    assert rec.status == "indeterminate" and rec.data["nilpotent_instances"] == 0


def test_default_seed_sub_checks_have_instances():
    rec = verify.check_ldet_lemmas(DEFAULT_SEED, 100)
    assert rec.ok
    assert (rec.data["nilpotent_instances"], rec.data["inflation_instances"], rec.data["series_instances"]) == (35, 10, 10)
    rec = verify.check_variant_laws(DEFAULT_SEED, 100)
    assert rec.ok and rec.data["inflation_instances"] == 4


def test_wall_clock_budget_does_not_decide_the_status(monkeypatch):
    ticks = iter(range(0, 10**6, 10))
    monkeypatch.setattr(verify.time, "perf_counter", lambda: float(next(ticks)))
    records = [
        verify.check_regression_values(),
        verify.check_group_word(),
        verify.check_block_identity(DEFAULT_SEED, 3),
        verify.check_mll_soundness(),
    ]
    for rec in records:
        assert rec.status == "pass", rec.name
        assert rec.data["elapsed_s"] > rec.data["budget_s"], rec.name
