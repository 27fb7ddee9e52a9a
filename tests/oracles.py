"""Reference computations the engine's faster paths are tested against.

``series_execution`` and ``four_family_expansion`` expand the execution
formula term by term with ``compose`` and ``restrict_outside``,
independently of the path walker in ``goi.groupoid.PathGraph`` that the
engine uses.  ``left_fold_dual_witnesses`` folds every witness of a
sequent from scratch, without the shared prefixes that
``goi.logic.matricial.sequent_dual_witnesses`` keeps.
"""

import itertools

from goi.errors import NotNilpotentError
from goi.groupoid import PartialInjectionOp, Region, compose, restrict_outside, sum_disjoint
from goi.logic.matricial import dual_witnesses_for
from goi.projects import ConductWitnessSet, extend_carrier, tensor_project

# Powers of uv tried before series_execution gives up.
POWER_BUDGET = 10_000


def series_execution(u, v, region):
    """(1-p) sum_k (uv)^k u (1-p) by the powers of uv.

    Nilpotency is decided by the powers as well: uv is nilpotent when a
    power vanishes, and cyclic when a nonzero power repeats.
    """
    uv = compose(u, v)
    seen = set()
    power = uv
    while not power.is_zero():
        key = power.canonical()
        if key in seen:
            raise NotNilpotentError("product is cyclic")
        if len(seen) > POWER_BUDGET:
            raise NotNilpotentError("product is exceeded")
        seen.add(key)
        power = compose(uv, power)
    total = PartialInjectionOp.zero()
    term = u
    while not term.is_zero():
        kept = restrict_outside(term, region)
        if not kept.is_zero():
            total = sum_disjoint(total, kept)
        term = compose(uv, term)
    return total


def four_family_expansion(U, V, shared):
    """Independent oracle: p U (VU)^k p + r (VU)^k V r + crossings."""
    region = Region.from_locations(shared)
    total = PartialInjectionOp.zero()
    for first, second in ((U, V), (V, U)):
        term = first
        nxt = second
        for _ in range(12):
            if term.is_zero():
                break
            kept = restrict_outside(term, region)
            if not kept.is_zero():
                total = sum_disjoint(total, kept)
            term = compose(nxt, term)
            nxt = U if nxt is V else V
    return total


def left_fold_dual_witnesses(plan, basis, cap=3, total_cap=12):
    """Witnesses of a sequent's dual, each the full left fold of its combination."""
    per_site = [dual_witnesses_for(site, basis, cap) for site in plan.sites]
    carrier = tuple(loc for site in plan.sites for loc in site.locations)
    if any(not w for w in per_site):
        return ConductWitnessSet(carrier, (), "dual")
    members = []
    for combo in itertools.islice(itertools.product(*per_site), total_cap):
        acc = combo[0]
        for nxt in combo[1:]:
            acc = tensor_project(acc, nxt)
        if set(acc.carrier) != set(carrier):
            acc = extend_carrier(acc, tuple(l for l in carrier if l not in set(acc.carrier)))
        members.append(acc)
    return ConductWitnessSet(carrier, tuple(members), "dual")
