"""Reference computations of exact execution by explicit powers.

Both expand the execution formula term by term with ``compose`` and
``restrict_outside``, independently of the path walker in
``goi.groupoid.PathGraph`` that the engine uses.
"""

from goi.errors import NotNilpotentError
from goi.groupoid import PartialInjectionOp, Region, compose, restrict_outside, sum_disjoint

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
