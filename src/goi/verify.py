"""Property suites behind ``goi verify`` and the acceptance tests.

Every suite is deterministic in (seed, trials).  Records carry the
numeric payloads and a reproducer string.  A timed check records its
wall clock as ``elapsed_s`` beside a fixed ``budget_s``; the status is
decided by the mathematics alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GoiError
from .execution import (
    InterfaceSplit,
    adjunction_residual_hyp,
    adjunction_residual_mat,
    feedback_dense,
)
from .grouparith import all_words, monoid_word_eval
from .groupoid import Idx, PartialInjectionOp, adjoint, compose, nilpotency, sum_disjoint
from .linalg import DenseOperator, direct_sum, fk_det, mat_mul, operator_norm, plain_det, spectral_radius
from .logic import corpus
from .logic.goi1 import soundness_check_mll
from .logic.locations import allocate_matricial
from .logic.matricial import default_basis, interpret_mall_matricial, sequent_dual_witnesses
from .measurement import (
    Dialect,
    DialectIso,
    DialectalOperator,
    PseudoTrace,
    UNIT_TRACE,
    dagger,
    dial_labels,
    from_location_matrix,
    is_indeterminate,
    ldet,
    ldet_series,
    sca_mat,
    variant_invariance_residual,
)
from .projects import (
    ConductWitnessSet,
    Delocation,
    Project,
    build_fax,
    is_promising,
    make_project,
    orthogonal_witness_suite,
    plug_project,
    sum_lambda,
    tensor_project,
    zero_project,
)


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "indeterminate"
    data: dict = field(default_factory=dict)
    reproducer: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _record(name: str, ok: bool, data: dict, reproducer: str, short: bool = False) -> CheckRecord:
    """``short``: the check got fewer instances than it asked for, so it cannot pass."""
    return CheckRecord(name, "fail" if not ok else "indeterminate" if short else "pass", data, reproducer)


# ----------------------------------------------------------------------
# Seeded generators


# A redraw loop stops after this many draws per instance it asks for.
DRAWS_PER_INSTANCE = 10


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng((seed * 0x9E3779B1 + salt) % (1 << 63))


def rand_hermitian(rng, n: int, scale: float) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (m + m.conj().T) / 2
    top = np.linalg.norm(m, 2)
    return m / top * scale if top else m


def rand_invertible(rng, n: int) -> DenseOperator | None:
    """A draw with condition number below 1e4, or None after DRAWS_PER_INSTANCE draws."""
    for _ in range(DRAWS_PER_INSTANCE):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(m) < 1e4:
            return DenseOperator(tuple(range(n)), m)
    return None


def rand_nilpotent(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.triu(m, 1)


def rand_partial_injection(rng, pool: int = 24, size: int = 6) -> PartialInjectionOp:
    src = rng.choice(pool, size=size, replace=False)
    dst = rng.choice(pool, size=size, replace=False)
    # fourth roots of unity: conjugation and products stay float-exact
    phases = rng.choice([1.0 + 0j, -1.0 + 0j, 1j, -1j], size=size)
    return PartialInjectionOp({Idx(int(s)): (Idx(int(d)), complex(p)) for s, d, p in zip(src, dst, phases)})


# ----------------------------------------------------------------------
# Identities suite


def check_regression_values() -> CheckRecord:
    u2 = DenseOperator((0, 1), [[0, -1], [-1, 0]])
    v2 = DenseOperator((0, 1), [[0, 1], [1, 0]])
    s = math.sqrt(0.5)
    u3 = DenseOperator((0, 1, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    v3 = DenseOperator((0, 1, 2), [[0, s, -s], [s, 0, 0], [-s, 0, 0]])
    # warm the kernels before timing
    plain_det(DenseOperator.identity((0, 1)) - mat_mul(u2, v2))
    start = time.perf_counter()
    d2 = plain_det(DenseOperator.identity((0, 1)) - mat_mul(u2, v2))
    uv3 = mat_mul(u3, v3)
    d3 = plain_det(DenseOperator.identity((0, 1, 2)) - uv3)
    not_iso = not uv3.is_partial_isometry()
    elapsed = time.perf_counter() - start
    ok = abs(d2 - 4.0) <= 1e-12 and abs(d3 - (1 - s) ** 2) <= 1e-10 and not_iso
    return _record(
        "regression-determinants",
        ok,
        {
            "det_2x2": _num(d2),
            "det_3x3": _num(d3),
            "expected_3x3": (1 - s) ** 2,
            "product_fails_partial_isometry": not_iso,
            "elapsed_s": elapsed,
            "budget_s": 1e-3,
        },
        "builtin pair",
    )


def check_group_word() -> CheckRecord:
    start = time.perf_counter()
    g = monoid_word_eval([("a", 2), ("b", 1), ("a", 48), ("b", 2)])
    words = all_words(6)
    distinct = len({monoid_word_eval(w) for w in words})
    elapsed = time.perf_counter() - start
    ok = g.shift_map() == {2: 48, 3: 2} and g.step == 3 and distinct == len(words)
    return _record(
        "group-free-monoid",
        ok,
        {"word_value": sorted(g.shift_map().items()), "step": g.step, "words": len(words), "distinct": distinct, "elapsed_s": elapsed, "budget_s": 1.0},
        "word a^2 b a^48 b^2; words of length <= 6",
    )


def check_fk_suite(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 3)
    worst_mult = 0.0
    pairs = [m for m in (rand_invertible(rng, 4) for _ in range(2 * trials)) if m is not None]
    for a, b in zip(pairs[0::2], pairs[1::2]):
        lhs = fk_det(mat_mul(a, b))
        rhs = fk_det(a) * fk_det(b)
        worst_mult = max(worst_mult, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    worst_nilp = 0.0
    for t in range(20):
        n = DenseOperator(tuple(range(5)), rand_nilpotent(rng, 5))
        one = DenseOperator.identity(n.carrier)
        worst_nilp = max(worst_nilp, abs(fk_det(one + n) - 1.0))
    worst_rho = -math.inf
    singles = [m for m in (rand_invertible(rng, 4) for _ in range(trials)) if m is not None]
    for a in singles:
        rho = spectral_radius(a).spectral_radius
        worst_rho = max(worst_rho, fk_det(a) - rho)
    ok = worst_mult <= 1e-8 and worst_nilp <= 1e-9 and worst_rho <= 1e-8
    instances = len(pairs) + len(singles)
    return _record(
        "fk-determinant-suite",
        ok,
        {"multiplicativity_rel": worst_mult, "nilpotent_unit": worst_nilp, "fk_minus_rho_max": worst_rho, "trials": trials, "instances": instances},
        f"seed={seed}",
        short=instances < 3 * trials,
    )


def check_block_identity(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 4)
    worst = 0.0
    start = time.perf_counter()
    for t in range(trials):
        F = DenseOperator(tuple(range(6)), rand_hermitian(rng, 6, 0.9))
        G = DenseOperator((0, 1, 2), rand_hermitian(rng, 3, 0.9))
        H = DenseOperator((3, 4, 5), rand_hermitian(rng, 3, 0.9))
        lhs = plain_det(DenseOperator.identity(tuple(range(6))) - mat_mul(F, direct_sum(G, H)))
        d1 = plain_det(DenseOperator.identity((0, 1, 2)) - mat_mul(F.restrict((0, 1, 2)), G))
        ex = feedback_dense(F, G, InterfaceSplit(kept=frozenset((3, 4, 5)), cut=frozenset((0, 1, 2))))
        d2 = plain_det(DenseOperator.identity(ex.carrier) - mat_mul(ex, H))
        worst = max(worst, abs(lhs - d1 * d2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    data = {"worst_residual": worst, "elapsed_s": elapsed, "budget_s": 1.0, "trials": trials}
    return _record("block-determinant-identity", ok, data, f"seed={seed}")


def check_adjunction_hyp(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 5)
    worst = 0.0
    done = 0
    t = 0
    while done < trials and t < DRAWS_PER_INSTANCE * trials:
        t += 1
        u = DenseOperator((0, 1, 2, 3), rand_hermitian(rng, 4, 0.9))
        v = DenseOperator((0, 1), rand_hermitian(rng, 2, 0.9))
        w = DenseOperator((2, 3), rand_hermitian(rng, 2, 0.9))
        split = InterfaceSplit(kept=frozenset((2, 3)), cut=frozenset((0, 1)))
        try:
            r = adjunction_residual_hyp(u, v, w, split)
        except GoiError:
            continue
        if math.isinf(r):
            continue
        worst = max(worst, r)
        done += 1
    ok = worst <= 1e-6
    return _record("adjunction-hyp", ok, {"worst_residual": worst, "instances": done, "drawn": t}, f"seed={seed}", short=done < trials)


def check_adjunction_mat(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 6)
    worst = 0.0
    done = 0
    t = 0
    while done < trials and t < DRAWS_PER_INSTANCE * trials:
        t += 1
        with_dialect = t % 3 == 0
        F = from_location_matrix(tuple(range(6)), rand_hermitian(rng, 6, 0.85))
        G = from_location_matrix((0, 1, 2), rand_hermitian(rng, 3, 0.85))
        if with_dialect:
            d = Dialect((2,))
            H = DialectalOperator(
                (3, 4, 5), d, PseudoTrace((0.7,)), DenseOperator(dial_labels((3, 4, 5), 2), rand_hermitian(rng, 6, 0.85))
            )
        else:
            H = from_location_matrix((3, 4, 5), rand_hermitian(rng, 3, 0.85))
        try:
            r = adjunction_residual_mat(F, G, H)
        except GoiError:
            continue
        if math.isinf(r):
            continue
        worst = max(worst, r)
        done += 1
    ok = worst <= 1e-6
    return _record("adjunction-mat", ok, {"worst_residual": worst, "instances": done, "drawn": t}, f"seed={seed}", short=done < trials)


def check_ldet_lemmas(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 7)
    # nilpotent symbolic operators measure exactly to zero
    exact = True
    n_nil = 0
    for t in range(50):
        u = rand_partial_injection(rng)
        res = nilpotency(u)
        if res.kind != "nilpotent":
            continue
        n_nil += 1
        carrier = sorted({i.value for i in u.table} | {d.value for d, _ in u.table.values()})
        M = DialectalOperator(tuple(carrier), Dialect((1,)), UNIT_TRACE, u)
        if ldet(M) != 0.0:
            exact = False
    # additivity on commuting dense pairs: 1 - (u + v - uv) = (1-u)(1-v)
    worst_sum = 0.0
    for t in range(trials // 2 or 1):
        d = rng.uniform(-0.3, 0.3, size=4)
        e = rng.uniform(-0.3, 0.3, size=4)
        u = from_location_matrix(tuple(range(4)), np.diag(d))
        v = from_location_matrix(tuple(range(4)), np.diag(e))
        combo_mat = np.diag(d) + np.diag(e) - np.diag(d) @ np.diag(e)
        combo = from_location_matrix(tuple(range(4)), combo_mat)
        lhs = ldet(combo)
        rhs = ldet(u) + ldet(v)
        if not (is_indeterminate(lhs) or is_indeterminate(rhs)):
            worst_sum = max(worst_sum, abs(lhs - rhs))
    # symbolic disjoint-support additivity is exact
    u1 = PartialInjectionOp.from_table({0: 1})
    u2 = PartialInjectionOp.from_table({5: 6})
    both = sum_disjoint(u1, u2)
    M1 = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, u1)
    M2 = DialectalOperator((5, 6), Dialect((1,)), UNIT_TRACE, u2)
    Mb = DialectalOperator((0, 1, 5, 6), Dialect((1,)), UNIT_TRACE, both)
    sym_exact = ldet(Mb) == ldet(M1) + ldet(M2) == 0.0
    # dialect inflation
    worst_inf = 0.0
    n_inf = 0
    for t in range(10):
        m = from_location_matrix((0, 1), rand_hermitian(rng, 2, 0.7))
        lifted = dagger(m, Dialect((3,)), PseudoTrace((1.7,)))
        a, b = ldet(lifted), ldet(m)
        if not (is_indeterminate(a) or is_indeterminate(b)) and not math.isinf(b):
            worst_inf = max(worst_inf, abs(a - 1.7 * b))
            n_inf += 1
    # determinant route vs truncated series whenever rho <= 0.9
    worst_series = 0.0
    n_series = 0
    for t in range(10):
        m = from_location_matrix((0, 1, 2), rand_hermitian(rng, 3, 0.75))
        rho = spectral_radius(m.dense_payload()).spectral_radius
        if rho > 0.9:
            continue
        n_series += 1
        terms = max(60, int(math.log(1e-12) / math.log(max(rho, 1e-6))) + 1)
        a = ldet(m)
        b = ldet_series(m, terms=terms)
        worst_series = max(worst_series, abs(a - b))
    ok = exact and sym_exact and worst_sum <= 1e-9 and worst_inf <= 1e-9 and worst_series <= 1e-8
    return _record(
        "ldet-lemmas",
        ok,
        {
            "nilpotent_exact": exact,
            "symbolic_additivity_exact": sym_exact,
            "commuting_additivity": worst_sum,
            "dialect_inflation": worst_inf,
            "series_vs_det": worst_series,
            "nilpotent_instances": n_nil,
            "inflation_instances": n_inf,
            "series_instances": n_series,
        },
        f"seed={seed}",
        short=min(n_nil, n_inf, n_series) == 0,
    )


def check_groupoid_invariants(seed: int, trials: int) -> CheckRecord:
    from .groupoid import beta_decode, beta_encode, l_isometry, r_isometry

    rng = _rng(seed, 8)
    R, L = r_isometry(), l_isometry()
    iso_ok = all(
        compose(adjoint(R), R).apply(n)[0].value == n
        and compose(adjoint(L), L).apply(n)[0].value == n
        and (compose(R, adjoint(R)).apply(n) or compose(L, adjoint(L)).apply(n))[0].value == n
        for n in list(range(512)) + [2**16]
    )
    beta_ok = all(beta_encode(*beta_decode(k)) == k for k in range(2**16 + 1))
    closure_ok = True
    for t in range(trials // 5 or 1):
        u = rand_partial_injection(rng)
        v = rand_partial_injection(rng)
        uu = compose(compose(u, adjoint(u)), u)
        if uu != u:
            closure_ok = False
        prod = compose(u, v)
        if compose(compose(prod, adjoint(prod)), prod) != prod:
            closure_ok = False
    ok = iso_ok and beta_ok and closure_ok
    return _record(
        "groupoid-invariants",
        ok,
        {"isometry_relations": iso_ok, "beta_bijection_upto": 2**16, "closure": closure_ok},
        f"seed={seed}",
    )


# ----------------------------------------------------------------------
# Soundness suite


def check_mll_soundness() -> CheckRecord:
    start = time.perf_counter()
    failures = []
    for name, proof in corpus.mll_proofs():
        if not soundness_check_mll(proof):
            failures.append(name)
    elapsed = time.perf_counter() - start
    ok = not failures and len(corpus.MLL_CORPUS) >= 12
    return _record(
        "mll-exact-soundness",
        ok,
        {"proofs": len(corpus.MLL_CORPUS), "failures": failures, "elapsed_s": elapsed, "budget_s": 1.0},
        "bundled multiplicative corpus",
    )


def check_mall_soundness() -> CheckRecord:
    basis = default_basis()
    failures = []
    details = {}
    for name, proof in corpus.mall_proofs():
        plan = allocate_matricial(proof, basis)
        project = interpret_mall_matricial(proof, basis, plan)
        report = is_promising(project)
        witnesses = sequent_dual_witnesses(plan, basis)
        rows = orthogonal_witness_suite(project, witnesses)
        bad = [r.verdict for r in rows if r.verdict != "orthogonal"]
        details[name] = {"promising": report.all_pass, "witnesses": len(rows), "non_orthogonal": len(bad)}
        if not report.all_pass or bad:
            failures.append(name)
    counter_ok = _counterexamples_rejected()
    ok = not failures and counter_ok and len(corpus.MALL_CORPUS) >= 10
    return _record(
        "mall-property-soundness",
        ok,
        {"proofs": len(corpus.MALL_CORPUS), "failures": failures, "counterexamples_rejected": counter_ok},
        "bundled additive corpus, default basis",
    )


def _counterexamples_rejected() -> bool:
    """The would-be promising projects with diagonal support must fail."""
    import numpy as np

    proj = make_project((0, 1), 0.0, np.eye(2))
    r1 = is_promising(proj)
    d2 = Dialect((2,))
    lab = dial_labels((0, 1), 2)
    mat = np.zeros((4, 4), dtype=complex)
    for loc in (0, 1):
        i, j = lab.index((loc, 0)), lab.index((loc, 1))
        mat[i, j] = mat[j, i] = 1
    swap = Project(0.0, DialectalOperator((0, 1), d2, PseudoTrace((1.0,)), DenseOperator(lab, mat)))
    r2 = is_promising(swap)
    return (not r1.traces_ok) and (not r2.traces_ok) and r2.symmetry_ok


# ----------------------------------------------------------------------
# Coherence suite


def _fax_pair(shift: int) -> Project:
    theta = Delocation.from_pairs([-900 - shift], [2 * shift])
    phi = Delocation.from_pairs([-900 - shift], [2 * shift + 1])
    return build_fax(theta, phi)


def check_coherence_pairs(seed: int, trials: int) -> CheckRecord:
    """Promising against promising: certified nilpotent products measure to 0."""
    rng = _rng(seed, 9)
    basis = default_basis()
    checked = 0
    exact = True
    pairs = []
    for name, proof in corpus.mall_proofs():
        plan = allocate_matricial(proof, basis)
        f = interpret_mall_matricial(proof, basis, plan)
        if not f.dialectal.is_symbolic or not is_promising(f).all_pass:
            continue
        carrier = list(f.carrier)
        if len(carrier) < 2:
            continue
        for draw in range(6):
            perm = list(carrier)
            rng.shuffle(perm)
            half = len(carrier) // 2
            table = {}
            for a, b in zip(perm[:half], perm[half : 2 * half]):
                table[Idx(a, 0)] = (Idx(b, 0), 1.0 + 0j)
                table[Idx(b, 0)] = (Idx(a, 0), 1.0 + 0j)
            g_op = PartialInjectionOp(table)
            g = Project(0.0, DialectalOperator(tuple(carrier), Dialect((1,)), UNIT_TRACE, g_op))
            if not is_promising(g).all_pass:
                continue
            from .measurement import meas_mat

            value = meas_mat(f.dialectal, g.dialectal)
            if is_indeterminate(value):
                exact = False
            elif math.isinf(value):
                continue  # cyclic product: the rho < 1 gate excludes the pair
            else:
                checked += 1
                sca = sca_mat(f, g)
                if value != 0.0 or sca != 0.0:
                    exact = False
                if name not in pairs:
                    pairs.append(name)
    ok = exact and checked >= 5
    return _record(
        "coherence-pairs",
        ok,
        {"pairs_checked": checked, "exact_zero": exact, "sampled_from": pairs[:6]},
        f"seed={seed}",
    )


def check_compositionality() -> CheckRecord:
    """Plugs of promising projects stay promising, exactly, on the symbolic backend."""
    basis = default_basis()
    failures = []
    for name, proof in corpus.mall_proofs():
        plan = allocate_matricial(proof, basis)
        f = interpret_mall_matricial(proof, basis, plan)
        if not is_promising(f).all_pass:
            failures.append(name)
    # explicit fax chain: (x -o y) plugged with (y -o z)
    f1 = build_fax(Delocation.from_pairs([-950], [500]), Delocation.from_pairs([-950], [501]))
    f2 = build_fax(Delocation.from_pairs([-951], [501]), Delocation.from_pairs([-951], [502]))
    comp = plug_project(f1, f2)
    rep = is_promising(comp)
    chain_ok = rep.all_pass and comp.wager == 0.0 and comp.dialectal.is_symbolic
    link = comp.op.table.get(Idx(500, 0))
    chain_ok = chain_ok and link is not None and link[0] == Idx(502, 0)
    ok = not failures and chain_ok
    return _record(
        "compositionality",
        ok,
        {"corpus_failures": failures, "fax_chain_promising": chain_ok},
        "corpus cuts + explicit fax chain",
    )


def check_mutation() -> CheckRecord:
    """Flipping one weight sign in a fax must break a suite check."""
    fax = _fax_pair(990)
    table = dict(fax.op.table)
    (src, (dst, w)) = next(iter(table.items()))
    table[src] = (dst, -w)
    mutated_op = PartialInjectionOp(table)
    mutated = Project(0.0, DialectalOperator(fax.carrier, fax.dialect, fax.pseudo_trace, mutated_op))
    rep = is_promising(mutated)
    caught = not rep.all_pass and not rep.symmetry_ok
    return _record(
        "mutation-checker",
        caught,
        {"mutant_failures": rep.failures()},
        "fax with one flipped weight",
    )


def check_variant_laws(seed: int, trials: int) -> CheckRecord:
    rng = _rng(seed, 10)

    def rand_unitary(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(m)
        return q

    worst = 0.0
    equiv_fail = 0
    d = Dialect((1, 2))
    for t in range(50):
        lab = dial_labels((0, 1), 3)
        m = rand_hermitian(rng, 6, 0.8)
        for i, (_, ci) in enumerate(lab):
            for j, (_, cj) in enumerate(lab):
                if d.assignment[ci] != d.assignment[cj]:
                    m[i, j] = 0
        m = (m + m.conj().T) / 2
        a = Project(0.25, DialectalOperator((0, 1), d, PseudoTrace((0.4, 0.6)), DenseOperator(lab, m)))
        probe = make_project((0, 1), 0.5, rand_hermitian(rng, 2, 0.5))
        perm = (1, 0) if rng.random() < 0.5 else (0, 1)
        sizes = tuple(d.blocks[p] for p in perm)
        iso = DialectIso(perm, tuple(rand_unitary(k) for k in sizes))
        worst = max(worst, variant_invariance_residual(a, iso, probe))
        from .measurement import apply_variant

        varied = Project(a.wager, apply_variant(a.dialectal, iso))
        ws = ConductWitnessSet((0, 1), (probe,))
        from .projects import obs_equiv

        if not obs_equiv(a, varied, ws, tol=1e-9):
            equiv_fail += 1

    # tensor law: (f (x) g) . (a (x) c) is a variant of (f . a) (x) (g . c)
    worst_tensor = 0.0
    for t in range(20):
        f = make_project((0, 1), 0.0, rand_hermitian(rng, 2, 0.6))
        g = make_project((2, 3), 0.0, rand_hermitian(rng, 2, 0.6))
        a = make_project((0,), 0.1 * t, rand_hermitian(rng, 1, 0.6))
        c = make_project((2,), 0.05 * t, rand_hermitian(rng, 1, 0.6))
        lhs = plug_project(tensor_project(f, g), tensor_project(a, c))
        rhs = tensor_project(plug_project(f, a), plug_project(g, c))
        worst_tensor = max(worst_tensor, abs(lhs.wager - rhs.wager))
        for k in range(3):
            probe = make_project((1, 3), 0.3 + 0.3 * k, rand_hermitian(rng, 2, 0.5))
            x, y = sca_mat(lhs, probe), sca_mat(rhs, probe)
            if is_indeterminate(x) or is_indeterminate(y):
                worst_tensor = math.inf
            elif math.isinf(x) or math.isinf(y):
                worst_tensor = max(worst_tensor, 0.0 if math.isinf(x) and math.isinf(y) else math.inf)
            else:
                worst_tensor = max(worst_tensor, abs(x - y))

    # tensor associativity: identical coordinates, equal payloads
    p1 = make_project((0,), 0.2, rand_hermitian(rng, 1, 0.5))
    p2 = make_project((1,), 0.3, rand_hermitian(rng, 1, 0.5))
    p3 = make_project((2,), 0.4, rand_hermitian(rng, 1, 0.5))
    lhs3 = tensor_project(tensor_project(p1, p2), p3)
    rhs3 = tensor_project(p1, tensor_project(p2, p3))
    assoc = (
        abs(lhs3.wager - rhs3.wager) < 1e-12
        and lhs3.dialect.blocks == rhs3.dialect.blocks
        and lhs3.dialectal.dense_payload().max_abs_diff(rhs3.dialectal.dense_payload()) < 1e-12
    )

    # inflation: passing the witness suite is stable under adding lambda * 0
    basis = default_basis()
    inflation_ok = True
    n_inflation = 0
    for name, proof in list(corpus.mall_proofs())[:4]:
        plan = allocate_matricial(proof, basis)
        f = interpret_mall_matricial(proof, basis, plan)
        witnesses = sequent_dual_witnesses(plan, basis)
        if not witnesses.members:
            continue
        n_inflation += 1
        for lam in (1.0, 2.5):
            inflated = sum_lambda(f, lam, zero_project(tuple(f.carrier)))
            rows = orthogonal_witness_suite(inflated, witnesses)
            if any(r.verdict != "orthogonal" for r in rows):
                inflation_ok = False
    ok = worst <= 1e-9 and equiv_fail == 0 and worst_tensor <= 1e-8 and assoc and inflation_ok
    return _record(
        "variant-and-tensor-laws",
        ok,
        {
            "variant_residual": worst,
            "obs_equiv_failures": equiv_fail,
            "tensor_law_residual": worst_tensor,
            "tensor_associativity": assoc,
            "inflation_stable": inflation_ok,
            "inflation_instances": n_inflation,
        },
        f"seed={seed}",
        short=n_inflation == 0,
    )


def check_execution_properties(seed: int, trials: int) -> CheckRecord:
    """Feedback solves the two-equation system; series oracle; norm bound."""
    rng = _rng(seed, 11)
    worst_sys = 0.0
    worst_series = 0.0
    worst_norm = 0.0
    wanted = max(trials // 4, 10)
    done = drawn = 0
    while done < wanted and drawn < DRAWS_PER_INSTANCE * wanted:
        drawn += 1
        u = DenseOperator((0, 1, 2, 3), rand_hermitian(rng, 4, 0.9))
        v = DenseOperator((2, 3, 4, 5), rand_hermitian(rng, 4, 0.9))
        split = InterfaceSplit(kept=frozenset((0, 1)), cut=frozenset((2, 3)))
        try:
            w = feedback_dense(u, v, split)
        except GoiError:
            continue
        done += 1
        worst_norm = max(worst_norm, operator_norm(w) - 1.0)
        # reconstruct: u(x + y) = x' + y', v(y' + z) = y + z'
        um, vm = u.mat, v.mat
        uxx, uxy, uyx, uyy = um[:2, :2], um[:2, 2:], um[2:, :2], um[2:, 2:]
        vyy, vyz, vzy, vzz = vm[:2, :2], vm[:2, 2:], vm[2:, :2], vm[2:, 2:]
        for _ in range(3):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            y = np.linalg.solve(np.eye(2) - vyy @ uyy, vyy @ (uyx @ x) + vyz @ z)
            yp = uyx @ x + uyy @ y
            xp = uxx @ x + uxy @ y
            zp = vzy @ yp + vzz @ z
            got = w.mat @ np.concatenate([x, z])
            worst_sys = max(worst_sys, float(np.max(np.abs(got - np.concatenate([xp, zp])))))
    # nilpotent series oracle
    for t in range(10):
        nil = np.zeros((4, 4), dtype=complex)
        nil[0, 2] = rng.normal()
        nil[2, 1] = 0.0
        u = DenseOperator((0, 1, 2, 3), (nil + nil.conj().T) / max(1.0, 2 * np.linalg.norm(nil, 2)))
        vmat = np.zeros((2, 2), dtype=complex)
        v = DenseOperator((2, 3), vmat)
        split = InterfaceSplit(kept=frozenset((0, 1)), cut=frozenset((2, 3)))
        w = feedback_dense(u, v, split)
        # uv = 0 here, the series is the bare sandwich
        p = np.zeros((4, 4))
        p[0, 0] = p[1, 1] = 1
        direct = (p @ u.mat @ p)[:2, :2]
        worst_series = max(worst_series, float(np.max(np.abs(w.mat - direct))))
    ok = worst_sys <= 1e-10 and worst_series <= 1e-10 and worst_norm <= 1e-6
    return _record(
        "feedback-system",
        ok,
        {"system_residual": worst_sys, "series_residual": worst_series, "norm_excess": worst_norm, "instances": done, "drawn": drawn},
        f"seed={seed}",
        short=done < wanted,
    )


def _num(z):
    if isinstance(z, complex):
        return [z.real, z.imag]
    return z


# ----------------------------------------------------------------------
# Suite assembly


def run_suite(name: str, seed: int, trials: int) -> list[CheckRecord]:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name == "identities":
        return [
            check_regression_values(),
            check_group_word(),
            check_fk_suite(seed, trials),
            check_block_identity(seed, trials),
            check_adjunction_hyp(seed, trials),
            check_adjunction_mat(seed, trials),
            check_ldet_lemmas(seed, trials),
            check_groupoid_invariants(seed, trials),
            check_execution_properties(seed, trials),
        ]
    if name == "soundness":
        return [check_mll_soundness(), check_mall_soundness()]
    if name == "coherence":
        return [
            check_coherence_pairs(seed, trials),
            check_compositionality(),
            check_mutation(),
            check_variant_laws(seed, trials),
        ]
    if name == "all":
        return run_suite("identities", seed, trials) + run_suite("soundness", seed, trials) + run_suite("coherence", seed, trials)
    raise ValueError(f"unknown suite {name!r}")
