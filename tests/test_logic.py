import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.errors import (
    CarrierError,
    MissingVariableError,
    NumericError,
    ProofSyntaxError,
    RuleApplicationError,
    UnsupportedRuleError,
)
from goi.cli import main
from goi.groupoid import Idx, PartialInjectionOp, Region, adjoint, compose, l_isometry, nilpotency, r_isometry, sum_disjoint
from goi.execution import ex_goi1
from goi.logic import corpus, goi1, locations, matricial, syntax
from goi.logic.goi1 import interpret_mll_goi1, soundness_check_mll
from goi.logic.locations import allocate_goi1, allocate_matricial, comb_words
from goi.logic.matricial import (
    default_basis,
    interpret_mall_matricial,
    parse_basis,
    sequent_dual_witnesses,
)
from goi.logic.rewrite import normalize_mll
from goi.logic.syntax import (
    Ax,
    Bin,
    Cut,
    DualVar,
    Par,
    PlusL,
    PlusR,
    TensorRule,
    Top,
    TopRule,
    Var,
    With,
    Zero,
    check_proof,
    cut_count,
    dual,
    fmt,
    is_mll_proof,
    leaf_paths,
    parse_formula,
    parse_proof,
    premises,
    proof_variables,
    sequent_of,
)
from goi.projects import is_promising, orthogonal_witness_suite

from oracles import left_fold_dual_witnesses


def right_tensor(k: int) -> str:
    """Right-nested tensor of k identities over the default basis' variables."""
    text = "(ax X1)"
    for i in range(1, k):
        text = f"(tensor (ax X{1 + i % 4}) {text})"
    return text


class TestFormulas:
    def test_parse_variable(self):
        assert parse_formula("X1") == Var("X1")

    def test_parse_dual(self):
        assert parse_formula("(dual X1)") == DualVar("X1")

    def test_parse_binary(self):
        f = parse_formula("(tensor X1 (par X2 top))")
        assert f == Bin("tensor", Var("X1"), Bin("par", Var("X2"), Top()))

    def test_de_morgan(self):
        f = parse_formula("(tensor X1 (with X2 zero))")
        assert dual(f) == parse_formula("(par (dual X1) (plus (dual X2) top))")
        assert dual(dual(f)) == f

    def test_leaf_paths_align_with_dual(self):
        f = parse_formula("(tensor X1 (par X2 X3))")
        paths = dict(leaf_paths(f))
        dpaths = dict(leaf_paths(dual(f)))
        assert set(paths) == set(dpaths)
        for p, leaf in paths.items():
            assert dpaths[p] == dual(leaf)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProofSyntaxError) as exc:
            parse_formula("(tensor X1")
        assert exc.value.line == 1


class TestProofChecking:
    def test_axiom_sequent(self):
        assert sequent_of(parse_proof("(ax X1)")) == (DualVar("X1"), Var("X1"))

    def test_cut_of_axioms(self):
        s = sequent_of(parse_proof("(cut X1 (ax X1) (ax X1))"))
        assert s == (DualVar("X1"), Var("X1"))

    def test_with_shape_from_grammar(self):
        p = parse_proof("(with (plusl X2 (ax X1)) (plusr X3 (ax X1)))")
        s = sequent_of(p)
        assert fmt(s[0]).startswith("(")
        assert s[1] == Var("X1")

    def test_bad_par_indices(self):
        with pytest.raises(RuleApplicationError):
            check_proof(parse_proof("(par 0 0 (ax X1))"))

    def test_cut_formula_missing(self):
        with pytest.raises(RuleApplicationError):
            check_proof(parse_proof("(cut X2 (ax X1) (ax X1))"))

    def test_with_context_mismatch(self):
        with pytest.raises(RuleApplicationError):
            check_proof(parse_proof("(with (ax X1) (ax X2))"))

    def test_mll_fragment_detector(self):
        assert is_mll_proof(parse_proof("(tensor (ax X1) (ax X2))"))
        assert not is_mll_proof(parse_proof("(with (ax X1) (ax X1))"))


def variables_of(f) -> set:
    if isinstance(f, (Var, DualVar)):
        return {f.name}
    if isinstance(f, Bin):
        return variables_of(f.left) | variables_of(f.right)
    return set()


def recursive_proof_variables(p) -> set:
    """proof_variables as it was defined, reading the conclusion of every subproof afresh."""
    out = set()
    for f in sequent_of(p):
        out |= variables_of(f)
    if isinstance(p, Cut):
        out |= variables_of(p.formula)
    for q in premises(p):
        out |= recursive_proof_variables(q)
    return out


NAMES = st.sampled_from(("X1", "X2", "X3", "X4", "Y"))
FORMULAS = st.recursive(
    st.one_of(NAMES.map(Var), NAMES.map(DualVar), st.just(Top()), st.just(Zero())),
    lambda inner: st.builds(Bin, st.sampled_from(("tensor", "par", "with", "plus")), inner, inner),
    max_leaves=4,
)


@st.composite
def checked_proofs(draw, depth=4):
    """Proof trees that check: axioms, top, tensor, par, with, plus and cuts on an atom."""
    shapes = ("ax", "top", "tensor", "par", "with", "plusl", "plusr", "cut") if depth else ("ax", "top")
    shape = draw(st.sampled_from(shapes))
    if shape == "ax":
        return Ax(draw(NAMES))
    if shape == "top":
        return TopRule(tuple(draw(st.lists(FORMULAS, max_size=2))))
    p = draw(checked_proofs(depth - 1))
    s = sequent_of(p)
    if shape == "tensor":
        return TensorRule(p, draw(checked_proofs(depth - 1)))
    if shape == "par":
        if len(s) < 2:
            return p
        i, j = draw(st.permutations(range(len(s))))[:2]
        return Par(i, j, p)
    if shape == "with":
        return With(p, p)
    if shape in ("plusl", "plusr"):
        return (PlusL if shape == "plusl" else PlusR)(draw(FORMULAS), p)
    atoms = [f for f in s if isinstance(f, (Var, DualVar))]
    if not atoms:
        return p
    a = draw(st.sampled_from(atoms))
    return Cut(a, p, Ax(a.name))


def recursive_sequent(p, path=()):
    """sequent_of as the recursive definition: premises left to right, then the rule, nothing kept."""
    prem = [recursive_sequent(q, path + (k,)) for k, q in enumerate(premises(p))]
    return syntax._conclusion(p, prem, path)


@st.composite
def any_proofs(draw, depth=4):
    """Proof trees whose rules may fail: par indices, cut formulas and with contexts drawn blindly."""
    shape = draw(st.sampled_from(("ax", "top", "tensor", "par", "with", "plusl", "cut") if depth else ("ax", "top")))
    if shape == "ax":
        return Ax(draw(NAMES))
    if shape == "top":
        return TopRule(tuple(draw(st.lists(FORMULAS, max_size=2))))
    p = draw(any_proofs(depth - 1))
    if shape == "par":
        return Par(draw(st.integers(0, 3)), draw(st.integers(0, 3)), p)
    if shape == "plusl":
        return PlusL(draw(FORMULAS), p)
    q = draw(st.one_of(st.just(p), any_proofs(depth - 1)))
    if shape == "cut":
        return Cut(draw(st.one_of(NAMES.map(Var), NAMES.map(DualVar))), p, q)
    return (TensorRule if shape == "tensor" else With)(p, q)


def count_conclusions(monkeypatch) -> list:
    """The nodes whose conclusion ``sequent_of`` computes from now on, one entry per computation."""
    computed, conclusion = [], syntax._conclusion

    def counting(p, prem, path):
        computed.append(p)
        return conclusion(p, prem, path)

    monkeypatch.setattr(syntax, "_conclusion", counting)
    return computed


def each_once(computed) -> bool:
    # the list keeps every node alive, so no id is reused
    return len({id(p) for p in computed}) == len(computed)


def rule_error(p) -> tuple:
    with pytest.raises(RuleApplicationError) as err:
        sequent_of(p)
    return str(err.value), err.value.rule, err.value.path


class TestConclusionStore:
    """A checked node keeps its conclusion; a failing one keeps nothing."""

    @given(any_proofs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_first_error_and_path_are_the_recursive_definitions(self, proof):
        try:
            expected = recursive_sequent(proof)
        except RuleApplicationError as exc:
            assert rule_error(proof) == (str(exc), exc.rule, exc.path)
            # nothing of the failing path was kept: the same error again
            assert rule_error(proof) == (str(exc), exc.rule, exc.path)
        else:
            assert sequent_of(proof) == expected == sequent_of(proof)

    def test_failing_node_keeps_nothing(self, monkeypatch):
        proof = parse_proof("(tensor (ax X1) (par 0 0 (tensor (ax X2) (ax X3))))")
        computed = count_conclusions(monkeypatch)
        first = rule_error(proof)
        assert first[1:] == ("Par", (1,))
        assert len(computed) == 5
        computed.clear()
        # the premises are kept; only the par is computed again, and fails again
        assert rule_error(proof) == first
        assert computed == [proof.right]

    def test_checked_subtree_under_a_bad_parent(self, monkeypatch):
        good = parse_proof("(tensor (ax X1) (ax X2))")
        sequent_of(good)
        bad = TensorRule(Ax("X3"), Cut(Var("X9"), good, Ax("X9")))
        computed = count_conclusions(monkeypatch)
        message, rule, path = rule_error(bad)
        assert (rule, path) == ("Cut", (1,)) and "X9" in message
        assert [type(p).__name__ for p in computed] == ["Ax", "Ax", "Cut"]

    def test_shared_subtree_is_computed_once(self, monkeypatch):
        shared = parse_proof("(par 0 1 (tensor (ax X1) (ax X2)))")
        proof = With(shared, shared)
        expected = recursive_sequent(proof)
        computed = count_conclusions(monkeypatch)
        assert sequent_of(proof) == expected
        assert each_once(computed) and len(computed) == 5

    @pytest.mark.parametrize("name,text", corpus.MLL_CORPUS + corpus.MALL_CORPUS)
    def test_a_checked_node_equals_an_unchecked_parse(self, name, text):
        checked, fresh = parse_proof(text), parse_proof(text)
        sequent_of(checked)
        for a, b in zip(preorder(checked), preorder(fresh), strict=True):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert dataclasses.astuple(a) == dataclasses.astuple(b)


class TestOneSequentWalk:
    """Every caller reads the kept conclusions: no node is computed twice."""

    @given(checked_proofs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_proof_variables_is_the_recursive_definition(self, proof):
        assert proof_variables(proof) == recursive_proof_variables(proof)

    def test_proof_variables_computes_each_node_once(self, monkeypatch):
        proof = parse_proof("(tensor (with (ax X1) (ax X1)) (cut (dual X2) (ax X2) (plusl (dual X3) (ax X2))))")
        computed = count_conclusions(monkeypatch)
        assert proof_variables(proof) == {"X1", "X2", "X3"}
        assert each_once(computed) and len(computed) == len(preorder(proof))
        computed.clear()
        assert proof_variables(proof) == {"X1", "X2", "X3"} and not computed

    def test_interpret_is_linear_in_the_tensor_width(self, tmp_path, monkeypatch):
        # counts, not clocks: operator constructions grow linearly in k, and each node's conclusion is computed once
        constructed = [0]
        init = PartialInjectionOp.__init__

        def counting_init(self, *args, **kwargs):
            constructed[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(PartialInjectionOp, "__init__", counting_init)
        computed = count_conclusions(monkeypatch)
        counts = {}
        for k in (8, 16, 32):
            path = tmp_path / f"tensor-{k}.sexp"
            path.write_text(right_tensor(k), encoding="utf-8")
            constructed[0] = 0
            computed.clear()
            assert main(["interpret", str(path), "--out", str(tmp_path / "r.json")]) == 0
            assert each_once(computed) and len(computed) == 2 * k - 1
            counts[k] = constructed[0]
        # a k a + b count with b >= 0 at most doubles when k doubles; a fold that rebuilds its prefix grows as k^2
        assert counts[8] < counts[16] <= 2 * counts[8]
        assert counts[16] < counts[32] <= 2 * counts[16]

    def test_goi1_interpret_computes_each_node_once(self, tmp_path, monkeypatch):
        path = tmp_path / "tensor-8.sexp"
        path.write_text(right_tensor(8), encoding="utf-8")
        computed = count_conclusions(monkeypatch)
        assert main(["interpret", str(path), "--backend", "goi1", "--out", str(tmp_path / "r.json")]) == 0
        assert each_once(computed) and len(computed) == 15

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_check_allocate_interpret_computes_each_node_once(self, monkeypatch, n):
        # the exact path of a cut chain: check, address plan, interpretation
        proof = cut_chain(n, n)
        computed = count_conclusions(monkeypatch)
        check_proof(proof)
        interpret_mll_goi1(proof, allocate_goi1(proof))
        assert each_once(computed) and len(computed) == 2 * n + 1

    @pytest.mark.parametrize("name", ["compound-cut-deep", "deep-par"])
    def test_soundness_check_computes_each_node_once(self, monkeypatch, name):
        proof = parse_proof(dict(corpus.MLL_CORPUS)[name])
        computed = count_conclusions(monkeypatch)
        assert soundness_check_mll(proof)
        assert each_once(computed)
        assert {id(p) for p in preorder(proof)} <= {id(p) for p in computed}

    def test_normalize_mll_is_linear_in_the_cut_count(self, monkeypatch):
        computed = count_conclusions(monkeypatch)
        counts = {}
        for n in (16, 32, 64):
            proof = cut_chain(n, n)
            computed.clear()
            normal = normalize_mll(proof)
            assert sequent_of(normal) == sequent_of(proof) and cut_count(normal) == 0
            assert each_once(computed)
            counts[n] = len(computed)
        # re-walking the built subproofs at every step grows as n^2
        assert counts[16] < counts[32] <= 2 * counts[16]
        assert counts[32] < counts[64] <= 2 * counts[32]


class TestNormalization:
    @pytest.mark.parametrize("name,text", corpus.MLL_CORPUS)
    def test_normal_forms_cut_free_same_conclusion(self, name, text):
        p = parse_proof(text)
        n = normalize_mll(p)
        assert cut_count(n) == 0
        assert sequent_of(n) == sequent_of(p)

    def test_cut_free_unchanged(self):
        p = parse_proof("(par 1 2 (tensor (ax X1) (ax X2)))")
        assert normalize_mll(p) == p

    def test_additives_rejected(self):
        with pytest.raises(UnsupportedRuleError):
            normalize_mll(parse_proof("(with (ax X1) (ax X1))"))


class TestGoi1Interpretation:
    def test_axiom_is_standard_swap(self):
        pi, sigma = interpret_mll_goi1(parse_proof("(ax X1)"))
        tta = compose(l_isometry(), adjoint(r_isometry()))  # L R*: even to odd
        assert pi == sum_disjoint(tta, adjoint(tta))
        assert sigma.is_zero()

    def test_par_leaves_pair_unchanged(self):
        t = parse_proof("(tensor (ax X1) (ax X2))")
        p = parse_proof("(par 1 2 (tensor (ax X1) (ax X2)))")
        pi_t, s_t = interpret_mll_goi1(t)
        pi_p, s_p = interpret_mll_goi1(p)
        # same number of links either way; both sigma-free
        assert s_t.is_zero() and s_p.is_zero()
        assert len(pi_t.cyls) == len(pi_p.cyls) == 4

    def test_cut_sigma_links_cut_addresses(self):
        pi, sigma = interpret_mll_goi1(parse_proof("(cut X1 (ax X1) (ax X1))"))
        assert not sigma.is_zero()
        assert all(c.in_slot == 1 and c.out_slot == 1 for c in sigma.cyls)

    def test_interpretation_outputs_are_partial_symmetries(self):
        from goi.groupoid import is_partial_symmetry

        for name, proof in corpus.mll_proofs():
            pi, sigma = interpret_mll_goi1(proof)
            assert is_partial_symmetry(pi), name
            assert sigma.is_zero() or is_partial_symmetry(sigma), name
            prod = compose(pi, sigma)
            if not prod.is_zero():
                assert nilpotency(prod).kind == "nilpotent", name

    def test_non_mll_rejected(self):
        with pytest.raises(UnsupportedRuleError):
            interpret_mll_goi1(parse_proof("(plusl X2 (ax X1))"))

    def test_determinism(self):
        p = parse_proof("(cut X1 (ax X1) (ax X1))")
        assert interpret_mll_goi1(p) == interpret_mll_goi1(p)
        a = allocate_goi1(p)
        b = allocate_goi1(p)
        assert a == b


class TestMllSoundness:
    @pytest.mark.parametrize("name,text", corpus.MLL_CORPUS)
    def test_corpus_exact(self, name, text):
        assert soundness_check_mll(parse_proof(text))

    def test_three_cut_chain_path_composition(self):
        p = parse_proof("(cut X1 (cut X1 (cut X1 (ax X1) (ax X1)) (ax X1)) (ax X1))")
        pi, sigma = interpret_mll_goi1(p)
        out = ex_goi1(pi, sigma, Region.from_support(sigma))
        pi_n, _ = interpret_mll_goi1(normalize_mll(p), allocate_goi1(p))
        assert out == pi_n

    def test_cut_free_trivial(self):
        p = parse_proof("(tensor (ax X1) (ax X2))")
        pi, sigma = interpret_mll_goi1(p)
        assert sigma.is_zero()
        assert ex_goi1(pi, sigma) == pi


class TestComb:
    def test_words(self):
        assert comb_words(0) == []
        assert comb_words(1) == [""]
        assert comb_words(2) == ["R", "L"]
        assert comb_words(4) == ["R", "LR", "LLR", "LLL"]


class TestMatricialInterpretation:
    def test_axiom_is_fax(self):
        basis = default_basis()
        p = parse_proof("(ax X1)")
        proj = interpret_mall_matricial(p, basis)
        assert proj.wager == 0.0
        assert is_promising(proj).all_pass
        assert len(proj.op.table) == 2

    def test_top_rule_trivial_project(self):
        basis = default_basis()
        proj = interpret_mall_matricial(parse_proof("(top X1)"), basis)
        assert proj.wager == 0.0
        assert proj.dialect.blocks == (1,)
        assert proj.dialectal.dense_payload().max_abs_diff(proj.dialectal.dense_payload()) == 0.0
        assert is_promising(proj).all_pass

    @pytest.mark.parametrize("text", ["(cut (dual X1) (ax X1) (top X1))", "(top X1 (dual X2))", "(with (top X1) (top X1))"])
    def test_top_is_the_empty_table(self, text):
        # a cut against top is plugged exactly: no dense payload anywhere
        proj = interpret_mall_matricial(parse_proof(text), default_basis())
        assert proj.dialectal.is_symbolic
        assert not proj.op.table

    def test_missing_variable(self):
        basis = default_basis()
        with pytest.raises(MissingVariableError):
            allocate_matricial(parse_proof("(ax X9)"), basis)

    def test_allocation_deterministic(self):
        basis = default_basis()
        p = parse_proof("(with (ax X1) (ax X1))")
        assert allocate_matricial(p, basis) == allocate_matricial(p, basis)

    def test_with_premises_share_context_carrier(self):
        basis = default_basis()
        p = parse_proof("(with (ax X1) (ax X1))")
        plan = allocate_matricial(p, basis)
        with_site = plan.sites[0]
        ctx_site = plan.sites[1]
        assert set(with_site.locations) & set(ctx_site.locations) == set()
        proj = interpret_mall_matricial(p, basis, plan)
        assert set(proj.carrier) == set(with_site.locations) | set(ctx_site.locations)
        assert proj.dialect.blocks == (1, 1)
        assert proj.pseudo_trace.weights == (0.5, 0.5)

    @pytest.mark.parametrize("name,text", corpus.MALL_CORPUS)
    def test_corpus_promising_and_orthogonal(self, name, text):
        basis = default_basis()
        proof = parse_proof(text)
        plan = allocate_matricial(proof, basis)
        proj = interpret_mall_matricial(proof, basis, plan)
        rep = is_promising(proj)
        assert rep.all_pass, (name, rep.failures())
        witnesses = sequent_dual_witnesses(plan, basis)
        rows = orthogonal_witness_suite(proj, witnesses)
        assert all(r.verdict == "orthogonal" for r in rows), name

    def test_tensor_rule_semantic_inclusion(self):
        # the plugged tensor of two proofs passes the combined dual witnesses
        basis = default_basis()
        proof = parse_proof("(cut X1 (ax X1) (tensor (cut (dual X1) (ax X1) (ax X1)) (ax X2)))")
        plan = allocate_matricial(proof, basis)
        proj = interpret_mall_matricial(proof, basis, plan)
        assert is_promising(proj).all_pass
        rows = orthogonal_witness_suite(proj, sequent_dual_witnesses(plan, basis))
        assert rows and all(r.verdict == "orthogonal" for r in rows)


def cut_chain(n: int, seed: int):
    """n cuts between identity axioms on X1, each on a random side and on X1 or its dual."""
    rng = np.random.default_rng(seed)
    proof = Ax("X1")
    for _ in range(n):
        f = Var("X1") if rng.random() < 0.5 else DualVar("X1")
        proof = Cut(f, proof, Ax("X1")) if rng.random() < 0.5 else Cut(f, Ax("X1"), proof)
    return proof


def with_tower(depth: int) -> str:
    text = "(with (ax X1) (ax X1))"
    for i in range(1, depth):
        text = f"(tensor (with (ax X{1 + i % 2}) (ax X{1 + i % 2})) {text})"
    return text


def preorder(proof) -> list:
    out, stack = [], [proof]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(premises(node)))
    return out


class TestSiteRouting:
    """``premise_sites`` hands every premise exactly its sequent, on both backends."""

    MLL = [parse_proof(t) for _, t in corpus.MLL_CORPUS] + [cut_chain(n, seed) for n, seed in ((1, 0), (4, 1), (16, 2))]
    MALL = MLL + [parse_proof(t) for _, t in corpus.MALL_CORPUS] + [parse_proof(with_tower(d)) for d in (1, 3)]

    @staticmethod
    def record(monkeypatch, module) -> list:
        """The (node, conclusion sites, cut sites, premise sites) of every call the module makes."""
        calls, route = [], locations.premise_sites

        def recording(node, sites, cut=None):
            out = route(node, sites, cut)
            calls.append((node, sites, cut, out))
            assert [s.formula for s in sites] == list(sequent_of(node))
            for q, ps in zip(premises(node), out, strict=True):
                assert [s.formula for s in ps] == list(sequent_of(q))
            return out

        monkeypatch.setattr(module, "premise_sites", recording)
        return calls

    @pytest.mark.parametrize("k", range(len(MLL)))
    def test_goi1_routes_every_rule(self, monkeypatch, k):
        proof = self.MLL[k]
        calls = self.record(monkeypatch, goi1)
        plan = allocate_goi1(proof)
        interpret_mll_goi1(proof, plan)
        assert [id(c[0]) for c in calls] == [id(n) for n in preorder(proof) if premises(n)]
        cuts = [cut for _, _, cut, _ in calls if cut is not None]
        assert all(a.word == "R" and b.word == "L" and a.slot == b.slot for a, b in cuts)
        assert [a.slot for a, _ in cuts] == list(range(1, len(cuts) + 1))
        assert {s.slot for s in plan.sites} == {0}

    @pytest.mark.parametrize("k", range(len(MALL)))
    def test_matricial_routes_every_rule(self, monkeypatch, k):
        proof, basis = self.MALL[k], default_basis()
        calls = self.record(monkeypatch, matricial)
        plan = allocate_matricial(proof, basis)
        interpret_mall_matricial(proof, basis, plan)
        assert [id(c[0]) for c in calls] == [id(n) for n in preorder(proof) if premises(n)]
        cuts = [cut for _, _, cut, _ in calls if cut is not None]
        assert all(a.locations == b.locations for a, b in cuts)
        # the cut locations continue the conclusion's numbering, cut after cut in pre-order, none shared
        conclusion = [loc for s in plan.sites for loc in s.locations]
        assert conclusion == list(range(len(conclusion)))
        cut_locations = [loc for a, _ in cuts for loc in a.locations]
        assert cut_locations == list(range(len(conclusion), len(conclusion) + len(cut_locations)))


class TestSequentDualWitnesses:
    """Prefix-sharing witness tensors against the full left fold."""

    SEQUENTS = {
        "tensor-2": right_tensor(2),
        "tensor-5": right_tensor(5),
        "tensor-9": right_tensor(9),
        "with": "(with (ax X1) (ax X1))",
        "plus": "(plusl (dual X2) (ax X1))",
        "par": "(par 1 2 (tensor (ax X1) (ax X2)))",
        "tensor-of-with": "(tensor (with (ax X1) (ax X1)) (ax X2))",
        "tensor-of-withs": "(tensor (with (ax X3) (ax X3)) (tensor (with (ax X1) (ax X1)) (ax X2)))",
    }

    @pytest.mark.parametrize("caps", [(3, 12), (2, 40), (3, 1)])
    @pytest.mark.parametrize("name", sorted(SEQUENTS))
    def test_matches_left_fold(self, name, caps):
        basis = default_basis()
        plan = allocate_matricial(parse_proof(self.SEQUENTS[name]), basis)
        got = sequent_dual_witnesses(plan, basis, *caps)
        want = left_fold_dual_witnesses(plan, basis, *caps)
        assert got.carrier == want.carrier
        assert got.members and len(got.members) == len(want.members)
        for g, w in zip(got.members, want.members):
            assert g.carrier == w.carrier
            assert g.dialect == w.dialect
            assert g.pseudo_trace == w.pseudo_trace
            assert g.wager == w.wager
            gp, wp = g.dialectal.dense_payload(), w.dialectal.dense_payload()
            assert gp.carrier == wp.carrier and np.array_equal(gp.mat, wp.mat)


class TestBasisParsing:
    def test_roundtrip(self):
        text = """
        (basis
          (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 (scalar -0.3))))
          (var X2 2 (primal (project 0.5 (swap 0.4))) (dual (project 0.8 zero))))
        """
        basis = parse_basis(text)
        assert basis.covers("X1") and basis.covers("X2")
        assert len(basis.primitive_carrier("X2")) == 2
        p = basis.primal_projects("X2")[0]
        assert p.wager == 0.5

    def test_bad_basis(self):
        with pytest.raises(ProofSyntaxError):
            parse_basis("(nonsense)")

    @pytest.mark.parametrize(
        "spec,error,message",
        [
            ("(scalar 2.0)", CarrierError, "must be a contraction"),
            ("(scalar nan)", NumericError, "entries must be finite"),
            ("(swap 0.5)", CarrierError, "carrier of size 2+"),
            ("(diag 0.1 0.2)", CarrierError, "length mismatch"),
        ],
    )
    def test_bad_witness_rejected_when_parsed(self, spec, error, message):
        text = f"(basis (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 zero) (project 0.6 {spec}))))"
        with pytest.raises(error, match=f"basis entry X1, dual witness 1: .*{message}"):
            parse_basis(text)

    def test_non_finite_wager_rejected(self):
        with pytest.raises(CarrierError, match="wager must be finite"):
            parse_basis("(basis (var X1 1 (primal (project inf zero)) (dual)))")


class TestDefaultBasis:
    def test_built_once_per_process(self):
        basis = default_basis()
        assert default_basis() is basis
        for name in basis.entries:
            for p in basis.primal_projects(name) + basis.dual_projects(name):
                op = p.dialectal.op
                for mapping in (op.d, op.v.table):
                    with pytest.raises(TypeError):
                        mapping[Idx(0, 0)] = None
                with pytest.raises(dataclasses.FrozenInstanceError):
                    op.d = {}
        before = basis.dual_projects("X1")
        basis.dual_projects("X1").clear()
        after = default_basis().dual_projects("X1")
        assert len(after) == len(before) == 2 and all(a is b for a, b in zip(after, before))
