import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.grouparith import (
    GEN_A,
    GEN_B,
    IDENTITY,
    GroupElement,
    all_words,
    g_compose,
    monoid_word_eval,
)

elements = st.builds(
    lambda shifts, step: GroupElement.make(shifts, step),
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=4),
    st.integers(-5, 5),
)


class TestGroupLaws:
    @given(elements)
    def test_identity(self, g):
        assert g_compose(IDENTITY, g) == g
        assert g_compose(g, IDENTITY) == g

    @given(elements)
    def test_inverse(self, g):
        # (x, p)^-1 = ((-x_{n+p})_n, -p) is a two-sided inverse under g_compose
        inverse = GroupElement.make({pos - g.step: -val for pos, val in g.shifts}, -g.step)
        assert g_compose(g, inverse).is_identity()
        assert g_compose(inverse, g).is_identity()

    @given(elements, elements, elements)
    @settings(max_examples=120)
    def test_associativity(self, g, h, k):
        assert g_compose(g_compose(g, h), k) == g_compose(g, g_compose(h, k))


class TestFreeMonoid:
    def test_worked_word(self):
        g = monoid_word_eval([("a", 2), ("b", 1), ("a", 48), ("b", 2)])
        assert g.shift_map() == {2: 48, 3: 2}
        assert g.step == 3

    def test_string_form(self):
        assert monoid_word_eval("ab") == monoid_word_eval([("a", 1), ("b", 1)])

    def test_single_letters(self):
        assert monoid_word_eval("a") == GEN_A
        assert monoid_word_eval("b") == GEN_B

    def test_freeness_up_to_six(self):
        words = all_words(6)
        values = {monoid_word_eval(w) for w in words}
        assert len(values) == len(words) == 126

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            monoid_word_eval("abc")

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            monoid_word_eval([("a", -1)])

    @given(st.text(alphabet="ab", min_size=1, max_size=7), st.text(alphabet="ab", min_size=1, max_size=7))
    @settings(max_examples=150)
    def test_concatenation_is_composition(self, w1, w2):
        assert monoid_word_eval(w1 + w2) == g_compose(monoid_word_eval(w1), monoid_word_eval(w2))
