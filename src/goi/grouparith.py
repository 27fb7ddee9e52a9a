"""Arithmetic in the wreath-like group Z^(Z) |x Z.

Elements are pairs (shifts, step): a finitely supported function Z -> Z
plus an integer.  The integer part acts on the function part by
translation, which is what makes the subgroup generated by

    a = (delta_0, 0)        b = (0, 1)

a free monoid: the b-exponents to the right of each a-run pick the slot
the run's exponent lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class GroupElement:
    shifts: tuple[tuple[int, int], ...]  # sorted (position, value), values nonzero
    step: int

    @staticmethod
    def make(shifts: Mapping[int, int] | Iterable[tuple[int, int]] = (), step: int = 0) -> "GroupElement":
        items = dict(shifts)
        cleaned = tuple(sorted((int(k), int(v)) for k, v in items.items() if v != 0))
        return GroupElement(cleaned, int(step))

    def shift_map(self) -> dict[int, int]:
        return dict(self.shifts)

    def is_identity(self) -> bool:
        return not self.shifts and self.step == 0


IDENTITY = GroupElement.make()
GEN_A = GroupElement.make({0: 1}, 0)
GEN_B = GroupElement.make({}, 1)


def g_compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Semidirect product: the right factor's step translates the left shifts.

    (x, p) . (y, q) = ((x_{n-q} + y_n)_n, p + q)
    """
    out: dict[int, int] = {}
    for pos, val in g.shifts:
        out[pos + h.step] = out.get(pos + h.step, 0) + val
    for pos, val in h.shifts:
        out[pos] = out.get(pos, 0) + val
    return GroupElement.make(out, g.step + h.step)


def monoid_word_eval(word) -> GroupElement:
    """Evaluate a word over {a, b} by left-to-right composition.

    ``word`` is either a string of letters ("aabab") or an iterable of
    (letter, exponent) runs such as [("a", 2), ("b", 1), ("a", 48), ("b", 2)].
    """
    if isinstance(word, str):
        runs: list[tuple[str, int]] = [(c, 1) for c in word]
    else:
        runs = [(str(c), int(e)) for c, e in word]
    acc = IDENTITY
    for letter, exponent in runs:
        if exponent < 0:
            raise ValueError("monoid words take nonnegative exponents")
        gen = {"a": GEN_A, "b": GEN_B}.get(letter)
        if gen is None:
            raise ValueError(f"unknown letter {letter!r}")
        for _ in range(exponent):
            acc = g_compose(acc, gen)
    return acc


def all_words(max_len: int) -> list[str]:
    """Every word over {a, b} of length 1..max_len."""
    words: list[str] = []
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in "ab"]
        words.extend(frontier)
    return words
