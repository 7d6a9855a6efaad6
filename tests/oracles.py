"""Reference routes the tests check the package against, kept out of it."""

from __future__ import annotations

from typing import Sequence

from banachsum.construct import BSequence
from banachsum.errors import EmptySelection
from banachsum.intset import ExplicitWindow, Window
from banachsum.sumset import pairwise_sumset


def from_entries(ells: Sequence[int], bs: Sequence[int]) -> BSequence:
    """The base sequence of the given run lengths and bases."""
    return BSequence(tuple(ells), tuple(bs))


def family_sumset(
    family: Sequence[ExplicitWindow], selection: Sequence[int], cap: int
) -> ExplicitWindow:
    """Iterated sumset of the selected (1-based) family members, capped.

    A singleton selection returns that set unchanged.  Folding pairwise
    with the cap at every step is sound because all members are positive:
    a partial sum that already exceeds cap can only grow.
    """
    if not selection:
        raise EmptySelection("sumset of an empty selection of sets")
    parts = [family[i - 1] for i in selection]
    if len(parts) == 1:
        return parts[0]
    acc = parts[0].materialize(Window(0, cap + 1))
    for part in parts[1:]:
        acc = pairwise_sumset(acc, part, cap)
    return acc
