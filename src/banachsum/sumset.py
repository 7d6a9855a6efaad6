"""Sumsets, subset enumeration, and containment verdicts.

Pairwise sumsets of finite sets are computed by shift-or on bitmaps:
adding x to every member of C is one shift of C's bitmap, and the union
over x in B is an or.  Containment of a claimed interval or bitmap in a
target set yields a three-way verdict, since a target known only inside
a window cannot always decide.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import BudgetExceeded, EmptySelection
from .intset import ExplicitWindow, IntSet, Record, Run, Window, _comb

__all__ = [
    "Status",
    "Verdict",
    "SUBSET_BUDGET_MAX",
    "pairwise_sumset",
    "run_sum",
    "check_subset_count",
    "subset_of",
    "enumerate_subsets",
    "verify_containment",
]

SUBSET_BUDGET_MAX = 24


class Status(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    PARTIAL_WINDOW = "PartialWindow"


class Verdict(Record):
    """Outcome of one containment check.

    witness is the smallest offending element on Fail; evaluable records
    how much of the claim a window-limited target could actually decide.
    """

    _fields = ("status", "witness", "evaluable")
    witness = evaluable = None

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS


def pairwise_sumset(b: ExplicitWindow, c: ExplicitWindow, cap: int) -> ExplicitWindow:
    """All sums x + y (x in b, y in c) up to cap, as a bitmap on [0, cap].

    Sums beyond cap are discarded; members of either set above cap still
    contribute the sums that land at or below it.  Each run [s, e] of b
    adds c shifted by every x in it, one _comb of c's bits: about
    log2(e - s + 1) shift-ors instead of e - s + 1.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    out_mask = (1 << (cap + 1)) - 1
    cbits = c.bits
    cbase = c.window.base
    acc = 0
    for run in b.runs():
        lo = run.start + cbase
        if lo > cap:
            break
        # shifts past cap only make sums past cap
        spread = min(run.end + cbase, cap) - lo + 1
        acc |= _comb(1, spread, cbits) << lo
    return ExplicitWindow(Window(0, cap + 1), acc & out_mask)


def run_sum(runs: Iterable[Run]) -> Run:
    """Sumset of intervals, which is again an interval.

    [s1, s1+l1-1] + [s2, s2+l2-1] = [s1+s2, s1+s2 + (l1+l2-2)], so starts
    add and lengths add minus one per join.
    """
    runs = list(runs)
    if not runs:
        raise EmptySelection("sum of an empty selection of runs")
    start = sum(r.start for r in runs)
    length = sum(r.length for r in runs) - (len(runs) - 1)
    return Run(start, length)


def check_subset_count(k: int) -> None:
    """Reject a sweep over the 2**k - 1 nonempty subsets of {1..k} up front.

    Raises ValueError for k < 0 and BudgetExceeded above SUBSET_BUDGET_MAX,
    before any subset is looked at.
    """
    if k < 0:
        raise ValueError(f"subset count needs k >= 0, got {k}")
    if k > SUBSET_BUDGET_MAX:
        raise BudgetExceeded(
            f"enumerating 2**{k} - 1 subsets exceeds the budget of 2**{SUBSET_BUDGET_MAX}"
        )


def subset_of(i: int) -> tuple[int, ...]:
    """Subset number i >= 1 in binary-counter order: the indices of i's set
    bits, top bit first."""
    sel = []
    while i:
        top = i.bit_length()
        sel.append(top)
        i ^= 1 << (top - 1)
    return tuple(sel)


def enumerate_subsets(k: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of {1..k} in binary-counter order.

    Subset number i (1-based) selects the indices of i's set bits, listed
    top bit first, so the stream starts (1,), (2,), (2, 1), (3,), ...
    """
    check_subset_count(k)
    for i in range(1, 1 << k):
        yield subset_of(i)


def _decidable_bounds(a: IntSet) -> tuple[int, int] | None:
    if isinstance(a, ExplicitWindow):
        return a.window.base, a.window.end
    return None


def verify_containment(claim: Run | ExplicitWindow, target: IntSet) -> Verdict:
    """Is every element of the claim a member of the target?

    Fail always reports the smallest witness.  An interval claim costs one
    first_gap call, that is one run_end_at query on the target; a bitmap
    claim one materialize of the target on the claim's window and one
    AND, with no member call (see _verify_bitmap).  When the target is an
    ExplicitWindow, elements of the claim outside its window are
    undecidable: if everything decidable passes but some of the claim was
    out of reach, the verdict is PartialWindow with the decided span in
    evaluable.  Every other target, an AffineImage of a window included,
    decides fully, so its verdict is Pass or Fail.
    """
    if isinstance(claim, ExplicitWindow):
        return _verify_bitmap(claim, target)
    # a window target decides the part of the claim inside its window,
    # every other target all of it
    lo, hi = _decidable_bounds(target) or (claim.start, claim.end)
    in_lo, in_hi = max(claim.start, lo), min(claim.end, hi)
    if in_lo <= in_hi:
        witness = target.first_gap(in_lo, in_hi)
        if witness is not None:
            return Verdict(Status.FAIL, witness=witness)
    if claim.start < lo or claim.end > hi:
        span = (in_lo, in_hi) if in_lo <= in_hi else None
        return Verdict(Status.PARTIAL_WINDOW, evaluable=span)
    return Verdict(Status.PASS)


def _verify_bitmap(claim: ExplicitWindow, target: IntSet) -> Verdict:
    """The claim's cells the target lacks, claim.bits & ~target's bitmap
    on the claim's window: one materialize and one AND, no member calls.
    A window target decides only the cells inside its window, so the
    misses are masked to those, and claim bits outside them make the
    verdict PartialWindow when nothing inside fails."""
    window = claim.window
    missing = claim.bits & ~target.materialize(window).bits
    undecided = 0
    bounds = _decidable_bounds(target)
    if bounds is not None:
        lo = max(bounds[0], window.base) - window.base
        hi = min(bounds[1], window.end) - window.base
        decidable = ((1 << (hi - lo + 1)) - 1) << lo if lo <= hi else 0
        missing &= decidable
        undecided = claim.bits & ~decidable
    if missing:
        return Verdict(Status.FAIL, witness=window.base + (missing & -missing).bit_length() - 1)
    if undecided:
        return Verdict(Status.PARTIAL_WINDOW, evaluable=bounds)
    return Verdict(Status.PASS)

