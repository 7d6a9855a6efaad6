"""Sumsets, subset enumeration, and containment checks.

Pairwise sumsets of finite sets are computed by shift-or on bitmaps:
adding x to every member of C is one shift of C's bitmap, and the union
over x in B is an or.  Containment of a claimed interval or bitmap in a
target set yields its smallest element outside the target, the witness,
or None.  Every target decides every integer: a window target is the
finite set of its set bits.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import BudgetExceeded, EmptySelection
from .intset import ExplicitWindow, IntSet, Run, Window, _comb, _echo

__all__ = [
    "Status",
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


def pairwise_sumset(b: ExplicitWindow, c: ExplicitWindow, cap: int) -> ExplicitWindow:
    """All sums x + y (x in b, y in c) up to cap, as a bitmap on [0, cap].

    Sums beyond cap are discarded; members of either set above cap still
    contribute the sums that land at or below it.  Each run [s, e] of b
    adds c shifted by every x in it, one _comb of c's bits: about
    log2(e - s + 1) shift-ors instead of e - s + 1.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {_echo(cap)}")
    out_mask = (1 << (cap + 1)) - 1
    cbits = c.bits
    cbase = c.window.base
    acc = 0
    for start, end in zip(*b.run_bounds()):
        lo = start + cbase
        if lo > cap:
            break
        # shifts past cap only make sums past cap
        spread = min(end + cbase, cap) - lo + 1
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
        raise ValueError(f"subset count needs k >= 0, got {_echo(k)}")
    if k > SUBSET_BUDGET_MAX:
        raise BudgetExceeded(
            f"enumerating 2**{_echo(k)} - 1 subsets exceeds the budget of 2**{SUBSET_BUDGET_MAX}"
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


def verify_containment(claim: Run | ExplicitWindow, target: IntSet) -> int | None:
    """The smallest element of the claim outside the target, or None when
    every element is a member.

    An interval claim costs one first_gap call, that is one run_end_at
    query on the target; a bitmap claim one materialize of the target on the
    claim's window and one AND, claim.bits & ~target's bitmap, no member call.
    """
    if isinstance(claim, ExplicitWindow):
        missing = claim.bits & ~target.materialize(claim.window).bits
        return claim.window.base + (missing & -missing).bit_length() - 1 if missing else None
    return target.first_gap(claim.start, claim.end)
