"""Sumsets, subset streams, and containment witnesses."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banachsum.construct import verify_b_sequence
from banachsum.errors import BudgetExceeded, EmptySelection
from banachsum.intset import (
    Congruence,
    ExplicitWindow,
    Full,
    PolyRuns,
    PowRuns,
    Run,
    RunList,
    Window,
)
from banachsum.sumset import (
    enumerate_subsets,
    pairwise_sumset,
    run_sum,
    verify_containment,
)
from oracles import family_sumset, from_entries
from strategies import shaped_windows


def from_elems(xs, window=Window(0, 256)):
    return RunList(Run(x, 1) for x in xs).materialize(window)


def brute_sumset(b, c, cap):
    return sorted(
        {x + y for x in b for y in c if x + y <= cap}
    )


# ------------------------------------------------------------------ pairwise


def test_pairwise_examples():
    got = pairwise_sumset(from_elems([1, 2]), from_elems([10, 20]), 255)
    assert sorted(got.elements()) == [11, 12, 21, 22]

    odds = Congruence(2, 1).materialize(Window(0, 40))
    summed = pairwise_sumset(odds, odds, 39)
    assert all(x % 2 == 0 for x in summed.elements())
    assert all(not odds.member(x) for x in summed.elements())

    c = from_elems([3, 7, 9])
    shifted = pairwise_sumset(from_elems([5]), c, 255)
    assert sorted(shifted.elements()) == [8, 12, 14]


def test_pairwise_cap_drops_large_sums():
    got = pairwise_sumset(from_elems([1, 100]), from_elems([10, 200]), 120)
    assert sorted(got.elements()) == [11, 110]


@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
    st.integers(0, 130),
)
def test_pairwise_matches_brute(xs, ys, cap):
    got = pairwise_sumset(from_elems(xs), from_elems(ys), cap)
    assert sorted(got.elements()) == brute_sumset(xs, ys, cap)


@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=6),
    st.lists(st.integers(1, 50), min_size=1, max_size=6),
    st.lists(st.integers(1, 50), min_size=1, max_size=6),
)
def test_pairwise_commutative_associative(xs, ys, zs):
    cap = 255
    b, c, d = from_elems(xs), from_elems(ys), from_elems(zs)
    ab = pairwise_sumset(b, c, cap)
    ba = pairwise_sumset(c, b, cap)
    assert ab.bits == ba.bits
    left = pairwise_sumset(ab, d, cap)
    right = pairwise_sumset(b, pairwise_sumset(c, d, cap), cap)
    assert left.bits == right.bits


def pairwise_by_elements(b, c, cap):
    # one shift-or per element of b, the loop that pairwise_sumset replaces
    acc = 0
    for x in b.elements():
        if x + c.window.base > cap:
            break
        acc |= c.bits << (x + c.window.base)
    return acc & ((1 << (cap + 1)) - 1)


@st.composite
def run_windows(draw, max_len=300):
    """Windows at any base holding a few runs of up to 80 members."""
    base = draw(st.integers(0, 200))
    length = draw(st.integers(1, max_len))
    bits, off = 0, 0
    for gap, run in draw(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 80)),
                                  max_size=5)):
        off += gap
        bits |= ((1 << run) - 1) << off
        off += run
    bits &= (1 << length) - 1
    if base == 0:
        bits &= ~1
    return ExplicitWindow(Window(base, length), bits)


@given(run_windows(), run_windows(), st.integers(0, 700))
@settings(max_examples=150)
def test_pairwise_matches_elementwise_fold(b, c, cap):
    got = pairwise_sumset(b, c, cap)
    assert got.window == Window(0, cap + 1)
    assert got.bits == pairwise_by_elements(b, c, cap)


# ------------------------------------------------------------------ family


def test_family_examples():
    fam = [from_elems([1]), from_elems([10])]
    assert sorted(family_sumset(fam, (1, 2), 255).elements()) == [11]

    fam = [from_elems([1, 2]), from_elems([10]), from_elems([100])]
    assert sorted(family_sumset(fam, (1, 3), 255).elements()) == [101, 102]
    assert family_sumset(fam, (2,), 255) is fam[1]

    with pytest.raises(EmptySelection):
        family_sumset(fam, (), 255)


@given(
    st.lists(st.lists(st.integers(1, 30), min_size=1, max_size=4), min_size=1, max_size=4),
    st.integers(0, 120),
)
def test_family_matches_brute_fold(element_sets, cap):
    fam = [from_elems(xs) for xs in element_sets]
    sel = tuple(range(1, len(fam) + 1))
    got = family_sumset(fam, sel, cap)
    if len(fam) == 1:
        assert got is fam[0]  # singleton selection is the identity, uncapped
        return
    want = {0}
    for xs in element_sets:
        want = {w + x for w in want for x in xs}
    assert sorted(got.elements()) == sorted(w for w in want if w <= cap)


# ------------------------------------------------------------------ run_sum


def test_run_sum_examples():
    assert run_sum([Run(5, 4)]) == Run(5, 4)
    assert run_sum([Run(9, 3), Run(169, 13)]) == Run(178, 15)
    assert run_sum([Run(2, 1), Run(10, 1), Run(170, 1)]) == Run(182, 1)
    with pytest.raises(EmptySelection):
        run_sum([])


@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.integers(1, 8)),
        min_size=1,
        max_size=4,
    )
)
def test_run_sum_matches_brute(pairs):
    runs = [Run(s, l) for s, l in pairs]
    want = {0}
    for r in runs:
        want = {w + x for w in want for x in range(r.start, r.end + 1)}
    got = run_sum(runs)
    assert want == set(range(got.start, got.end + 1))


# ------------------------------------------------------------------ subsets


def reference_subsets(k):
    # the doubling recursion: all subsets of [1, n], then {n+1}, then
    # {n+1} joined with each earlier subset
    if k == 0:
        return []
    prev = reference_subsets(k - 1)
    return prev + [(k,)] + [(k,) + j for j in prev]


def test_enumerate_examples():
    assert list(enumerate_subsets(2)) == [(1,), (2,), (2, 1)]
    k3 = list(enumerate_subsets(3))
    assert len(k3) == 7
    assert k3[3:] == [(3,), (3, 1), (3, 2), (3, 2, 1)]
    assert list(enumerate_subsets(0)) == []
    with pytest.raises(BudgetExceeded):
        list(enumerate_subsets(25))


@given(st.integers(0, 12))
def test_enumerate_matches_reference_recursion(k):
    got = list(enumerate_subsets(k))
    assert got == reference_subsets(k)
    assert len(got) == 2**k - 1
    assert len(set(got)) == len(got)


# ------------------------------------------------------------------ witnesses


def test_containment_examples():
    assert verify_containment(Run(178, 15), PolyRuns(2)) == 182
    assert verify_containment(ExplicitWindow(Window(0, 16), 0), PowRuns(4)) is None
    assert verify_containment(Run(64, 3), PowRuns(4)) is None


def test_containment_against_window_target():
    target = from_elems([3, 4, 5, 9, 10, 11], Window(0, 12))
    assert verify_containment(Run(3, 3), target) is None
    assert verify_containment(Run(3, 4), target) == 6
    # a window holds only its set bits: past its end is a gap
    assert verify_containment(Run(9, 5), target) == 12
    assert verify_containment(Run(8, 6), target) == 8


def test_containment_bitmap_claim():
    claim = from_elems([4, 16, 17], Window(0, 32))
    assert verify_containment(claim, PowRuns(4)) is None
    claim = from_elems([4, 15], Window(0, 32))
    assert verify_containment(claim, PowRuns(4)) == 15


@given(
    st.integers(1, 400),
    st.integers(1, 30),
    st.one_of(
        st.integers(2, 5).map(PowRuns),
        st.integers(2, 3).map(PolyRuns),
        st.tuples(st.integers(1, 9), st.integers(0, 8))
        .filter(lambda mr: mr[1] < mr[0])
        .map(lambda mr: Congruence(*mr)),
    ),
)
@settings(max_examples=80)
def test_containment_matches_membership_scan(start, length, target):
    claim = Run(start, length)
    missing = [x for x in range(start, claim.end + 1) if not target.member(x)]
    assert verify_containment(claim, target) == (missing[0] if missing else None)


# 40-cell windows, each spread m apart and shifted by r: the image of the
# window's set under x -> m*x + r, itself a window
windows = st.builds(
    lambda base, bits, m, r: ExplicitWindow(Window(base, 40), bits & ~(base == 0)).dilate(m, r),
    st.integers(0, 60),
    st.integers(0, (1 << 40) - 1),
    st.integers(1, 3),
    st.integers(0, 30),
)
symbolic = st.one_of(
    st.integers(2, 4).map(PowRuns),
    st.integers(2, 3).map(PolyRuns),
    st.integers(1, 4).map(lambda m: Congruence(m, m - 1)),
    st.just(Full()),
    st.lists(st.builds(Run, st.integers(1, 300), st.integers(1, 20)), max_size=8).map(RunList),
)


@given(symbolic, st.integers(1, 300), st.integers(1, 40))
@settings(max_examples=300)
def test_containment_decides_non_window_targets(target, start, length):
    claim = Run(start, length)
    missing = next((x for x in range(start, claim.end + 1) if not target.member(x)), None)
    assert verify_containment(claim, target) == missing


def test_translated_window_fails_past_its_end():
    # a window is exactly its set bits, so a shifted copy decides the
    # claim beyond the window too: the first position past it is a gap
    w = ExplicitWindow(Window(10, 8), (1 << 8) - 1)
    target = w.dilate(1, 5)
    assert target == ExplicitWindow(Window(15, 8), (1 << 8) - 1)
    assert verify_containment(Run(15, 8), target) is None
    assert verify_containment(Run(20, 6), target) == 23


def reference_bitmap_witness(claim, target):
    """The per-element witness: the first of the claim's elements, asked of
    member() in ascending order, that is not a member, or None."""
    return next((x for x in claim.elements() if not target.member(x)), None)


@st.composite
def bitmap_claims(draw):
    """A target and a bitmap claim: some of the target's members on the
    claim's window plus a few other cells.  Against a window target the
    claim's window starts anywhere from below the target's to past its
    end, so claims cross either edge, both, or lie wholly outside."""
    target = draw(st.one_of(symbolic, windows))
    if isinstance(target, ExplicitWindow):
        tw = target.window
        base = draw(st.integers(max(tw.base - 40, 0), tw.end + 5))
    else:
        base = draw(st.integers(0, 400))
    length = draw(st.integers(1, 120))
    have = sum(1 << off for off in range(length) if target.member(base + off))
    bits = have & draw(st.integers(0, (1 << length) - 1))
    for off in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        bits |= 1 << off
    if base == 0:
        bits &= ~1
    return ExplicitWindow(Window(base, length), bits), target


@given(bitmap_claims())
@settings(max_examples=400)
def test_bitmap_containment_matches_per_element_reference(case):
    claim, target = case
    assert verify_containment(claim, target) == reference_bitmap_witness(claim, target)


def test_bitmap_containment_examples():
    # target window [10, 19] holding 12..15; claims cross its edges
    target = from_elems([12, 13, 14, 15], Window(10, 10))
    cases = [
        (from_elems([12, 15], Window(10, 10)), None),
        (from_elems([13, 16, 18], Window(10, 10)), 16),
        (from_elems([3, 12, 25], Window(0, 30)), 3),
        (from_elems([3, 11, 25], Window(0, 30)), 3),
        (from_elems([20, 21], Window(20, 5)), 20),
        (ExplicitWindow(Window(0, 30), 0), None),
        (from_elems([1, 4], Window(0, 8)), 1),
        (from_elems([10, 12], Window(10, 4)), 10),
    ]
    for claim, want in cases:
        assert reference_bitmap_witness(claim, target) == want
        assert verify_containment(claim, target) == want
    # targets that are not windows
    claim = from_elems([4, 16, 17, 64, 66], Window(0, 100))
    for target, want in [
        (PowRuns(4), None),
        (Full(), None),
        (PolyRuns(3), 4),
        (Congruence(2, 0), 17),
        (PowRuns(3), 4),
        (RunList([Run(4, 1), Run(16, 51)]), None),
    ]:
        assert reference_bitmap_witness(claim, target) == want
        assert verify_containment(claim, target) == want


@st.composite
def one_set_cases(draw):
    """A window, then a run claim and a bitmap claim that start anywhere
    from 40 below the window to 40 past its end, so they cross either
    edge or lie outside it, and a base sequence of 1 to 4 runs whose first
    base lies from 20 below the window to just past it."""
    w = draw(shaped_windows(max_len=128))
    lo, hi = max(w.window.base - 40, 0), w.window.end + 40
    run = Run(draw(st.integers(max(lo, 1), hi)), draw(st.integers(1, 60)))
    base, length = draw(st.integers(lo, hi)), draw(st.integers(1, 120))
    have = w.materialize(Window(base, length)).bits
    bits = have & draw(st.integers(0, (1 << length) - 1))
    for off in draw(st.lists(st.integers(0, length - 1), max_size=2)):
        bits |= 1 << off
    claim = ExplicitWindow(Window(base, length), bits & ~(base == 0))
    ells = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    bs = [draw(st.integers(max(w.window.base - 20, 1), w.window.end + 5))]
    for ell in ells[:-1]:
        bs.append(bs[-1] + ell + draw(st.integers(0, 20)))
    return w, run, claim, from_entries(ells, bs)


TEN_TO_17 = ExplicitWindow(Window(10, 8), 0xFF)


@given(one_set_cases())
@example((TEN_TO_17, Run(15, 6), from_elems([12, 19], Window(10, 12)),
          from_entries((1, 1), (12, 13))))
@settings(max_examples=200)
def test_one_set_one_verdict(case):
    """A window, its run list and its dilation by 1 are one finite set, so
    each claim gets one witness: the smallest element that is not a set
    bit, else None."""
    w, run, claim, seq = case
    forms = [w, RunList(Run(s, e - s + 1) for s, e in zip(*w.run_bounds())), w.dilate(1)]
    for c, elements in ((run, range(run.start, run.end + 1)), (claim, claim.elements())):
        missing = next((x for x in elements if not w.member(x)), None)
        assert [verify_containment(c, a) for a in forms] == [missing] * 3
    payloads = [verify_b_sequence(seq, a).to_payload() for a in forms]
    assert payloads[1:] == payloads[:1] * 2
