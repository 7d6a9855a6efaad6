"""Builders and their verifiers: base sequences, families, reductions, escapes."""

import itertools
import json
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from banachsum import construct, intset
from banachsum.construct import (
    APReduction,
    BFamily,
    BSequence,
    SweepReport,
    _MemberWalk,
    ap_reduce,
    build_b_sequence,
    build_family,
    escape_i0,
    verify_b_sequence,
    verify_escape,
    verify_family,
)
from banachsum.errors import (
    BudgetExceeded,
    DisjointnessViolation,
    NoSuitableRun,
    PreconditionFailed,
)
from banachsum.intset import (
    Congruence,
    ExplicitWindow,
    Full,
    IntSet,
    PolyRuns,
    PowRuns,
    Run,
    RunList,
    Window,
    from_decimal,
    nth_root_floor,
    parse_set,
)
from banachsum.sumset import (
    SUBSET_BUDGET_MAX,
    Status,
    enumerate_subsets,
    pairwise_sumset,
    run_sum,
    verify_containment,
)
from oracles import family_sumset, from_entries
from strategies import shaped_windows

# ------------------------------------------------------------------ b-sequence


def test_build_examples():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1])
    assert seq.bs == (1, 9, 169)
    assert seq.certificates == (Run(1, 1), Run(9, 3), Run(169, 13))

    with pytest.raises(NoSuitableRun):
        build_b_sequence(Congruence(2, 1), [2, 2, 2])

    seq = build_b_sequence(Full(), [1, 1, 1])
    assert seq.bs == (1, 2, 3)


def test_build_respects_digit_budget():
    with pytest.raises(BudgetExceeded):
        build_b_sequence(PolyRuns(2), [1] * 10, digit_budget=10)
    # generous budget completes
    seq = build_b_sequence(PolyRuns(2), [1] * 10, digit_budget=100_000)
    assert seq.k == 10


def test_build_argument_validation():
    with pytest.raises(PreconditionFailed):
        build_b_sequence(Full(), [])
    with pytest.raises(PreconditionFailed):
        build_b_sequence(Full(), [1, 2], k=3)
    with pytest.raises(PreconditionFailed):
        build_b_sequence(Full(), [1, 0, 1])


def test_sequence_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BSequence((1, 1), (1,), (Run(1, 1),))
    with pytest.raises(ValueError):
        from_entries((1, 1), (1, 1))  # second base inside first run
    with pytest.raises(ValueError):
        BSequence((1,), (1,), (Run(2, 1),))  # certificate misses the base
    ok = from_entries((1, 1), (1, 2))
    assert ok.run(2) == Run(2, 1)


def test_payload_round_trip():
    seq = build_b_sequence(PolyRuns(2), [1, 2, 1], k=3)
    payload = seq.to_payload()
    assert payload["bs"] == [str(b) for b in seq.bs]
    assert set(payload) == {"ells", "bs", "certificates"}
    assert BSequence.from_payload(payload) == seq


def test_verify_all_subsets_pass():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1])
    report = verify_b_sequence(seq, PolyRuns(2))
    assert report.status is Status.PASS
    assert report.checked == 7


def test_verify_reports_smallest_witness():
    bad = from_entries((1, 1, 1), (1, 8, 169))
    report = verify_b_sequence(bad, PolyRuns(2))
    assert report.status is Status.FAIL
    assert report.witness == 8
    assert report.witness_subset == (2,)


def test_verify_window_target_is_finite():
    seq = build_b_sequence(Full(), [1, 1])
    # sums reach 3, and a window target holds only its set bits, 1 and 2
    target = Full().materialize(Window(0, 3))
    report = verify_b_sequence(seq, target)
    assert report.to_payload() == {
        "status": "Fail", "checked": 3, "witness": "3", "witness_subset": [2, 1]
    }


def reference_sweep(seq, a, k_limit=None, brute_span=10_000):
    """Report of the per-subset sweep: the sum of each subset's runs
    summed anew by run_sum, checked whole by verify_containment, then walked
    element by element with member()."""
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    checked = 0
    witness = witness_subset = None
    for subset in enumerate_subsets(k):
        s = run_sum([seq.run(j) for j in subset])
        v = verify_containment(s, a)
        checked += 1
        found = [] if v is None else [v]
        if s.length <= brute_span:
            found += [x for x in range(s.start, s.end + 1) if not a.member(x)][:1]
        for x in found:
            if witness is None or x < witness:
                witness, witness_subset = x, subset
    return SweepReport(checked, witness, witness_subset)


SWEEP_TARGETS = [
    Full(),
    Congruence(1, 0),
    Congruence(3, 1),
    PolyRuns(2),
    PowRuns(2),
    RunList([Run(1, 3), Run(5, 40), Run(47, 2), Run(52, 300)]),
    # isolated points: the odd numbers 3 to 401
    RunList(Run(x, 1) for x in range(3, 402, 2)),
    # windows that cut long sums short: each is the finite set of its bits
    Full().materialize(Window(3, 60)),
    RunList([Run(2, 30), Run(35, 100)]).materialize(Window(0, 90)),
    ExplicitWindow(Window(1, 80), (1 << 80) - 2),  # 2 to 80; the cell 1 is clear
    # every subset sum of bases 1, 10, 100 with unit runs, but a hole
    # inside the hull [100, 111] of the third run
    RunList([Run(1, 1), Run(10, 2), Run(100, 2), Run(110, 2)]),
]


@st.composite
def sweep_cases(draw):
    """A target with a sequence built on it, corrupted or not, or drawn at random."""
    a = draw(st.sampled_from(SWEEP_TARGETS))
    ells = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    seq = None
    if draw(st.booleans()):
        try:
            seq = build_b_sequence(a, ells)
        except (NoSuitableRun, BudgetExceeded):
            pass
    if seq is not None and draw(st.booleans()):
        # move one base down into the previous gap or up past its run
        j = draw(st.integers(0, seq.k - 1))
        floor = seq.bs[j - 1] + seq.ells[j - 1] if j else 1
        ceil = seq.bs[j + 1] - seq.ells[j] if j + 1 < seq.k else seq.bs[j] + 50
        bs = list(seq.bs)
        bs[j] = draw(st.integers(floor, max(floor, ceil)))
        seq = from_entries(seq.ells, tuple(bs))
    if seq is None:
        bs, nxt = [], 1
        for ell in ells:
            bs.append(nxt + draw(st.integers(0, 40)))
            nxt = bs[-1] + ell
        seq = from_entries(tuple(ells), tuple(bs))
    k_limit = draw(st.none() | st.integers(0, 7))
    brute_span = draw(st.sampled_from([0, 1, 3, 10_000]))
    return seq, a, k_limit, brute_span


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_per_subset_reference(case):
    seq, a, k_limit, brute_span = case
    got = verify_b_sequence(seq, a, k_limit, brute_span)
    assert got == reference_sweep(seq, a, k_limit, brute_span)


def test_sweep_matches_reference_past_the_int_str_limit():
    # sweep_cases can build this: base 3, of 9 870 digits, moved 7 up off
    # its run gives a witness longer than Python's default int/str limit,
    # so the sweeps compare as records, never as decimal text
    seq = build_b_sequence(PowRuns(2), [3, 4, 1])
    bad = from_entries(seq.ells, seq.bs[:2] + (seq.bs[2] + 7,))
    got = verify_b_sequence(bad, PowRuns(2))
    assert (got.witness.bit_length(), got.witness_subset) == (32785, (3, 2, 1))
    assert got == reference_sweep(bad, PowRuns(2))


def test_sweep_payload_past_the_int_str_limit():
    # to_payload writes the witness through intset's decimal codec, so a
    # library caller gets it under the interpreter's default limit
    seq = build_b_sequence(PowRuns(2), [3, 4, 1])
    bad = from_entries(seq.ells, seq.bs[:2] + (seq.bs[2] + 7,))
    report = verify_b_sequence(bad, PowRuns(2))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        payload = report.to_payload()
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(payload["witness"]) == 9869
    assert from_decimal(payload["witness"]) == report.witness
    assert payload["witness_subset"] == [3, 2, 1]


class MemberOnly(IntSet):
    """inner's members behind a run query that vouches for everything, so
    that only the brute route, which asks member(), can find a gap in a
    sum, and only member() and next_run() in a hull."""

    def __init__(self, inner):
        self.inner = inner

    def member(self, x):
        return self.inner.member(x)

    def next_run(self, min_len, lower_bound=0):
        return self.inner.next_run(min_len, lower_bound)

    def run_end_at(self, x):
        return None


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_brute_route_alone_matches_reference(case):
    seq, a, k_limit, brute_span = case
    a = MemberOnly(a)
    got = verify_b_sequence(seq, a, k_limit, brute_span)
    assert got == reference_sweep(seq, a, k_limit, brute_span)


class NextRunVouches(IntSet):
    """inner behind a next_run that vouches for every run from its lower
    bound: the mirror of MemberOnly."""

    def __init__(self, inner):
        self.inner = inner

    def member(self, x):
        return self.inner.member(x)

    def next_run(self, min_len, lower_bound=0):
        return Run(max(lower_bound, 1), min_len)

    def run_end_at(self, x):
        return self.inner.run_end_at(x)


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_lying_next_run_cannot_change_the_verdict(case):
    seq, a, k_limit, brute_span = case
    a = NextRunVouches(a)
    got = verify_b_sequence(seq, a, k_limit, brute_span)
    assert got == reference_sweep(seq, a, k_limit, brute_span)


class RunQueriesVouch(IntSet):
    """inner's members behind run queries that both vouch for everything."""

    def __init__(self, inner):
        self.inner = inner

    def member(self, x):
        return self.inner.member(x)

    def next_run(self, min_len, lower_bound=0):
        return Run(max(lower_bound, 1), min_len)

    def run_end_at(self, x):
        return None


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_member_walk_alone_decides_short_hulls(case):
    # with both run queries lying, a hull of at most brute_span integers
    # passes only on the member walk, which then finds what the per-subset
    # brute route finds
    seq, a, k_limit, _ = case
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    brute_span = 10_000
    # the top hull is the longest
    top = sum(seq.run(j).end for j in range(1, k + 1)) - (seq.bs[k - 1] if k else 0)
    assume(top < brute_span)
    a = RunQueriesVouch(a)
    got = verify_b_sequence(seq, a, k_limit, brute_span)
    assert got == reference_sweep(seq, a, k_limit, brute_span)


def test_hulls_are_sufficient_not_necessary(monkeypatch):
    # the hull [100, 111] of the third run holds the hole 102, yet all
    # seven subset sums 1, 10, 11, 100, 101, 110, 111 are members: the
    # failing hull hands the claim to the per-subset sweep
    seq = from_entries((1, 1, 1), (1, 10, 100))
    a = parse_set("elem 1\nrun 10 2\nrun 100 2\nrun 110 2")
    assert not construct._hulls_pass([seq.run(j) for j in (1, 2, 3)], a, 0)
    sweeps = []
    sweep = construct._sweep

    def counting(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(construct, "_sweep", counting)
    payload = {"status": "Pass", "checked": 7}
    assert reference_sweep(seq, a).to_payload() == payload
    assert verify_b_sequence(seq, a).to_payload() == payload
    assert len(sweeps) == 1
    fam = build_family(seq, 2, "residue")
    assert verify_family(fam, a) == reference_family(fam, a)
    assert len(sweeps) == 2


def test_brute_route_alone_finds_a_gap_just_past_a_walked_stretch():
    # run 3's sum [10, 12] is walked first; the sum of runs 3 and 1,
    # [11, 13], starts inside that stretch and ends on the gap at 13
    seq = from_entries((1, 2, 3), (1, 5, 10))
    a = MemberOnly(RunList([Run(1, 12), Run(15, 100)]))
    payload = {"status": "Fail", "checked": 7, "witness": "13", "witness_subset": [3, 1]}
    assert reference_sweep(seq, a).to_payload() == payload
    assert verify_b_sequence(seq, a).to_payload() == payload


def test_sweep_reference_examples():
    # sums of [1,1], [2,3], [4,6]: [1,1] [2,3] [3,4] [4,6] [5,7] [6,9] [7,10]
    seq = build_b_sequence(Full(), [1, 2, 3])
    assert seq.bs == (1, 2, 4)
    cut = RunList([Run(1, 12)]).materialize(Window(0, 6))
    cases = [
        (Full(), {"status": "Pass", "checked": 7}),
        (cut, {"status": "Fail", "checked": 7, "witness": "6", "witness_subset": [3]}),
        (Congruence(3, 1),
         {"status": "Fail", "checked": 7, "witness": "2", "witness_subset": [2]}),
    ]
    for a, payload in cases:
        assert reference_sweep(seq, a).to_payload() == payload
        assert verify_b_sequence(seq, a).to_payload() == payload


class Untouchable(IntSet):
    def member(self, x):
        raise AssertionError(f"asked about {x}")

    def next_run(self, min_len, lower_bound=0):
        raise AssertionError(f"asked about {lower_bound}")

    def run_end_at(self, x):
        raise AssertionError(f"asked about {x}")


class RunQueriesOnly(IntSet):
    """inner's run queries, counted, behind a member() that refuses."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def member(self, x):
        raise AssertionError(f"member({x}) asked")

    def next_run(self, min_len, lower_bound=0):
        self.queries += 1
        return self.inner.next_run(min_len, lower_bound)

    def run_end_at(self, x):
        self.queries += 1
        return self.inner.run_end_at(x)


def refuse_containment(claim, target):
    raise AssertionError(f"verify_containment({claim}) asked")


def test_sweep_budget_is_checked_before_any_query(monkeypatch):
    k = SUBSET_BUDGET_MAX + 1
    seq = from_entries((1,) * k, tuple(range(1, k + 1)))
    with pytest.raises(ValueError, match="k_limit must be >= 0"):
        verify_b_sequence(seq, Untouchable(), k_limit=-1)
    # the hulls [1, 20000] and [20001, 40001] pass, [20002, 60003] fails,
    # all too long for the member walk: the refusal of the 2**25 - 1
    # subsets follows a few run queries, and no member() or
    # verify_containment call
    monkeypatch.setattr(construct, "verify_containment", refuse_containment)
    long_first = from_entries((20000,) + (1,) * (k - 1),
                                        (1,) + tuple(range(20001, 20000 + k)))
    a = RunQueriesOnly(RunList([Run(1, 40005)]))
    with pytest.raises(BudgetExceeded):
        verify_b_sequence(long_first, a)
    assert 0 < a.queries <= k
    assert verify_b_sequence(seq, Full(), k_limit=3).checked == 7


class CountingRuns(RunList):
    def __init__(self, runs):
        super().__init__(runs)
        self.asked = []

    def member(self, x):
        self.asked.append(x)
        return super().member(x)


def test_member_walk_examples():
    target = CountingRuns([Run(1, 3), Run(5, 6)])
    walk = _MemberWalk(target)
    assert walk.first_gap(2, 8) == 4
    assert walk.first_gap(5, 9) is None
    # members 2..3 and 5..9 are known but not joined across the gap at 4
    assert walk.first_gap(1, 9) == 4
    assert walk.first_gap(6, 12) == 11
    assert sorted(target.asked) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 30)), max_size=8),
    st.lists(st.tuples(st.integers(1, 150), st.integers(1, 40)), max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_member_walk_asks_each_integer_once(runs, intervals):
    # runs separated by gaps of 1 to 6 non-members
    starts, pos = [], 0
    for gap, n in runs:
        starts.append(pos + gap)
        pos += gap + n
    target = CountingRuns(Run(s, n) for s, (_, n) in zip(starts, runs))
    walk = _MemberWalk(target)
    for lo, span in intervals:
        hi = lo + span
        want = next((x for x in range(lo, hi + 1) if not RunList.member(target, x)), None)
        assert walk.first_gap(lo, hi) == want
    assert len(target.asked) == len(set(target.asked))
    # a one-integer interval is asked every time and never recorded
    target.asked.clear()
    walk.first_gap(1, 1)
    walk.first_gap(1, 1)
    assert target.asked == [1, 1]


@given(
    st.sampled_from([PolyRuns(2), PolyRuns(3), PowRuns(2), Full()]),
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_greedy_choices_are_minimal(a, ells):
    try:
        seq = build_b_sequence(a, ells)
    except BudgetExceeded:
        return  # the doubling generator outgrows any budget within a few steps
    acc = 0
    for j, (b, ell) in enumerate(zip(seq.bs, seq.ells), 1):
        need = ell + acc
        lb = seq.bs[j - 2] + seq.ells[j - 2] if j >= 2 else 0
        scan_from = max(lb, 1)
        if b - scan_from <= 2000:
            for b2 in range(scan_from, b):
                assert any(not a.member(b2 + i) for i in range(need))
        assert a.first_gap(b, b + need - 1) is None
        for x in range(b, b + min(need, 2000)):
            assert a.member(x)
        acc += b + ell


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_subset_sums_stay_inside_step_certificates(ells, pick):
    targets = [PolyRuns(2), PolyRuns(3), PowRuns(2), Full()]
    a = targets[pick]
    try:
        seq = build_b_sequence(a, ells)
    except BudgetExceeded:
        return
    for subset in enumerate_subsets(seq.k):
        s = run_sum([seq.run(j) for j in subset])
        top = max(subset)
        assert s.start >= seq.bs[top - 1]
        assert s.end <= sum(seq.bs[i] + seq.ells[i] for i in range(top)) - 1
        cert = seq.certificates[top - 1]
        assert cert.start <= s.start and s.end <= cert.end


# ------------------------------------------------------------------ families


def test_family_split_examples():
    seq = from_entries((1, 1, 1, 1), (1, 2, 3, 4))
    fam = build_family(seq, 2, "residue")
    assert fam.index_sets == ((1, 3), (2, 4))
    assert fam.sets == (RunList([Run(1, 1), Run(3, 1)]), RunList([Run(2, 1), Run(4, 1)]))

    whole = build_family(seq, 1, "residue")
    assert whole.index_sets == ((1, 2, 3, 4),)

    blocks = build_family(seq, 3, "blocks")
    assert blocks.index_sets == ((1, 2), (3,), (4,))


def test_family_requires_sane_count():
    seq = from_entries((1, 1), (1, 2))
    with pytest.raises(PreconditionFailed):
        build_family(seq, 3)
    with pytest.raises(PreconditionFailed):
        build_family(seq, 0)
    with pytest.raises(ValueError):
        build_family(seq, 2, "zigzag")


def with_sets(fam, sets):
    """fam with its component sets replaced, index sets and source kept."""
    return BFamily(fam.k_sets, fam.index_sets, sets, fam.source)


def test_family_verification_passes():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1, 1], k=4)
    for k_sets in (1, 2, 3, 4):
        for scheme in ("residue", "blocks"):
            fam = build_family(seq, k_sets, scheme)
            report = verify_family(fam, PolyRuns(2))
            assert report.status is Status.PASS, (k_sets, scheme)


def test_family_disjointness_violation_fires():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1], k=3)
    fam = build_family(seq, 2, "residue")
    starts, ends = fam.sets[1].run_bounds()
    runs = [Run(1, 2), *(Run(s, e - s + 1) for s, e in zip(starts, ends))]
    corrupted = with_sets(fam, (fam.sets[0], RunList(runs)))
    with pytest.raises(DisjointnessViolation) as exc:
        verify_family(corrupted, PolyRuns(2))
    assert str(exc.value) == "component 1 run [1, 1] overlaps component 2 run [1, 2]"


def test_family_selection_budget():
    k = SUBSET_BUDGET_MAX + 1
    seq = build_b_sequence(Full(), [1] * k, k=k)
    fam = build_family(seq, k, "residue")
    with pytest.raises(BudgetExceeded):
        verify_family(fam, Full())


def test_family_pick_budget_is_checked_before_any_query(monkeypatch):
    # the hulls of bases 1, 2, 3, ... end at 1, 3, 6, ...: the target's
    # run [1, 5] passes two and fails the third, so the picks would go to
    # the sweep, which refuses them after a few run queries, with no
    # member() or verify_containment call
    monkeypatch.setattr(construct, "verify_containment", refuse_containment)
    # 20 components of two runs each: 3**20 - 1 picks
    seq = from_entries((1,) * 40, tuple(range(1, 41)))
    a = RunQueriesOnly(RunList([Run(1, 5)]))
    with pytest.raises(BudgetExceeded):
        verify_family(build_family(seq, 20, "residue"), a)
    assert 0 < a.queries <= seq.k
    # component sizes 96, 256 and 672 give 97 * 257 * 673 - 1 = 2**24
    # picks, one over the budget
    seq = from_entries((1,) * 1024, tuple(range(1, 1025)))
    cuts = (0, 96, 352, 1024)
    index_sets = tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(cuts, cuts[1:]))
    sets = tuple(RunList(seq.run(j) for j in ix) for ix in index_sets)
    a = RunQueriesOnly(RunList([Run(1, 5)]))
    with pytest.raises(BudgetExceeded):
        verify_family(BFamily(3, index_sets, sets, seq), a)
    assert 0 < a.queries <= seq.k
    # more components than the bitmap route's selection budget are refused
    # before the target is asked anything
    seq = from_entries((1,) * 25, tuple(range(1, 26)))
    with pytest.raises(BudgetExceeded):
        verify_family(build_family(seq, 25, "residue"), Untouchable())


class CountingRunEnds(IntSet):
    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def member(self, x):
        return self.inner.member(x)

    def next_run(self, min_len, lower_bound=0):
        return self.inner.next_run(min_len, lower_bound)

    def run_end_at(self, x):
        self.asked.append(x)
        return self.inner.run_end_at(x)


def test_valid_sweeps_look_up_each_run_once(monkeypatch):
    # the hull of each run of a valid sequence lies inside the target's run
    # through its start, so verify and family both look up each run once
    seq = build_b_sequence(PolyRuns(2), [1, 2, 1, 3, 1, 2])
    a = CountingRunEnds(PolyRuns(2))
    assert verify_b_sequence(seq, a, brute_span=0).passed
    assert a.asked == list(seq.bs)
    a.asked.clear()
    assert verify_family(build_family(seq, 2, "blocks"), a, brute_span=0).passed
    assert a.asked == list(seq.bs)
    # with brute_span=0 not one member() call: the 65 535 subsets of a
    # valid PolyRuns(2) k=16 sequence pass on 16 run_end_at calls
    seq = build_b_sequence(PolyRuns(2), [1] * 16)
    monkeypatch.setattr(PolyRuns, "member", refuse_member)
    a = CountingRunEnds(PolyRuns(2))
    assert verify_b_sequence(seq, a, brute_span=0).to_payload() == {
        "status": "Pass", "checked": 2**16 - 1}
    assert a.asked == list(seq.bs)


@pytest.mark.parametrize("k", [13, 16])
def test_poly2_sweep_extracts_one_root_per_run(monkeypatch, k):
    """A fresh PolyRuns(2) remembers the bracket of the run it last met,
    so the whole check, the member walk of the short hulls included,
    takes one root per base.
    Past k roots the counter raises at once, instead of letting a
    root-per-query sweep run to its end."""
    seq = build_b_sequence(PolyRuns(2), [1] * k)
    roots = []

    def counting(x, p):
        roots.append(x)
        assert len(roots) <= k, "more than one root per run"
        return nth_root_floor(x, p)

    monkeypatch.setattr(intset, "nth_root_floor", counting)
    assert verify_b_sequence(seq, PolyRuns(2)).passed
    assert len(roots) == k


def reference_family(family, a, brute_span=2048):
    """Report of the per-selection family check: every pick of one source
    run per selected component summed anew by run_sum and checked whole by
    verify_containment, then the selection's component bitmaps summed and
    checked."""
    checked = 0
    witness = witness_subset = None
    parts = [rl.materialize(Window(0, brute_span + 1)) for rl in family.sets]
    for sel in enumerate_subsets(family.k_sets):
        found = []
        for combo in itertools.product(*(family.index_sets[i - 1] for i in sel)):
            v = verify_containment(run_sum([family.source.run(j) for j in combo]), a)
            checked += 1
            if v is not None:
                found.append(v)
        if all(parts[i - 1].bits for i in sel):
            v = verify_containment(family_sumset(parts, sel, brute_span), a)
            if v is not None:
                found.append(v)
        for x in found:
            if witness is None or x < witness:
                witness, witness_subset = x, sel
    return SweepReport(checked, witness, witness_subset)


@st.composite
def family_cases(draw):
    """A family on a sweep case's sequence, with its component sets
    replaced by other disjoint runs or not."""
    seq, a, _, _ = draw(sweep_cases())
    fam = build_family(
        seq, draw(st.integers(1, seq.k)), draw(st.sampled_from(["residue", "blocks"]))
    )
    if draw(st.booleans()):
        runs, pos = [], 0
        for gap, n in draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 20)))):
            runs.append(Run(pos + gap, n))
            pos += gap + n
        owner = draw(st.lists(st.integers(0, fam.k_sets - 1), min_size=len(runs),
                              max_size=len(runs)))
        sets = tuple(RunList(r for r, o in zip(runs, owner) if o == i)
                     for i in range(fam.k_sets))
        fam = with_sets(fam, sets)
    return fam, a, draw(st.sampled_from([0, 5, 64, 2048]))


@given(family_cases())
@settings(max_examples=300, deadline=None)
def test_family_matches_per_selection_reference(case):
    fam, a, brute_span = case
    got = verify_family(fam, a, brute_span)
    assert got == reference_family(fam, a, brute_span)


def test_family_fail_reports_lowest_selection_of_smallest_witness():
    # runs [1,10] [12,20] [21,21] [22,25]; components {1, 3} and {2, 4}.
    # The only hole, 22, lies in run 1 + run 2 (selection (2, 1)) and in
    # run 4 (selection (2,)); the sweep meets the pair first, but (2,)
    # comes first in enumerate_subsets order, so (2,) is reported.
    seq = from_entries((10, 9, 1, 4), (1, 12, 21, 22))
    fam = build_family(seq, 2, "residue")
    a = RunList([Run(1, 21), Run(23, 1000)])
    payload = {"status": "Fail", "checked": 8, "witness": "22", "witness_subset": [2]}
    for brute_span in (0, 2048):
        assert reference_family(fam, a, brute_span).to_payload() == payload
        assert verify_family(fam, a, brute_span).to_payload() == payload


def test_family_bitmap_route_sums_each_selection_once(monkeypatch):
    # one pairwise_sumset per selection of two or more nonempty components:
    # 2**5 - 1 - 5 = 26, and with one component emptied 2**4 - 1 - 4 = 11
    calls = []

    def counting(b, c, cap):
        calls.append(cap)
        return pairwise_sumset(b, c, cap)

    monkeypatch.setattr(construct, "pairwise_sumset", counting)
    fam = build_family(build_b_sequence(Full(), [1] * 10), 5, "residue")
    assert verify_family(fam, Full(), 64).passed
    assert len(calls) == 26
    calls.clear()
    fam = with_sets(fam, fam.sets[:2] + (RunList(()),) + fam.sets[3:])
    assert verify_family(fam, Full(), 64).passed
    assert len(calls) == 11


@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=5),
    st.integers(1, 3),
    st.sampled_from(["residue", "blocks"]),
    st.sampled_from([PolyRuns(2), PowRuns(2), Full()]),
)
@settings(max_examples=30, deadline=None)
def test_family_pass_follows_from_sequence_pass(ells, k_sets, scheme, a):
    try:
        seq = build_b_sequence(a, ells)
    except BudgetExceeded:
        return
    if k_sets > seq.k:
        k_sets = seq.k
    seq_report = verify_b_sequence(seq, a)
    fam_report = verify_family(build_family(seq, k_sets, scheme), a)
    if seq_report.status is Status.PASS:
        assert fam_report.status is Status.PASS


# ------------------------------------------------------------------ reduction


def window_of(elems, base, length):
    return RunList(Run(x, 1) for x in elems).materialize(Window(base, length))


def test_reduce_recovers_planted_progression():
    planted = [7 * k + 3 for k in range(1, 1001)]
    w = window_of(planted, 0, 7011)
    red = ap_reduce(w, 10)
    assert (red.m, red.r) == (7, 3)
    assert sorted(red.derived.elements()) == list(range(1, 1001))
    assert red.evidence_len == 1000


def test_reduce_on_even_numbers():
    w = Congruence(2, 0).materialize(Window(0, 1000))
    red = ap_reduce(w, 3)
    assert (red.m, red.r) == (2, 0)
    assert sorted(red.derived.elements()) == list(range(1, 500))


def test_reduce_on_full_window():
    w = Full().materialize(Window(0, 64))
    red = ap_reduce(w, 5)
    assert (red.m, red.r) == (1, 0)
    assert sorted(red.derived.elements()) == list(range(1, 64))


def test_reduce_window_does_not_grow_with_the_base():
    N = 64
    w = Full().materialize(Window(10**8, N))
    red = ap_reduce(w, 1)
    assert (red.m, red.r) == (1, 0)
    assert red.derived.window.length <= N // red.m + 1
    assert red.to_payload()["derived_set"] == f"run {10**8} {N}\n"


def test_reduce_rejects_empty_window():
    with pytest.raises(PreconditionFailed):
        ap_reduce(ExplicitWindow(Window(0, 16), 0), 3)
    with pytest.raises(ValueError):
        ap_reduce(Full().materialize(Window(0, 16)), 0)


@st.composite
def random_windows(draw):
    base = draw(st.integers(0, 20))
    length = draw(st.integers(4, 160))
    bits = draw(st.integers(1, (1 << length) - 1))
    if base == 0:
        bits &= ~1
    if bits == 0:
        bits = 1 << (length - 1)
        if base == 0 and length == 1:
            bits = 0
    return ExplicitWindow(Window(base, length), bits)


@given(random_windows(), st.integers(1, 8))
@settings(max_examples=60)
def test_reduce_dilates_back_inside(w, m_max):
    if w.bits == 0:
        return
    red = ap_reduce(w, m_max)
    pulled = red.derived.dilate(red.m, red.r)
    for x in pulled.elements():
        assert w.member(x)
    # and the derived set is exactly the pulled-back members
    members = [x for x in w.elements() if x % red.m == red.r and (x - red.r) // red.m >= 1]
    assert sorted(pulled.elements()) == members


def reference_ap_reduce(w, m_max):
    """ap_reduce by one Python loop per residue class and cell: the longest
    streak of every class, ties to the smallest m, then the smallest r."""
    if m_max < 1:
        raise ValueError(f"difference bound must be >= 1, got {m_max}")
    if w.bits == 0:
        raise PreconditionFailed("window has no members to reduce")
    base, end = w.window.base, w.window.end
    N = w.window.length
    raw = w.bits.to_bytes((N + 7) // 8, "little")
    mem = bytearray(N)
    for idx in range(N):
        mem[idx] = (raw[idx >> 3] >> (idx & 7)) & 1
    best_len, best_m, best_r = 0, 0, 0
    for m in range(1, m_max + 1):
        for r in range(m):
            first = base + (r - base) % m
            streak = longest = 0
            for x in range(first - base, N, m):
                if mem[x]:
                    streak += 1
                    if streak > longest:
                        longest = streak
                else:
                    streak = 0
            if longest > best_len:
                best_len, best_m, best_r = longest, m, r
    m, r = best_m, best_r
    q_max = (end - r) // m
    derived_bits = 0
    first = base + (r - base) % m
    q_lo = max((first - r) // m, 1)
    for x in range(first, end + 1, m):
        q = (x - r) // m
        if q >= 1 and mem[x - base]:
            derived_bits |= 1 << (q - q_lo)
    derived = ExplicitWindow(Window(q_lo, q_max - q_lo + 1), derived_bits)
    return APReduction(m, r, derived, best_len)


@given(shaped_windows(), st.sampled_from([1, 2, 10]))
@settings(max_examples=150, deadline=None)
def test_reduce_matches_per_residue_reference(w, m_max):
    if w.bits == 0:
        with pytest.raises(PreconditionFailed):
            ap_reduce(w, m_max)
        return
    got, want = ap_reduce(w, m_max), reference_ap_reduce(w, m_max)
    assert json.dumps(got.to_payload()) == json.dumps(want.to_payload())
    assert got.derived.window == want.derived.window
    assert got.derived.bits == want.derived.bits


def every_m_choice(w, m_max):
    """(evidence_len, m, r) of ap_reduce's search run through every m up to
    m_max, with no stop: one _streak per difference."""
    N, best = w.window.length, (0, 0, 0)
    for m in range(1, m_max + 1):
        longest, starts = intset._streak(w.bits, m)
        if longest > best[0]:
            comb = intset._comb(m, (N - 1) // m + 1)
            r = next(x for x in range(m) if starts & (comb << (x - w.window.base) % m))
            best = (longest, m, r)
    return best


@given(shaped_windows(max_len=256), st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_stop_keeps_the_every_m_choice(w, data):
    assume(w.bits)
    m_max = data.draw(st.integers(1, w.window.length + 7))
    red = ap_reduce(w, m_max)
    assert (red.evidence_len, red.m, red.r) == every_m_choice(w, m_max)


def test_reduce_stops_by_the_window_length(monkeypatch):
    N = 512
    windows = [
        ExplicitWindow(Window(0, N), 1 << 200),
        ExplicitWindow(Window(7, N), 1 | 1 << (N - 1)),
        PolyRuns(2).materialize(Window(1000, N)),
        Congruence(5, 2).materialize(Window(3, N)),
    ]
    calls = []

    def counted(bits, m):
        calls.append(m)
        return intset._streak(bits, m)

    monkeypatch.setattr(construct, "_streak", counted)
    for w in windows:
        calls.clear()
        far = ap_reduce(w, 10**9)
        assert len(calls) <= N
        assert far.to_payload() == ap_reduce(w, N).to_payload()


# ------------------------------------------------------------------ escape


def test_escape_threshold_examples():
    assert escape_i0(0) == 1
    assert escape_i0(3) == 2
    assert escape_i0(100) == 4
    with pytest.raises(ValueError):
        escape_i0(-1)


def escape_i0_by_steps(t):
    """The smallest i >= 1 with 4**i - i > t, trying every i from 1 up."""
    i = 1
    while (1 << 2 * i) - i <= t:
        i += 1
    return i


# the shifts on both sides of the step at i: 4**i - i - 1, 4**i - i, 4**i - i + 1
boundaries = st.builds(lambda i, d: (1 << 2 * i) - i + d, st.integers(1, 4000), st.integers(-1, 1))


@given(boundaries | st.integers(0, 10**3000))
@example((1 << 2 * 166_096) - 166_096)  # a shift of 100 000 digits
@settings(deadline=None)
def test_escape_i0_matches_the_stepping_loop(t):
    assert escape_i0(t) == escape_i0_by_steps(t)


def test_escape_reports():
    report = verify_escape(0, 10)
    assert report.i0 == 1 and report.checked == 10 and report.all_escaped
    report = verify_escape(5, 30)
    assert report.i0 == 2 and report.all_escaped
    assert all(c.chain_ok and c.doubles_outside for c in report.checks)
    with pytest.raises(PreconditionFailed):
        verify_escape(5, 1)


def test_escape_doubles_really_leave_translates():
    gen = PowRuns(4)
    rng = random.Random(7)
    for t in (0, 1, 5, 17):
        i0 = escape_i0(t)
        for i in range(i0, i0 + 20):
            b = 4**i + rng.randrange(i)  # any element of the i-th run
            assert not gen.member(2 * b - t)
            assert not gen.member(2 * b + t)


def reference_doubles_outside(t, i):
    """Rung i's doubles_outside from member() alone: every double 2b of
    the run [4**i, 4**i + i - 1] asked at 2b - t and at 2b + t."""
    gen = PowRuns(4)
    p = 4**i
    return all(
        not gen.member(2 * b - t) and not gen.member(2 * b + t)
        for b in range(p, p + i)
    )


def reference_escape(t, i_max):
    """verify_escape's payload with every rung's doubles asked one by one."""
    i0 = escape_i0(t)
    checks = []
    for i in range(i0, i_max + 1):
        p = 4**i
        checks.append({
            "i": i,
            "below_double": p + i + t < 2 * p,
            "doubles_outside": reference_doubles_outside(t, i),
        })
    return {
        "t": t,
        "i0": i0,
        "checked": len(checks),
        "all_escaped": all(all(c.values()) for c in checks),
        "checks": checks,
    }


@given(st.integers(0, 10**7), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_escape_matches_per_element_reference(t, extra):
    i_max = escape_i0(t) + extra
    assert verify_escape(t, i_max).to_payload() == reference_escape(t, i_max)


def test_escape_rungs_state_one_fact_per_route():
    """A rung holds its index, the chain's one inequality 4**i - i > t and
    the bitmap route's answer, and nothing that restates them."""
    for t in range(0, 301):
        for c in verify_escape(t, escape_i0(t) + 3).to_payload()["checks"]:
            assert set(c) == {"i", "below_double", "doubles_outside"}, (t, c)
            assert c["below_double"] == (4 ** c["i"] - c["i"] > t), (t, c)


def test_escape_rungs_below_threshold_match_reference():
    # below i0(t) a double can land in a shift: run 1 is [4, 4], and
    # 8 - 4 = 4 and 8 + 8 = 16 are members; for t > 2 * 4**i the lower
    # shift's window starts below 0
    gen = PowRuns(4)
    assert construct._escape_check(gen, 4, 1).doubles_outside is False
    assert construct._escape_check(gen, 8, 1).doubles_outside is False
    landed = 0
    for t in range(0, 300):
        for i in range(1, escape_i0(t) + 2):
            got = construct._escape_check(gen, t, i).doubles_outside
            assert got == reference_doubles_outside(t, i), (t, i)
            landed += not got
    assert landed > 20


def test_escape_rungs_with_shifts_past_the_doubles_match_reference():
    # t near 2 * 4**i pushes the lower shift's window partly below 0,
    # where window and comb lose their first cells
    gen = PowRuns(4)
    for i in range(1, 13):
        for t in range(2 * 4**i - 2 * i, 2 * 4**i + 2 * i + 1):
            got = construct._escape_check(gen, t, i).doubles_outside
            assert got == reference_doubles_outside(t, i), (t, i)


def refuse_member(self, x):
    raise AssertionError(f"member({x}) asked")


def test_escape_rung_budget_is_checked_before_any_rung(monkeypatch):
    def refuse_rung(gen, t, i):
        raise AssertionError(f"rung {i} checked")

    monkeypatch.setattr(construct, "_escape_check", refuse_rung)
    with pytest.raises(BudgetExceeded):
        verify_escape(5, construct.ESCAPE_I_MAX_BUDGET + 1)
    # at the budget itself the rungs are checked
    with pytest.raises(AssertionError, match="rung 2 checked"):
        verify_escape(5, construct.ESCAPE_I_MAX_BUDGET)


def test_escape_asks_no_member_question(monkeypatch):
    """Each rung is one AND per shift against PowRuns(4)'s bitmap: not
    one member() call for any of the 2i doubles of any rung."""
    monkeypatch.setattr(PowRuns, "member", refuse_member)
    report = verify_escape(404645, 400)
    assert (report.i0, report.checked, report.all_escaped) == (10, 391, True)


@pytest.mark.parametrize("scheme", ["residue", "blocks"])
def test_family_materializes_a_full_target_once(monkeypatch, scheme):
    """The bitmap route checks every selection against one bitmap of the
    target on [0, brute_span]: one materialize, no member() call."""
    fam = build_family(build_b_sequence(Full(), [1] * 9), 3, scheme)
    windows = []
    materialize = Full.materialize

    def counting(self, window):
        windows.append(window)
        return materialize(self, window)

    monkeypatch.setattr(Full, "materialize", counting)
    monkeypatch.setattr(Full, "member", refuse_member)
    assert verify_family(fam, Full(), 64).passed
    assert windows == [Window(0, 65)]


@pytest.mark.parametrize("target, bs, want", [
    (Congruence(3, 0), (3, 6, 12), SweepReport(7)),
    (Congruence(3, 1), (1, 4), SweepReport(3, 5, (2, 1))),
])
def test_run_route_asks_a_congruence_target_no_member_question(monkeypatch, target, bs, want):
    """With brute_span 0 only the run route decides: run_end_at, next_run
    and first_gap answer from the residue, not through member(), so the two
    routes stay independent on a congruence target of modulus >= 2."""
    seq = from_entries((1,) * len(bs), bs)
    monkeypatch.setattr(Congruence, "member", refuse_member)
    assert verify_b_sequence(seq, target, brute_span=0) == want


def test_full_sweep_skips_walked_stretches(monkeypatch):
    """A brute-route sum inside a stretch of members already walked is
    passed by _sweep itself: of the 65 535 picks of a Full k=16 sweep,
    only a few hundred reach first_gap.  verify_b_sequence would pass this
    valid sequence on its hulls, so the sweep is run directly."""
    seq = build_b_sequence(Full(), list(range(1, 17)))
    calls = []
    first_gap = _MemberWalk.first_gap

    def counting(self, lo, hi):
        calls.append((lo, hi))
        return first_gap(self, lo, hi)

    monkeypatch.setattr(_MemberWalk, "first_gap", counting)
    state = construct._SweepState()
    construct._sweep([[seq.run(j)] for j in range(1, 17)], Full(), 10_000, state)
    report = state.report()
    assert report.passed and report.checked == 65535
    assert 16 < len(calls) < 1000


@given(st.integers(0, 10**9))
def test_escape_threshold_is_minimal(t):
    i0 = escape_i0(t)
    assert 4**i0 - i0 > t
    if i0 > 1:
        assert 4 ** (i0 - 1) - (i0 - 1) <= t


def test_payloads_have_expected_keys():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1])
    fam = build_family(seq, 2)
    assert set(fam.to_payload()) == {"k_sets", "index_sets", "sets"}
    report = verify_family(fam, PolyRuns(2))
    assert report.to_payload() == {"status": "Pass", "checked": report.checked}

    red = ap_reduce(Full().materialize(Window(0, 8)), 2)
    payload = red.to_payload()
    assert payload["derived_set"] == "run 1 7\n"

    esc = verify_escape(0, 3).to_payload()
    assert [c["i"] for c in esc["checks"]] == [1, 2, 3]
    assert all(c["below_double"] and c["doubles_outside"] for c in esc["checks"])
