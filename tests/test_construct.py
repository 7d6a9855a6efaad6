"""Builders and their verifiers: base sequences, families, reductions, escapes."""

import itertools
import json
import random
import sys
import tracemalloc
from math import prod

import pytest
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st

from banachsum import construct, intset
from banachsum.construct import (
    APReduction,
    BFamily,
    BSequence,
    SweepReport,
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
    enumerate_subsets,
    pairwise_sumset,
    run_sum,
    subset_of,
    verify_containment,
)
from oracles import family_sumset, from_entries
from strategies import shaped_windows

# ------------------------------------------------------------------ b-sequence


def test_build_examples():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1])
    assert seq.bs == (1, 9, 169)
    assert list(seq.certificates()) == [Run(1, 1), Run(9, 3), Run(169, 13)]

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
        BSequence((1, 1), (1,))
    with pytest.raises(ValueError):
        from_entries((1, 1), (1, 1))  # second base inside first run
    with pytest.raises(ValueError, match=r"certificate at step 1 must cover \[1, 1\]"):
        # the certificate misses the base
        BSequence.from_payload(
            {"ells": [1], "bs": ["1"], "certificates": [{"start": "2", "len": 1}]}
        )
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
    assert report.passed
    assert report.checked == 7


def test_verify_reports_smallest_witness():
    bad = from_entries((1, 1, 1), (1, 8, 169))
    report = verify_b_sequence(bad, PolyRuns(2))
    assert not report.passed
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
    summed anew by run_sum and checked whole by verify_containment, then
    the cells of that sum up to brute_span asked one by one by member()."""
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    checked = 0
    witness = witness_subset = None
    for subset in enumerate_subsets(k):
        s = run_sum([seq.run(j) for j in subset])
        v = verify_containment(s, a)
        checked += 1
        found = [] if v is None else [v]
        cells = range(s.start, min(s.end, brute_span) + 1)
        found += [x for x in cells if not a.member(x)][:1]
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
    """inner's members behind a run query that vouches for everything: a
    lying target, whose run queries and member-built bitmap disagree."""

    def __init__(self, inner):
        self.inner = inner

    def member(self, x):
        return self.inner.member(x)

    def next_run(self, min_len, lower_bound=0):
        return self.inner.next_run(min_len, lower_bound)

    def run_end_at(self, x):
        return None


def fold_hole_of_sweep(seq, a, k_limit, brute_span):
    """_fold_hole alone over the runs verify_b_sequence folds."""
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    sets = [RunList([seq.run(j)]) for j in range(1, k + 1) if seq.bs[j - 1] <= brute_span]
    return construct._fold_hole(sets, a, brute_span)


def in_window(witness, brute_span):
    """witness when it lies in [0, brute_span], else None."""
    return witness if witness is not None and witness <= brute_span else None


@given(sweep_cases())
@settings(max_examples=300, deadline=None)
def test_fold_alone_finds_the_witness_in_its_window(case):
    seq, a, k_limit, brute_span = case
    want = reference_sweep(seq, a, k_limit, brute_span).witness
    assert fold_hole_of_sweep(seq, a, k_limit, brute_span) == in_window(want, brute_span)


class NextRunVouches(IntSet):
    """inner behind a next_run that vouches for every run from its lower
    bound.  The verifiers ask next_run nothing, so it cannot matter."""

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


def test_hulls_are_sufficient_not_necessary():
    # the hull [100, 111] of the third run holds the hole 102, yet all
    # seven subset sums 1, 10, 11, 100, 101, 110, 111 are members: the
    # search descends below that node, whose picks with and without run 2
    # sum inside [100, 101] and [110, 111], and passes both
    seq = from_entries((1, 1, 1), (1, 10, 100))
    a = CountingRunEnds(parse_set("elem 1\nrun 10 2\nrun 100 2\nrun 110 2"))
    payload = {"status": "Pass", "checked": 7}
    assert reference_sweep(seq, a).to_payload() == payload
    a.asked.clear()
    assert verify_b_sequence(seq, a, brute_span=0).to_payload() == payload
    # the hulls [1, 1], [10, 11] and [100, 111], the last failing; then the
    # search: its root and the picks without run 3 start at 1, then run 2's
    # node, run 3's, and the two nodes below it
    assert a.asked == [1, 10, 100, 1, 1, 1, 10, 100, 100, 110]
    fam = build_family(seq, 2, "residue")
    assert verify_family(fam, a) == reference_family(fam, a)


def test_a_lying_target_raises_in_both_verifiers():
    # the sum of runs 3 and 1, [11, 13], ends on the gap at 13, which the
    # fold finds in the member-built bitmap; the run query vouches for it,
    # so the search passes: the routes disagree, and that is no verdict
    seq = from_entries((1, 2, 3), (1, 5, 10))
    a = MemberOnly(RunList([Run(1, 12), Run(15, 100)]))
    assert reference_sweep(seq, a).witness == 13
    with pytest.raises(AssertionError, match=r"witness is none but .* \[0, 10000\] is 13$"):
        verify_b_sequence(seq, a)
    with pytest.raises(AssertionError, match=r"witness is none but .* \[0, 2048\] is 13$"):
        verify_family(build_family(seq, 3), a)


def grow_one_high(below, part, cap):
    """construct._grow with every sum of part and below one cell high."""
    grown = pairwise_sumset(part, below, cap).bits << 1 & (1 << cap + 1) - 1
    return ExplicitWindow(below.window, below.bits | part.bits | grown)


def test_a_faulty_fold_raises_instead_of_failing_a_passing_claim(monkeypatch):
    # all 7 subset sums of bases 1, 10, 100 are members; a fold that puts
    # 1 + 10 at 12 finds a hole there, which the search does not, so both
    # verifiers raise where a report of witness 12 used to be printed
    seq = from_entries((1, 1, 1), (1, 10, 100))
    a = parse_set("elem 1\nrun 10 2\nrun 100 2\nrun 110 2")
    assert verify_b_sequence(seq, a).passed
    monkeypatch.setattr(construct, "_grow", grow_one_high)
    with pytest.raises(AssertionError, match="witness is none but .* is 12$"):
        verify_b_sequence(seq, a)
    for k_sets in (2, 3):
        with pytest.raises(AssertionError, match="witness is none but .* is 12$"):
            verify_family(build_family(seq, k_sets), a)


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
    # k over SUBSET_BUDGET_MAX is no refusal: the budget counts search
    # nodes, and a valid sequence passes on its hulls, with no search
    assert verify_b_sequence(seq, Full()).checked == 2**k - 1
    # against [1, 5] the third hull, [3, 6], fails; lowered to 2**3 - 1
    # nodes, the budget stops the search at its eighth node, still on the
    # chain of nodes that fix nothing, each of whose ranges
    # [1, 1 + 2 + ... + p] leaves [1, 5]: three run queries for the hulls,
    # seven for the search, and no member() or verify_containment call
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 3)
    monkeypatch.setattr(construct, "verify_containment", refuse_containment)
    a = RunQueriesOnly(RunList([Run(1, 5)]))
    with pytest.raises(BudgetExceeded, match=r"2\*\*3 - 1 search nodes"):
        verify_b_sequence(seq, a)
    assert a.queries == 3 + 7


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
        cert = list(seq.certificates())[top - 1]
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
            assert report.passed, (k_sets, scheme)


def test_family_disjointness_violation_fires():
    seq = build_b_sequence(PolyRuns(2), [1, 1, 1], k=3)
    fam = build_family(seq, 2, "residue")
    starts, ends = fam.sets[1].run_bounds()
    runs = [Run(1, 2), *(Run(s, e - s + 1) for s, e in zip(starts, ends))]
    corrupted = with_sets(fam, (fam.sets[0], RunList(runs)))
    with pytest.raises(DisjointnessViolation) as exc:
        verify_family(corrupted, PolyRuns(2))
    assert str(exc.value) == "component 1 run [1, 1] overlaps component 2 run [1, 2]"


def test_families_of_more_components_than_the_subset_budget_pass():
    # the budget counts search nodes, not components: a greedy sequence's
    # runs pass on their hulls, with no search, and the fold makes at most
    # one pairwise_sumset per component
    k = SUBSET_BUDGET_MAX + 1
    seq = build_b_sequence(Full(), [1] * k, k=k)
    for scheme in ("residue", "blocks"):
        report = verify_family(build_family(seq, k, scheme), Full())
        assert report.to_payload() == {"status": "Pass", "checked": 2**k - 1}


def test_family_pick_budget_is_checked_before_any_query(monkeypatch):
    # bases 1, 2, 3, ... sum past the target's run [1, 5] from the third
    # on, so the third hull of the source runs fails: lowered to 2**3 - 1
    # nodes, the budget stops the search of the picks at its eighth node,
    # after three run queries for the hulls and seven on the chain of
    # nodes that fix nothing, with no member() or verify_containment call
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 3)
    monkeypatch.setattr(construct, "verify_containment", refuse_containment)
    # 20 components of two runs each: 3**20 - 1 picks
    seq = from_entries((1,) * 40, tuple(range(1, 41)))
    fam = build_family(seq, 20, "residue")
    a = RunQueriesOnly(RunList([Run(1, 5)]))
    with pytest.raises(BudgetExceeded):
        verify_family(fam, a)
    assert a.queries == 3 + 7
    # the search alone, the components' runs as its parts, makes the seven
    a.queries = 0
    parts = [[seq.run(j) for j in ix] for ix in fam.index_sets]
    with pytest.raises(BudgetExceeded):
        construct._least_failure(parts, a)
    assert a.queries == 7


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

    def materialize(self, window):
        return self.inner.materialize(window)


def test_valid_sweeps_look_up_each_run_once(monkeypatch):
    # the hull of each run of a valid sequence lies inside the target's run
    # through its start, so one query per run passes a greedy PolyRuns(2)
    # k=16 sequence's 65 535 subsets, with no search node under a budget
    # of 2**5 - 1, and not one member() call
    seq = build_b_sequence(PolyRuns(2), [1] * 16)
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 5)
    monkeypatch.setattr(PolyRuns, "member", refuse_member)
    a = CountingRunEnds(PolyRuns(2))
    assert verify_b_sequence(seq, a, brute_span=0).to_payload() == {
        "status": "Pass", "checked": 2**16 - 1}
    assert a.asked == list(seq.bs)
    # a family checks the hulls of the source runs the same way, whatever
    # its split
    for k_sets, scheme in ((4, "blocks"), (8, "residue")):
        a.asked.clear()
        assert verify_family(build_family(seq, k_sets, scheme), a, brute_span=0).passed
        assert a.asked == list(seq.bs)


@pytest.mark.parametrize("k", [1, 2, 30, SUBSET_BUDGET_MAX + 1, 1000])
def test_a_full_target_takes_one_run_query(k):
    # the run of gen full through b_1 reaches past every sum, so it holds
    # every hull at once; so does a finite run that reaches the top sum
    seq = build_b_sequence(Full(), [1] * k)
    top = sum(seq.run(j).end for j in range(1, k + 1))
    for target in (Full(), RunList([Run(1, top)])):
        a = CountingRunEnds(target)
        assert verify_b_sequence(seq, a).passed
        assert a.asked == [1]
        a.asked.clear()
        assert verify_family(build_family(seq, min(k, 3)), a).passed
        assert a.asked == [1]


def test_family_certificate_falls_through_to_the_picks(monkeypatch):
    # unit runs at 3, 6, ..., 90 in Congruence(3, 0): every pick passes,
    # but no node's range lies in one target run, so searching all subsets
    # of the source runs would visit 2**31 - 1 nodes.  The hulls stop at
    # run 2's, [6, 9], after 2 queries.  The two blocks of 15 runs then
    # give 16 * 16 - 1 = 255 picks: one query for the root, one for each
    # of its 16 children, and one for each pick.
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 9)
    seq = from_entries((1,) * 30, tuple(range(3, 91, 3)))
    a = CountingRunEnds(Congruence(3, 0))
    report = verify_family(build_family(seq, 2, "blocks"), a)
    assert report.to_payload() == {"status": "Pass", "checked": 255}
    assert len(a.asked) == 2 + 1 + 16 + 255


def test_search_budget_counts_every_node(monkeypatch):
    # unit runs at multiples of 3 in Congruence(3, 0): every pick passes
    # and no node passes a subtree, so the search visits the whole tree,
    # 2**(k + 1) - 1 nodes for 2**k - 1 picks.  Lowered to 2**6 - 1
    # nodes, the budget takes k = 5 and refuses k = 6, whose 63 picks
    # would have fit a budget of picks
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 6)
    for k in (5, 6):
        seq = from_entries((1,) * k, tuple(range(3, 3 * k + 1, 3)))
        if k == 5:
            assert verify_b_sequence(seq, Congruence(3, 0)).to_payload() == {
                "status": "Pass", "checked": 31}
        else:
            with pytest.raises(BudgetExceeded, match=r"2\*\*6 - 1 search nodes"):
                verify_b_sequence(seq, Congruence(3, 0))


class CountingRoots:
    """Every radicand intset.nth_root_floor is asked, in order; past limit
    roots the counter raises at once, instead of letting a root-per-query
    loop run to its end."""

    def __init__(self, monkeypatch, limit):
        self.radicands, self.limit = [], limit
        monkeypatch.setattr(intset, "nth_root_floor", self)

    def __call__(self, x, p):
        self.radicands.append(x)
        assert len(self.radicands) <= self.limit, "more roots than the limit"
        return nth_root_floor(x, p)


@pytest.mark.parametrize("k", [13, 16])
def test_poly2_sweep_extracts_one_root_per_run(monkeypatch, k):
    """A PolyRuns(2) keeps no state, so every query takes its own root,
    but the whole check, the hulls and the bitmap route, takes one root
    per base b_j, in order: k roots."""
    seq = build_b_sequence(PolyRuns(2), [1] * k)
    roots = CountingRoots(monkeypatch, k)
    assert verify_b_sequence(seq, PolyRuns(2)).passed
    assert roots.radicands == list(seq.bs)


@pytest.mark.parametrize("p", [2, 3])
def test_build_takes_one_root_per_step(monkeypatch, p):
    """next_run finds the floor run of its lower bound once, and the
    digit estimate of the start it returns needs no second lookup."""
    roots = CountingRoots(monkeypatch, 12)
    build_b_sequence(PolyRuns(p), [1] * 12)
    assert len(roots.radicands) <= 12


def set_runs(rl):
    """The maximal runs of a run list, ascending."""
    return [Run(s, e - s + 1) for s, e in zip(*rl.run_bounds())]


def reference_family(family, a, brute_span=2048):
    """Report of the per-selection family check: every pick of one run per
    selected component set summed anew by run_sum and checked whole by
    verify_containment, then the selection's component bitmaps summed and
    checked.  checked counts the picks of one source run per selected
    component."""
    checked = 0
    witness = witness_subset = None
    parts = [rl.materialize(Window(0, brute_span + 1)) for rl in family.sets]
    runs = [set_runs(rl) for rl in family.sets]
    for sel in enumerate_subsets(family.k_sets):
        checked += prod(len(family.index_sets[i - 1]) for i in sel)
        found = []
        for combo in itertools.product(*(runs[i - 1] for i in sel)):
            v = verify_containment(run_sum(combo), a)
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


def walk_family(family, a, brute_span=2048):
    """verify_family with each route as a walk: every pick of at most one
    run per component set, at least one in all, summed anew by run_sum
    and checked whole by verify_containment; then every selection of
    nonempty components depth first by increasing component, its sum the
    sum of the selection without its highest component plus that
    component, one pairwise_sumset each, checked against the target's
    bitmap.  checked is the number of picks of at most one source run per
    component, at least one in all."""
    construct._check_disjoint(family)
    failures = []
    choices = [[None, *set_runs(rl)] for rl in family.sets]
    for pick in itertools.product(*choices):
        runs = [run for run in pick if run is not None]
        if not runs:
            continue
        witness = verify_containment(run_sum(runs), a)
        if witness is not None:
            mask = sum(1 << i for i, run in enumerate(pick) if run is not None)
            failures.append((witness, mask))
    window = Window(0, brute_span + 1)
    parts = [rl.materialize(window) for rl in family.sets]
    target = a.materialize(window)

    def extend(mask, acc, low):
        for i in range(low, len(parts)):
            if not parts[i].bits:
                continue
            total = parts[i] if acc is None else pairwise_sumset(parts[i], acc, brute_span)
            witness = verify_containment(total, target)
            if witness is not None:
                failures.append((witness, mask | 1 << i))
            extend(mask | 1 << i, total, i + 1)

    extend(0, None, 0)
    checked = prod(len(ix) + 1 for ix in family.index_sets) - 1
    if not failures:
        return SweepReport(checked)
    witness, mask = min(failures)
    return SweepReport(checked, witness, subset_of(mask))


@st.composite
def multi_hole_families(draw):
    """A family of 2 to 6 components of short disjoint runs, one of them
    emptied or not, whose target lacks one to three sums of two or more
    components that no component holds, so every failing selection has
    two or more components.  The source runs lie above brute_span, inside
    the target, so its hulls pass and the bitmap route alone can fail."""
    k_sets = draw(st.integers(2, 6))
    counts = [draw(st.integers(1, 3)) for _ in range(k_sets)]
    if k_sets > 2 and draw(st.booleans()):
        counts[draw(st.integers(0, k_sets - 1))] = 0
    owners = draw(st.permutations([i for i, n in enumerate(counts) for _ in range(n)]))
    members, pos = [[] for _ in range(k_sets)], 0
    for owner in owners:
        pos += draw(st.integers(1, 12))
        members[owner].append(Run(pos, draw(st.integers(1, 6))))
        pos = members[owner][-1].end
    tops = sorted(runs[-1].end for runs in members if runs)
    # the two largest tops sum past every component's members
    brute_span = draw(st.integers(tops[-1] + tops[-2], sum(tops) + 20))
    sets = tuple(RunList(runs) for runs in members)
    parts = [rl.materialize(Window(0, brute_span + 1)) for rl in sets]
    singles = multi = 0
    for sel in enumerate_subsets(k_sets):
        bits = family_sumset(parts, sel, brute_span).bits
        if len(sel) == 1:
            singles |= bits
        else:
            multi |= bits
    open_sums = multi & ~singles
    holes = sorted(draw(st.lists(
        st.sampled_from([x for x in range(brute_span + 1) if open_sums >> x & 1]),
        min_size=1, max_size=3, unique=True,
    )))
    seq = from_entries((1,) * k_sets, tuple(brute_span + 2 * j + 1 for j in range(k_sets)))
    cuts = [0, *holes, sum(seq.bs) + 1]
    a = RunList(Run(lo + 1, hi - lo - 1) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1)
    return with_sets(build_family(seq, k_sets, "residue"), sets), a, brute_span


def family_with_counted_sums(fam, a, brute_span):
    """verify_family's report and its number of pairwise_sumset calls."""
    calls = []

    def counting(b, c, cap):
        calls.append(cap)
        return pairwise_sumset(b, c, cap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "pairwise_sumset", counting)
        return verify_family(fam, a, brute_span), len(calls)


@given(family_cases())
@settings(max_examples=300, deadline=None)
def test_family_matches_per_selection_reference(case):
    # the fold makes at most one pairwise_sumset per component
    fam, a, brute_span = case
    got, sums = family_with_counted_sums(fam, a, brute_span)
    assert got == walk_family(fam, a, brute_span) == reference_family(fam, a, brute_span)
    assert sums <= fam.k_sets


@given(family_cases())
@settings(max_examples=300, deadline=None)
def test_fold_alone_finds_the_family_witness_in_its_window(case):
    fam, a, brute_span = case
    want = reference_family(fam, a, brute_span).witness
    assert construct._fold_hole(fam.sets, a, brute_span) == in_window(want, brute_span)


@given(multi_hole_families())
@settings(max_examples=300, deadline=None)
def test_family_names_the_first_selection_of_several_components(case):
    fam, a, brute_span = case
    got, sums = family_with_counted_sums(fam, a, brute_span)
    assert got == walk_family(fam, a, brute_span) == reference_family(fam, a, brute_span)
    assert len(got.witness_subset) >= 2
    assert sums <= fam.k_sets


@st.composite
def failing_hull_families(draw):
    """A family of 1 to 4 components of two or three short source runs
    each, split by either scheme, over a target that is [1, the sum of all
    runs] but for one to three holes drawn from that range.  A hole in a
    hull fails it, so the search goes below the first level often, and
    sums of overlapping runs often share their witness."""
    k_sets = draw(st.integers(1, 4))
    ells = draw(st.lists(st.integers(1, 4), min_size=2 * k_sets, max_size=3 * k_sets))
    bs, nxt = [], 1
    for ell in ells:
        bs.append(nxt + draw(st.integers(0, 6)))
        nxt = bs[-1] + ell
    seq = from_entries(tuple(ells), tuple(bs))
    top = sum(seq.run(j).end for j in range(1, seq.k + 1))
    holes = draw(st.lists(st.integers(1, top), min_size=1, max_size=3, unique=True))
    cuts = [0, *sorted(holes), top + 1]
    a = RunList(Run(lo + 1, hi - lo - 1) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1)
    fam = build_family(seq, k_sets, draw(st.sampled_from(["residue", "blocks"])))
    return fam, a, draw(st.sampled_from([0, 5, 64, 2048]))


@given(failing_hull_families())
@settings(max_examples=200, deadline=None)
def test_failing_hulls_match_the_references(case):
    fam, a, brute_span = case
    got = verify_family(fam, a, brute_span)
    assert got == walk_family(fam, a, brute_span) == reference_family(fam, a, brute_span)
    seq = fam.source
    assert verify_b_sequence(seq, a, None, brute_span) == reference_sweep(seq, a, None, brute_span)


@given(st.one_of(sweep_cases(), family_cases(), failing_hull_families()))
@settings(max_examples=300, deadline=None)
def test_passing_hulls_leave_no_failing_pick(case):
    # a sum of distinct runs whose largest is run j lies in hull j, so
    # when every hull passes, the search over those runs finds nothing
    source, a = case[:2]
    if isinstance(source, BFamily):
        runs = construct._check_disjoint(source)
    else:
        runs = [source.run(j) for j in range(1, source.k + 1)]
    counted = CountingRunEnds(a)
    if construct._hulls_pass(runs, counted):
        assert construct._least_failure([[run] for run in runs], a) is None
    assert len(counted.asked) <= len(runs)


def test_failing_hulls_give_ties_on_the_witness():
    """failing_hull_families draws families whose witness lies in the sums
    of two or more selections, so the tie rule is exercised."""

    def tie(case):
        fam, a, _ = case
        report = reference_family(fam, a, 0)
        if report.passed:
            return False
        sums = {
            sel: [run_sum(fam.source.run(j) for j in pick)
                  for pick in itertools.product(*(fam.index_sets[i - 1] for i in sel))]
            for sel in enumerate_subsets(fam.k_sets)
        }
        holders = [sel for sel, runs in sums.items()
                   if any(s.start <= report.witness <= s.end for s in runs)]
        return len(holders) >= 2

    find(failing_hull_families(), tie, settings=settings(database=None, max_examples=500))


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


def test_family_bitmap_route_sums_each_component_once():
    # one pairwise_sumset per nonempty component, 5, or 4 with one emptied,
    # where walk_family makes one per selection of two or more nonempty
    # components, 2**5 - 1 - 5 = 26, or 2**4 - 1 - 4 = 11 with one emptied
    fam = build_family(build_b_sequence(Full(), [1] * 10), 5, "residue")
    emptied = with_sets(fam, fam.sets[:2] + (RunList(()),) + fam.sets[3:])
    for family, want in (fam, 5), (emptied, 4):
        report, sums = family_with_counted_sums(family, Full(), 64)
        assert report.passed and sums == want
    # on [0, 16] the sums of the first three components, {1, 6}, {2, 7} and
    # {3, 8}, hold all of [1, 16] but 12, so the fourth, {4, 9}, is summed;
    # then the union holds [1, 16], and so [5, 16], where every sum with
    # the fifth, {5, 10}, lies: that one is skipped
    report, sums = family_with_counted_sums(fam, Full(), 16)
    assert report.passed and sums == 4


def test_fold_keeps_a_bounded_number_of_bitmaps():
    # 1000 unit runs at 1, 2, ..., 1000 on [0, 2**18 - 1]: their sums fill
    # the window from the 724th run on.  Kept for every run, the unions
    # would take about 724 * 32 KiB = 23 MiB; the fold keeps two, whether
    # the target holds every sum or lacks one near the top
    span = 2**18 - 1
    seq = from_entries((1,) * 1000, tuple(range(1, 1001)))
    sets = [RunList([seq.run(j)]) for j in range(1, 1001)]
    hole = span - 3
    a = RunList([Run(1, hole - 1), Run(hole + 1, span)])
    tracemalloc.start()
    try:
        assert verify_b_sequence(seq, Full(), brute_span=span).passed
        assert tracemalloc.get_traced_memory()[1] < 2**20
        tracemalloc.reset_peak()
        assert construct._fold_hole(sets, a, span) == hole
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


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
    if seq_report.passed:
        assert fam_report.passed


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
    """With brute_span 0 only the run route decides: run_end_at and
    first_gap answer from the residue, not through member(), so the two
    routes stay independent on a congruence target of modulus >= 2."""
    seq = from_entries((1,) * len(bs), bs)
    monkeypatch.setattr(Congruence, "member", refuse_member)
    assert verify_b_sequence(seq, target, brute_span=0) == want


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
