"""Set representations: membership, run search, affine maps, text format."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachsum.errors import (
    HorizonExceeded,
    NegativeResult,
    OverlapError,
    ParseError,
)
from banachsum import intset
from banachsum.intset import (
    AffineImage,
    Congruence,
    ExplicitWindow,
    Full,
    PolyRuns,
    PowRuns,
    Run,
    RunList,
    Window,
    decimal_digits,
    nth_root_floor,
    parse_set,
    serialize_set,
)
from strategies import run_list_texts

# ---------------------------------------------------------------- strategies

runs = st.builds(
    Run,
    start=st.integers(min_value=1, max_value=400),
    length=st.integers(min_value=1, max_value=12),
)
run_lists = st.lists(runs, max_size=8).map(RunList)


@st.composite
def explicit_windows(draw, max_base=40, max_len=200):
    base = draw(st.integers(min_value=0, max_value=max_base))
    length = draw(st.integers(min_value=1, max_value=max_len))
    bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    if base == 0:
        bits &= ~1
    return ExplicitWindow(Window(base, length), bits)


generators = st.one_of(
    st.integers(2, 5).map(PowRuns),
    st.integers(2, 4).map(PolyRuns),
    st.tuples(st.integers(1, 9), st.integers(0, 8))
    .filter(lambda mr: mr[1] < mr[0])
    .map(lambda mr: Congruence(*mr)),
    st.just(Full()),
)


@st.composite
def affine_images(draw, inner):
    """AffineImage.of an inner set with stride 1 to 3 and an offset that
    may be negative, as far as the image stays positive."""
    s = draw(inner)
    m = draw(st.integers(1, 3))
    t = draw(st.integers(-20, 30))
    lo = s.min_element()
    return AffineImage.of(s, m, t if lo is None else max(t, 1 - m * lo))


base_sets = st.one_of(explicit_windows(), run_lists, generators)
any_sets = st.one_of(base_sets, affine_images(base_sets))

# ------------------------------------------------------------------- Run/Window


def test_run_interval_semantics():
    r = Run(9, 3)
    assert r.end == 11
    assert list(r) == [9, 10, 11]
    assert 9 in r and 11 in r and 12 not in r


def test_run_rejects_nonpositive():
    with pytest.raises(ValueError):
        Run(0, 1)
    with pytest.raises(ValueError):
        Run(5, 0)
    with pytest.raises(ValueError):
        Window(-1, 4)
    with pytest.raises(ValueError):
        Window(0, 0)


def test_nth_root_floor_small_cases():
    assert nth_root_floor(0, 3) == 0
    assert nth_root_floor(26, 3) == 2
    assert nth_root_floor(27, 3) == 3
    assert nth_root_floor(10**30, 2) == 10**15


@given(st.integers(0, 10**24), st.integers(2, 7))
def test_nth_root_floor_brackets(x, p):
    r = nth_root_floor(x, p)
    assert r**p <= x < (r + 1) ** p


# ------------------------------------------------------------------- membership


def test_membership_examples():
    assert Congruence(2, 1).member(7)
    assert PowRuns(4).member(65)  # third run is [64, 66]
    assert not PowRuns(4).member(63)
    assert not PowRuns(4).member(0)
    assert Full().member(1) and not Full().member(0)


def test_zero_is_never_a_member():
    for s in (Full(), Congruence(5, 0), PowRuns(2), PolyRuns(2), RunList([Run(1, 3)])):
        assert not s.member(0)
        assert not s.member(-4)


def test_congruence_rejects_bad_residue():
    with pytest.raises(ValueError):
        Congruence(4, 4)
    with pytest.raises(ValueError):
        Congruence(0, 0)
    with pytest.raises(ValueError):
        PowRuns(1)
    with pytest.raises(ValueError):
        PolyRuns(1)


# ------------------------------------------------------------------- materialize


def test_materialize_examples():
    full8 = Full().materialize(Window(0, 8))
    assert sorted(full8.elements()) == [1, 2, 3, 4, 5, 6, 7]
    pr = PowRuns(4).materialize(Window(0, 20))
    assert sorted(pr.elements()) == [4, 16, 17]
    empty = RunList([]).materialize(Window(0, 32))
    assert empty.count() == 0
    assert Congruence(1, 0).materialize(Window(0, 8)) == full8
    wide = Congruence(1000, 7).materialize(Window(5, 5000))
    assert list(wide.elements()) == [7, 1007, 2007, 3007, 4007]
    assert Congruence(1000, 7).materialize(Window(8, 999)).count() == 0


@given(generators, st.integers(0, 60), st.integers(1, 120))
@settings(max_examples=60)
def test_materialize_agrees_with_membership(s, base, length):
    w = s.materialize(Window(base, length))
    for x in range(base, base + length):
        assert w.member(x) == s.member(x)


@given(run_lists, st.integers(0, 60), st.integers(1, 120))
@settings(max_examples=60)
def test_materialize_runlist_pointwise(s, base, length):
    w = s.materialize(Window(base, length))
    for x in range(base, base + length):
        assert w.member(x) == s.member(x)


@st.composite
def long_lists_and_late_windows(draw):
    """A list of 20 to 80 runs and a window starting past most of them."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 12)),
                          min_size=20, max_size=80))
    runs, pos = [], 0
    for gap, n in pairs:
        runs.append(Run(pos + gap, n))
        pos += gap + n
    s = RunList(runs)
    base = draw(st.integers(runs[len(runs) * 3 // 4].start - 5, pos + 10))
    return s, Window(base, draw(st.integers(1, 120)))


class IndexLog(tuple):
    """A tuple that logs its reads: single indices, as bisection makes
    them, in probes; slices and iteration, as a scan makes them, in read."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.read.extend(range(*i.indices(len(self))))
        else:
            self.probes.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.read.extend(range(len(self)))
        return super().__iter__()


@given(long_lists_and_late_windows())
@settings(max_examples=100)
def test_materialize_long_runlist_late_window(case):
    s, w = case
    got = s.materialize(w)
    for x in range(w.base, w.end + 1):
        assert got.member(x) == s.member(x)
    # the scan reads only the runs meeting the window, and at most one on
    # either side of them; finding them costs one bisection per list
    meeting = [i for i, r in enumerate(s.runs) if r.start <= w.end and r.end >= w.base]
    logs = IndexLog(s._starts), IndexLog(s._ends)
    for log in logs:
        log.read, log.probes = [], []
    s._starts, s._ends = logs
    assert s.materialize(w) == got
    lo = meeting[0] - 1 if meeting else -1
    hi = meeting[-1] + 1 if meeting else len(s.runs)
    for log in logs:
        assert set(meeting) <= set(log.read)
        assert all(lo <= i <= hi for i in log.read)
        assert len(log.read) <= len(meeting) + 2
        assert len(log.probes) <= len(log).bit_length() + 1


def reference_materialize(s: RunList, window: Window) -> ExplicitWindow:
    """The bitmap as RunList.materialize built it before it set run
    boundaries: one window-wide mask OR'd in per run, O(runs x window bits)."""
    bits = 0
    for run in s.runs:
        lo = max(run.start, window.base, 1)
        hi = min(run.end, window.end)
        if lo <= hi:
            bits |= ((1 << (hi - lo + 1)) - 1) << (lo - window.base)
    return ExplicitWindow(window, bits)


@st.composite
def run_lists_and_windows(draw):
    """A run list and a window at base 0, cutting runs at both ends, wholly
    before the first run, wholly after the last, or anywhere."""
    s = draw(run_lists)
    shape = draw(st.sampled_from(["base0", "cut", "before", "after", "any"]))
    lo, hi = s.min_element() or 1, s.max_element() or 1
    if shape == "base0":
        return s, Window(0, draw(st.integers(1, hi + 20)))
    if shape == "cut" and len(s.runs) >= 2:
        first = draw(st.sampled_from(s.runs[:-1]))
        last = draw(st.sampled_from([r for r in s.runs if r.start > first.end]))
        base = draw(st.integers(first.start, first.end))
        end = draw(st.integers(last.start, last.end))
        return s, Window(base, end - base + 1)
    if shape == "before":
        base = draw(st.integers(0, lo - 1))
        return s, Window(base, draw(st.integers(1, lo - base)))
    if shape == "after":
        return s, Window(draw(st.integers(hi + 1, hi + 50)), draw(st.integers(1, 64)))
    return s, Window(draw(st.integers(0, hi + 20)), draw(st.integers(1, 500)))


@given(run_lists_and_windows())
@settings(max_examples=300)
def test_materialize_matches_per_run_reference(case):
    s, w = case
    assert s.materialize(w) == reference_materialize(s, w)


def dense_run_text(n_runs, seed=0):
    """n_runs runs of 1 to 8 members between gaps of 1 to 4 cells, from 1 on."""
    rng = random.Random(seed)
    lines, pos = [], 1
    for _ in range(n_runs):
        n = rng.randint(1, 8)
        lines.append(f"run {pos} {n}")
        pos += n + rng.randint(1, 4)
    return "\n".join(lines)


def test_materialize_matches_reference_on_a_run_dense_budget_window():
    # 160 000 runs reach past 2**20; the first 2**20-bit window that starts
    # and ends inside a run, not at its edge
    s = parse_set(dense_run_text(160_000))
    base = next(
        x for x in range(1, 1000)
        if s.member(x - 1) and s.member(x) and s.member(x + (1 << 20) - 1)
        and s.member(x + (1 << 20))
    )
    w = Window(base, 1 << 20)
    meeting = sum(1 for r in s.runs if r.start <= w.end and r.end >= w.base)
    assert meeting >= 10**5
    assert s.materialize(w) == reference_materialize(s, w)


def test_parse_and_materialize_build_no_run(monkeypatch):
    built = []
    init = Run.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    text = dense_run_text(2000)
    monkeypatch.setattr(Run, "__init__", counting_init)
    s = parse_set(text)
    w = s.materialize(Window(0, 1 << 14))
    starts, ends = w.run_bounds()
    assert built == []
    # the bounds are scanned once and kept as tuples, which no caller can change
    assert type(starts) is tuple and type(ends) is tuple
    assert w.run_bounds() is w.run_bounds()
    # the patch counts: the cached Run tuple is built on first access
    assert len(s.runs) == 2000 and len(built) == 2000


# ------------------------------------------------------------------- translate / dilate


def test_translate_examples():
    s = RunList.from_elements([1, 3])
    assert sorted(s.translate(2).elements()) == [3, 5]
    assert s.translate(0) is s
    with pytest.raises(NegativeResult):
        s.translate(-1)


def test_translate_splits_recombine():
    # (B + t) + (C - t) keeps the pairwise sums unchanged
    w = Window(0, 64)
    b = RunList.from_elements([1, 2])
    c = RunList.from_elements([10])
    from banachsum.sumset import pairwise_sumset

    plain = pairwise_sumset(b.materialize(w), c.materialize(w), 63)
    shifted = pairwise_sumset(
        b.translate(3).materialize(w), c.translate(-3).materialize(w), 63
    )
    assert sorted(plain.elements()) == sorted(shifted.elements()) == [11, 12]


def test_dilate_examples():
    s = RunList.from_elements([1, 2, 3])
    assert s.dilate(1, 0) is s
    w = Window(0, 32)
    assert list(s.dilate(7, 3).materialize(w).elements()) == [10, 17, 24]
    assert list(RunList([]).dilate(5, 2).materialize(w).elements()) == []


def test_run_list_dilate_stays_symbolic():
    # 10**12 members at stride 2: the image answers by formula and
    # materializes only the cells of the window asked for
    s = RunList([Run(1, 10**12)]).dilate(2, 1)
    assert isinstance(s, AffineImage)
    top = 2 * 10**12 + 1
    assert s.member(3) and s.member(top)
    assert not any(s.member(x) for x in (1, 2, 4, top - 1, top + 2))
    w = Window(top - 6, 8)
    assert list(s.materialize(w).elements()) == [top - 6, top - 4, top - 2, top]


@given(run_lists, st.integers(-5, 30))
def test_translate_membership_identity(s, t):
    lo = s.min_element()
    if lo is not None and lo + t < 1:
        with pytest.raises(NegativeResult):
            s.translate(t)
        return
    shifted = s.translate(t)
    for x in range(1, 460):
        assert shifted.member(x) == s.member(x - t)


@given(run_lists | explicit_windows(), st.integers(1, 6), st.integers(0, 10))
def test_dilate_membership_identity(s, m, r):
    d = s.dilate(m, r)
    for y in range(0, 1500):
        expect = y >= r and (y - r) % m == 0 and s.member((y - r) // m)
        assert d.member(y) == expect


@given(generators, st.integers(0, 20), st.integers(1, 5), st.integers(0, 8))
@settings(max_examples=40)
def test_generator_affine_membership(s, t, m, r):
    mapped = s.dilate(m, r).translate(t)
    for y in range(0, 300):
        back = y - t
        expect = back >= r and (back - r) % m == 0 and s.member((back - r) // m)
        assert mapped.member(y) == expect


def test_affine_image_composes_flat():
    s = PowRuns(4).dilate(3, 1).translate(2).dilate(2, 0)
    assert isinstance(s, AffineImage)
    assert isinstance(s.inner, PowRuns)  # nested maps collapse to one


def test_affine_image_rejects_nonpositive_image():
    with pytest.raises(NegativeResult):
        Full().translate(-1)


def test_explicit_window_rejects_zero_bit():
    with pytest.raises(ValueError):
        ExplicitWindow(Window(0, 4), 0b0001)
    with pytest.raises(ValueError):
        ExplicitWindow(Window(0, 4), 0b10000)  # bits beyond the window


# ------------------------------------------------------------------- next_run


def test_next_run_examples():
    assert PowRuns(4).next_run(3, 0) == Run(64, 3)
    assert Congruence(2, 1).next_run(2, 0) is None
    assert PolyRuns(2).next_run(3, 10) == Run(16, 3)
    assert Full().next_run(5, 17) == Run(17, 5)
    assert Congruence(3, 2).next_run(1, 10) == Run(11, 1)


def test_next_run_inside_longer_run():
    # a start may sit strictly inside a longer run of the set
    assert PolyRuns(2).next_run(2, 10) == Run(10, 2)  # inside [9, 11]


def test_next_run_finite_horizon():
    s = RunList([Run(5, 4)])
    assert s.next_run(3, 0) == Run(5, 3)
    assert s.next_run(3, 6) == Run(6, 3)
    with pytest.raises(HorizonExceeded):
        s.next_run(3, 7)
    with pytest.raises(HorizonExceeded):
        ExplicitWindow(Window(0, 8), 0b0110).next_run(3, 0)


def test_next_run_start_digit_estimates():
    # explicit representations give no estimate
    assert RunList([Run(5, 4)]).next_run_start_digits(3, 0) is None
    assert Full().next_run_start_digits(3, 0) is None
    run = PowRuns(4).next_run(3, 0)
    assert PowRuns(4).next_run_start_digits(3, 0) >= len(str(run.start))
    # lower bound falling inside a long run: the answer starts right there
    assert PowRuns(4).next_run_start_digits(2, 1025) >= len(str(1025))
    # a demand so long that the matching run index is astronomical
    assert PowRuns(2).next_run_start_digits(1 << 62, 1) > 10**9
    # a large but representable answer: estimate agrees with the real digits
    big = PowRuns(2).next_run(20000, 0)
    true_digits, x = 0, big.start
    while x:
        x //= 10
        true_digits += 1
    assert PowRuns(2).next_run_start_digits(20000, 0) >= true_digits


def test_decimal_digits_is_a_tight_upper_bound():
    for x in [1, 9, 10, 64, 99, 100, 1023, 1024, 10**6, 2**40, 10**12 - 1]:
        true = len(str(x))
        assert true <= decimal_digits(x) <= true + 1


@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_start_digit_estimate_bounds_the_poly_run(p, min_len, lb):
    a = PolyRuns(p)
    est = a.next_run_start_digits(min_len, lb)
    assert est >= len(str(a.next_run(min_len, lb).start))


def test_affine_start_digit_estimates():
    moved = AffineImage.of(PolyRuns(2), 1, 7)  # translation keeps runs intact
    assert moved.next_run_start_digits(3, 50) >= len(str(moved.next_run(3, 50).start))
    spread = AffineImage.of(PolyRuns(2), 3, 2)  # dilation shatters runs
    assert spread.next_run_start_digits(2, 0) is None
    single = spread.next_run(1, 100)
    est = spread.next_run_start_digits(1, 100)
    assert est is not None and est >= len(str(single.start))


@given(generators, st.integers(1, 6), st.integers(0, 120))
@settings(max_examples=80)
def test_next_run_is_minimal(s, min_len, lower_bound):
    found = s.next_run(min_len, lower_bound)
    if found is None:
        # provably absent: confirm over a generous scan range
        for b in range(max(lower_bound, 1), 300):
            assert any(not s.member(b + i) for i in range(min_len))
        return
    assert found.length == min_len
    assert found.start >= lower_bound
    assert all(s.member(x) for x in found)
    # no earlier start works (scan oracle, bounded to keep it cheap)
    scan_from = max(lower_bound, 1)
    if found.start - scan_from <= 3000:
        for b in range(scan_from, found.start):
            assert any(not s.member(b + i) for i in range(min_len))


@given(run_lists, st.integers(1, 5), st.integers(0, 200))
def test_next_run_minimal_on_run_lists(s, min_len, lower_bound):
    try:
        found = s.next_run(min_len, lower_bound)
    except HorizonExceeded:
        hi = (s.max_element() or 0) + min_len + 1
        for b in range(max(lower_bound, 1), hi):
            assert any(not s.member(b + i) for i in range(min_len))
        return
    assert found.start >= lower_bound
    assert all(s.member(x) for x in found)
    for b in range(max(lower_bound, 1), found.start):
        assert any(not s.member(b + i) for i in range(min_len))


def first_fit_scan(runs, min_len, lower_bound):
    """next_run by a scan over every run from the first, or None."""
    for run in runs:
        b = max(run.start, lower_bound)
        if b + min_len - 1 <= run.end:
            return Run(b, min_len)
    return None


@given(run_lists, st.integers(1, 12), st.data())
def test_run_list_next_run_matches_a_scan_over_all_runs(s, min_len, data):
    # lower bounds at, inside and just past each run, and past the last one
    edges = [x for r in s.runs for x in (r.start, r.start + r.length // 2, r.end + 1)]
    top = (s.max_element() or 0) + 1
    lower_bound = data.draw(st.sampled_from(edges + [0, top, top + 5]))
    want = first_fit_scan(s.runs, min_len, lower_bound)
    if want is None:
        with pytest.raises(HorizonExceeded):
            s.next_run(min_len, lower_bound)
    else:
        assert s.next_run(min_len, lower_bound) == want


def test_generator_runs_disjoint():
    assert PowRuns(4).runs_disjoint_upto(64)
    assert PowRuns(2).runs_disjoint_upto(64)
    assert PolyRuns(2).runs_disjoint_upto(64)
    assert PolyRuns(3).runs_disjoint_upto(64)


# ------------------------------------------------------------------- RunList shape


@given(st.lists(runs, max_size=10))
def test_runlist_normalization(run_items):
    rl = RunList(run_items)
    for a, b in zip(rl.runs, rl.runs[1:]):
        assert a.end + 1 < b.start  # sorted, disjoint, gap >= 1
    want = set()
    for r in run_items:
        want.update(r)
    assert set(rl.elements()) == want


def test_runlist_merges_adjacent_and_overlapping():
    rl = RunList([Run(4, 2), Run(6, 1), Run(5, 3)])
    assert rl.runs == (Run(4, 4),)


@given(explicit_windows())
def test_window_runs_reconstruct_elements(w):
    got = []
    for r in w.runs():
        got.extend(r)
    assert got == sorted(w.elements())
    assert w.to_run_list().runs == tuple(w.runs())


@given(explicit_windows())
def test_window_runs_match_bit_scan(w):
    want, streak = [], 0
    for off in range(w.window.length + 1):
        if off < w.window.length and (w.bits >> off) & 1:
            streak += 1
        elif streak:
            want.append(Run(w.window.base + off - streak, streak))
            streak = 0
    assert w.runs() == want


@given(explicit_windows(), st.integers(0, 250), st.integers(0, 250))
def test_first_gap_matches_scan(w, a, b):
    start, end = min(a, b), max(a, b)
    got = w.first_gap(start, end)
    want = next((x for x in range(start, end + 1) if not w.member(x)), None)
    assert got == want


@given(st.one_of(generators, run_lists, affine_images(base_sets)),
       st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=150)
def test_first_gap_matches_scan_generators(s, a, b):
    start, end = min(a, b), max(a, b)
    got = s.first_gap(start, end)
    want = next((x for x in range(start, end + 1) if not s.member(x)), None)
    assert got == want


def scan_run_end(s, x, horizon=600):
    """run_end_at by asking member upward from x; None past the horizon."""
    if not s.member(x):
        return x - 1
    y = x
    while s.member(y + 1):
        y += 1
        if y - x > horizon:
            return None
    return y


@given(any_sets, st.integers(-5, 250))
@settings(max_examples=400)
def test_run_end_at_matches_member_scan(s, x):
    assert s.run_end_at(x) == scan_run_end(s, x)


@st.composite
def nested_images(draw):
    """One or two AffineImage layers over any base set, built with the raw
    constructor so the nesting that AffineImage.of flattens stays."""
    s = draw(base_sets)
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(1, 4))
        t = draw(st.integers(-20, 30))
        lo = s.min_element()
        s = AffineImage(s, m, t if lo is None else max(t, 1 - m * lo))
    return s


@given(st.one_of(nested_images(), affine_images(base_sets)),
       st.integers(0, 300), st.integers(1, 300))
@settings(max_examples=300)
def test_affine_materialize_matches_member_scan(s, base, length):
    w = Window(base, length)
    want = 0
    for x in range(max(base, 1), w.end + 1):
        if s.member(x):
            want |= 1 << (x - base)
    assert s.materialize(w) == ExplicitWindow(w, want)


# ------------------------------------------------------- indexed run brackets

indexed_generators = st.one_of(
    st.integers(2, 5).map(PowRuns), st.integers(2, 4).map(PolyRuns)
)


def run_start(s, i):
    return s.c ** i if isinstance(s, PowRuns) else i ** s.p


def bracket_probes(s, i):
    """The integers where run i's bracket [start_i, start_(i+1)) and the
    run [start_i, start_i + i - 1] begin and end, from both sides."""
    start, after = run_start(s, i), run_start(s, i + 1)
    return [start - 1, start, start + i - 1, start + i, after - 1]


def fresh_answer(s, query):
    """query asked of a new, equal instance, whose bracket is empty."""
    return query(PowRuns(s.c) if isinstance(s, PowRuns) else PolyRuns(s.p))


def answers(s, x, min_len):
    return (
        s.member(x),
        s.run_end_at(x),
        s.next_run(min_len, x),
        s.first_gap(x, x + min_len),
    )


@given(
    indexed_generators,
    st.lists(
        st.tuples(st.integers(1, 30), st.integers(0, 5), st.integers(1, 6)),
        min_size=1, max_size=40,
    ),
    st.sampled_from(["drawn", "descending", "ascending"]),
)
@settings(max_examples=200, deadline=None)
def test_remembered_bracket_answers_like_a_fresh_instance(s, picks, order):
    """One shared instance asked in an adversarial order (jumps between
    runs, descending, every edge of a bracket, x < 1) answers every query
    as a fresh instance does."""
    queries = []
    for i, edge, min_len in picks:
        x = bracket_probes(s, i)[edge] if edge < 5 else 1 - min_len
        queries.append((x, min_len))
    if order != "drawn":
        queries.sort(reverse=order == "descending")
    for x, min_len in queries:
        got = answers(s, x, min_len)
        assert got == fresh_answer(s, lambda f: answers(f, x, min_len)), (x, min_len)
        # and a remembered bracket is a whole one, not a conservative part
        start, i, after = s._bracket
        assert i == 0 or (start, after) == (run_start(s, i), run_start(s, i + 1))


def test_shared_bracket_is_safe_across_threads():
    """Two threads take turns on one instance, each in its own runs, so
    every query of one replaces the other's bracket; then four threads run
    free with a tiny switch interval.  Every answer equals a fresh
    instance's."""
    for s in (PolyRuns(2), PolyRuns(3), PowRuns(3)):
        xs = [[x for i in runs for x in bracket_probes(s, i)]
              for runs in ((9, 10, 11), (20, 3, 21), (5, 30, 1), (14, 2, 15))]
        want = [[fresh_answer(s, lambda f: answers(f, x, 2)) for x in q] for q in xs]
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        wrong, done = [], []

        def in_turn(t):
            for x, w in zip(xs[t], want[t]):
                if not turns[t].acquire(timeout=30):
                    return
                if answers(s, x, 2) != w:
                    wrong.append((t, x))
                turns[1 - t].release()
            done.append(t)

        def free(t):
            for _ in range(50):
                for x, w in zip(xs[t], want[t]):
                    if answers(s, x, 2) != w:
                        wrong.append((t, x))
            done.append(t)

        for body, n in ((in_turn, 2), (free, 4)):
            done.clear()
            threads = [threading.Thread(target=body, args=(t,)) for t in range(n)]
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(old)
            assert not any(th.is_alive() for th in threads)
            assert sorted(done) == list(range(n))
        assert wrong == []


# ------------------------------------------------------------------- text format


def reference_parse_set(text):
    """parse_set as it was before it collected plain ints: one Run per
    line, declared runs sorted by start to find overlaps, then sorted and
    merged again.  A generator comes back as parse_set returns it, a run
    list as its tuple of maximal runs."""
    declared = []
    gen = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        if gen is not None:
            raise ParseError("a generator must be the only directive", lineno)
        if head == "run":
            start, length = _reference_ints(args, 2, lineno)
            declared.append((_reference_run(start, length, lineno), lineno))
        elif head == "elem":
            (x,) = _reference_ints(args, 1, lineno)
            declared.append((_reference_run(x, 1, lineno), lineno))
        elif head == "gen":
            if declared:
                raise ParseError("a generator must be the only directive", lineno)
            gen = intset._parse_gen(args, lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if gen is not None:
        return gen
    ordered = sorted(declared, key=lambda item: item[0].start)
    for (prev, _), (cur, lineno) in zip(ordered, ordered[1:]):
        if cur.start <= prev.end:
            raise OverlapError(
                f"run [{cur.start}, {cur.end}] overlaps run [{prev.start}, {prev.end}]",
                lineno,
            )
    merged = []
    for run, _ in ordered:
        if merged and run.start <= merged[-1].end + 1:
            last = merged[-1]
            merged[-1] = Run(last.start, max(last.end, run.end) - last.start + 1)
        else:
            merged.append(run)
    return tuple(merged)


def _reference_ints(args, n, lineno):
    if len(args) != n:
        raise ParseError(f"expected {n} argument(s), got {len(args)}", lineno)
    out = []
    for a in args:
        try:
            out.append(int(a, 10))
        except ValueError:
            raise ParseError(f"not an integer: {a!r}", lineno) from None
    return out


def _reference_run(start, length, lineno):
    try:
        return Run(start, length)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


@given(run_list_texts())
@settings(max_examples=400)
def test_parse_set_matches_reference_parser(text):
    want = parse_outcome(reference_parse_set, text)
    got = parse_outcome(parse_set, text)
    if isinstance(want, ParseError):
        assert type(got) is type(want)
        assert (str(got), got.lineno) == (str(want), want.lineno)
    elif isinstance(want, tuple):
        assert isinstance(got, RunList) and got.runs == want
    else:
        assert got == want


def test_parse_set_matches_reference_parser_examples():
    texts = [
        "run 5 3\nrun 5 1",  # equal starts: the later line is the one reported
        "run 5 1\nrun 5 3",
        "run 10 2\nrun 4 7\nrun 1 2",  # unsorted, overlap found after sorting
        "elem 3\nrun 1 2\nelem 4\nrun 6 1\nrun 8 2",  # adjacent runs merge
        "run\t007 +3 # note\r\nelem 1_0\r\n\t\r\n",
        "run 0 2",
        "run 3 0",
        "elem -4",
        "run 3 x",
        "run 3",
        "elem 1\ngen full",
        "gen full\n# only a comment\nelem 1",
        "gen congruence 4 9",
        "frob 1\nrun 1 0",
        "",
    ]
    for text in texts:
        want = parse_outcome(reference_parse_set, text)
        got = parse_outcome(parse_set, text)
        if isinstance(want, ParseError):
            assert (type(got), str(got), got.lineno) == (type(want), str(want), want.lineno)
        else:
            assert (got.runs if isinstance(want, tuple) else got) == want


def test_parse_examples():
    assert parse_set("gen pow_runs 4") == PowRuns(4)
    rl = parse_set("run 9 3\nrun 16 4")
    assert rl == RunList([Run(9, 3), Run(16, 4)])
    with pytest.raises(OverlapError):
        parse_set("run 9 3\nrun 10 2")


def test_parse_comments_blank_lines_merge():
    rl = parse_set("# header\nrun 4 2\n\nelem 6  # trailing note\n")
    assert rl.runs == (Run(4, 3),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_set("run 4 2\nfrob 1\n")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError) as exc:
        parse_set("run 4\n")
    assert exc.value.lineno == 1
    with pytest.raises(ParseError):
        parse_set("gen pow_runs 4\nrun 1 1\n")
    with pytest.raises(ParseError):
        parse_set("gen congruence 4 9\n")
    with pytest.raises(ParseError):
        parse_set("run 0 2\n")


def test_serialize_round_trips():
    for s in (
        PowRuns(4),
        PolyRuns(3),
        Congruence(7, 3),
        Full(),
        RunList([Run(4, 2), Run(9, 1)]),
        RunList([]),
    ):
        assert parse_set(serialize_set(s)) == s


@given(run_lists)
def test_serialize_round_trips_random(rl):
    assert parse_set(serialize_set(rl)) == rl


def test_serialize_window_as_runs():
    w = ExplicitWindow(Window(3, 6), 0b011011)
    assert parse_set(serialize_set(w)) == w.to_run_list()


def test_serialize_rejects_affine_wrappers():
    with pytest.raises(ValueError):
        serialize_set(Full().translate(3))
