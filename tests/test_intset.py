"""Set representations: membership, run search, dilation, text format,
and the decimal codec."""

import contextlib
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banachsum.errors import (
    BudgetExceeded,
    HorizonExceeded,
    OverlapError,
    ParseError,
)
from banachsum import intset
from banachsum.density import forced_density
from banachsum.intset import (
    DECIMAL_DIGIT_LIMIT,
    Congruence,
    ExplicitWindow,
    Full,
    IntSet,
    PolyRuns,
    PowRuns,
    Run,
    RunList,
    Window,
    decimal_digits,
    from_decimal,
    nth_root_floor,
    parse_set,
    serialize_set,
    to_decimal,
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

base_sets = st.one_of(explicit_windows(), run_lists, generators)
indexed_generators = st.one_of(
    st.integers(2, 5).map(PowRuns), st.integers(2, 4).map(PolyRuns)
)


def run_start(s, i):
    """Start of run i of a PowRuns or PolyRuns, from its formula alone."""
    return s.c ** i if isinstance(s, PowRuns) else i ** s.p


# ------------------------------------------------------------------- Run/Window


def test_run_interval_semantics():
    r = Run(9, 3)
    assert r.end == 11
    assert RunList([r]).materialize(Window(8, 5)).bits == 0b01110


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


@given(st.integers(0, 10**24) | st.integers(0, 1 << 20000), st.integers(2, 9))
def test_nth_root_floor_brackets(x, p):
    r = nth_root_floor(x, p)
    assert r**p <= x < (r + 1) ** p


@given(st.integers(2, 1 << 3000), st.integers(3, 9), st.integers(-1, 1))
def test_nth_root_floor_at_exact_powers(r, p, d):
    # the start from the root of the top bits lands next to r, where the
    # fix-up steps decide
    assert nth_root_floor(r**p + d, p) == (r if d >= 0 else r - 1)


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


HUGE = 10**5000


def test_full_answers_as_the_congruence_zero_mod_one():
    """Full is Congruence(1, 0) under its own name: every query, at x <= 0
    and far past 10**5000 too, gets the same answer from both."""
    full, one = Full(), Congruence(1, 0)
    for x in (-HUGE, -3, 0, 1, 2, 97, HUGE, HUGE + 1):
        for query in (
            lambda s: s.member(x),
            lambda s: s.run_end_at(x),
            lambda s: s.first_gap(x, x + 5),
            lambda s: s.next_run(3, x),
            lambda s: s.next_run(3, x, digit_limit=0),
            lambda s: s.materialize(Window(max(x, 0), 70)),
        ):
            assert query(full) == query(one), x
    assert forced_density(full) == forced_density(one) == 1
    assert full != one and repr(full) == "Full()"
    assert serialize_set(full) == "gen full\n" and parse_set("gen full") == full


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
    assert empty.bits == 0
    assert Congruence(1, 0).materialize(Window(0, 8)) == full8
    wide = Congruence(1000, 7).materialize(Window(5, 5000))
    assert list(wide.elements()) == [7, 1007, 2007, 3007, 4007]
    assert Congruence(1000, 7).materialize(Window(8, 999)).bits == 0


def test_explicit_window_materializes_only_the_overlap():
    # a bitmap far above the window asked for gives 0 without being
    # shifted into it first (that traced 13.3 MB)
    far = ExplicitWindow(Window(10**8, 8), 0xFF)
    tracemalloc.start()
    try:
        got = far.materialize(Window(0, 2049))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ExplicitWindow(Window(0, 2049), 0)
    assert peak < 64 * 1024
    # overlapping the lower or upper edge, inside, covering, below, above
    w = ExplicitWindow(Window(100, 40), random.Random(5).getrandbits(40))
    for base, length in [(90, 20), (130, 25), (110, 10), (95, 60), (100, 40),
                         (1, 99), (0, 2), (140, 7), (10**8, 8)]:
        cells = range(base, base + length)
        scan = sum(1 << (x - base) for x in cells if w.member(x))
        assert w.materialize(Window(base, length)) == ExplicitWindow(Window(base, length), scan)


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
    starts, ends = s.run_bounds()
    meeting = [i for i, (a, b) in enumerate(zip(starts, ends)) if a <= w.end and b >= w.base]
    logs = IndexLog(starts), IndexLog(ends)
    for log in logs:
        log.read, log.probes = [], []
    s._bounds = logs
    assert s.materialize(w) == got
    lo = meeting[0] - 1 if meeting else -1
    hi = meeting[-1] + 1 if meeting else len(starts)
    for log in logs:
        assert set(meeting) <= set(log.read)
        assert all(lo <= i <= hi for i in log.read)
        assert len(log.read) <= len(meeting) + 2
        assert len(log.probes) <= len(log).bit_length() + 1


def reference_materialize(s: RunList, window: Window) -> ExplicitWindow:
    """The bitmap as RunList.materialize built it before it set run
    boundaries: one window-wide mask OR'd in per run, O(runs x window bits)."""
    bits = 0
    for start, end in zip(*s.run_bounds()):
        lo = max(start, window.base, 1)
        hi = min(end, window.end)
        if lo <= hi:
            bits |= ((1 << (hi - lo + 1)) - 1) << (lo - window.base)
    return ExplicitWindow(window, bits)


@st.composite
def run_lists_and_windows(draw):
    """A run list and a window at base 0, cutting runs at both ends, wholly
    before the first run, wholly after the last, or anywhere."""
    s = draw(run_lists)
    shape = draw(st.sampled_from(["base0", "cut", "before", "after", "any"]))
    starts, ends = s.run_bounds()
    lo, hi = (starts[0], ends[-1]) if starts else (1, 1)
    if shape == "base0":
        return s, Window(0, draw(st.integers(1, hi + 20)))
    if shape == "cut" and len(starts) >= 2:
        first = draw(st.sampled_from(range(len(starts) - 1)))
        last = draw(st.sampled_from(range(first + 1, len(starts))))
        base = draw(st.integers(starts[first], ends[first]))
        end = draw(st.integers(starts[last], ends[last]))
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
    got = s.materialize(w)
    assert got == reference_materialize(s, w)
    # the bitmap's runs are the list's runs clipped to the window
    clipped = [
        (max(a, w.base), min(b, w.end)) for a, b in zip(*s.run_bounds())
        if a <= w.end and b >= w.base
    ]
    assert got.run_bounds() == (tuple(a for a, _ in clipped), tuple(b for _, b in clipped))


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
    meeting = sum(1 for a, b in zip(*s.run_bounds()) if a <= w.end and b >= w.base)
    assert meeting >= 10**5
    assert s.materialize(w) == reference_materialize(s, w)


def reference_indexed_materialize(s, window: Window) -> ExplicitWindow:
    """The bitmap as PowRuns and PolyRuns built it before they listed their
    runs for one bitmap builder: runs taken by index from run 1, one
    window-wide mask OR'd in per run that meets the window."""
    bits, i = 0, 1
    while (start := run_start(s, i)) <= window.end:
        lo = max(start, window.base)
        hi = min(start + i - 1, window.end)
        if lo <= hi:
            bits |= ((1 << (hi - lo + 1)) - 1) << (lo - window.base)
        i += 1
    return ExplicitWindow(window, bits)


@st.composite
def gap_windows(draw):
    """A run generator and a window whose base lies in the gap after run i,
    from the cell just past the run to the next start, so the floor run of
    the base ends below the window, one or more cells below."""
    s = draw(indexed_generators)
    i = draw(st.integers(1, 12 if isinstance(s, PolyRuns) else 6))
    start, after = run_start(s, i), run_start(s, i + 1)
    base = draw(st.integers(start + i, after))
    return s, Window(base, draw(st.integers(1, 3 * (after - start) + 2)))


@given(gap_windows())
@example((PolyRuns(2), Window(0, 1 << 20)))
@example((PowRuns(2), Window(0, 1 << 20)))
@settings(max_examples=300)
def test_generator_materialize_matches_per_run_reference(case):
    s, w = case
    assert s.materialize(w) == reference_indexed_materialize(s, w)


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
    bounds = [s.run_bounds(), w.run_bounds()]
    assert built == []
    # the bounds are kept as tuples, which no caller can change, and the
    # window's are scanned once
    for starts, ends in bounds:
        assert type(starts) is tuple and type(ends) is tuple
    assert len(bounds[0][0]) == 2000 and w.run_bounds() is bounds[1]
    # the patch counts: repr builds one Run per run
    assert repr(s).count("Run(") == 2000 and len(built) == 2000


# ------------------------------------------------------------------- dilate


def window_of(xs, window):
    return RunList(Run(x, 1) for x in xs).materialize(window)


def test_translate_examples():
    # a translation is a dilation by 1: the bits stay, the window moves
    s = window_of([1, 3], Window(0, 8))
    assert s.dilate(1, 2) == ExplicitWindow(Window(2, 8), s.bits)
    assert list(s.dilate(1, 2).elements()) == [3, 5]
    assert s.dilate(1) == s


def test_translate_splits_recombine():
    # (B + t) + C and B + (C + t) have the same pairwise sums
    b = window_of([1, 2], Window(0, 8))
    c = window_of([7], Window(0, 8))
    from banachsum.sumset import pairwise_sumset

    b_up = pairwise_sumset(b.dilate(1, 3), c, 63)
    c_up = pairwise_sumset(b, c.dilate(1, 3), 63)
    assert list(b_up.elements()) == list(c_up.elements()) == [11, 12]


def test_dilate_examples():
    s = window_of([1, 2, 3], Window(0, 4))
    assert s.dilate(7, 3) == window_of([10, 17, 24], Window(3, 22))
    assert list(ExplicitWindow(Window(0, 4), 0).dilate(5, 2).elements()) == []


@given(explicit_windows(), st.integers(1, 6), st.integers(0, 10))
def test_dilate_membership_identity(s, m, r):
    d = s.dilate(m, r)
    for y in range(0, 1500):
        expect = y >= r and (y - r) % m == 0 and s.member((y - r) // m)
        assert d.member(y) == expect


def test_affine_image_rejects_nonpositive_image():
    # a dilation factor below 1 or a negative shift could map members
    # below 1, so dilate refuses both
    s = window_of([1, 3], Window(0, 8))
    with pytest.raises(ValueError, match="dilation factor must be >= 1, got 0"):
        s.dilate(0)
    with pytest.raises(ValueError, match="dilation shift must be >= 0, got -1"):
        s.dilate(1, -1)


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


def refuses_under_its_digits(s, min_len, lb):
    """s.next_run refuses a digit limit one under the true digit count of
    the start its default call returns."""
    d = len(to_decimal(s.next_run(min_len, lb).start))
    with pytest.raises(BudgetExceeded, match=f"over the limit of {d - 1}$"):
        s.next_run(min_len, lb, digit_limit=d - 1)


def test_next_run_start_digit_estimates():
    for s, min_len, lb in (
        (PowRuns(4), 3, 0),
        (PolyRuns(3), 5, 0),
        # lower bound falling inside a long run: the answer starts right there
        (PowRuns(4), 2, 1025),
        (PolyRuns(2), 2, 10),
        # a large but representable answer
        (PowRuns(2), 20000, 0),
    ):
        refuses_under_its_digits(s, min_len, lb)
    # a demand so long that the matching run index is astronomical is
    # refused before any power is taken, whatever the limit
    with pytest.raises(BudgetExceeded, match=r"needs about 4611686018427387904 digits"):
        PowRuns(2).next_run(1 << 62, 1, digit_limit=10**18)
    # the default limit is the decimal codec's
    with pytest.raises(BudgetExceeded, match=f"over the limit of {DECIMAL_DIGIT_LIMIT}$"):
        PowRuns(10).next_run(DECIMAL_DIGIT_LIMIT, 0)


@given(st.one_of(explicit_windows(), run_lists, generators.filter(
    lambda s: isinstance(s, Congruence))), st.integers(1, 6), st.integers(0, 420))
@settings(max_examples=150)
def test_lists_windows_and_congruences_never_refuse_a_start(s, min_len, lb):
    """Their starts never exceed their own text or the lower bound, so
    next_run ignores the digit limit, even 0."""
    answers = []
    for limit in (DECIMAL_DIGIT_LIMIT, 0):
        try:
            answers.append(s.next_run(min_len, lb, digit_limit=limit))
        except HorizonExceeded as exc:
            answers.append(str(exc))
    assert answers[0] == answers[1]


def test_decimal_digits_is_a_tight_upper_bound():
    for x in [1, 9, 10, 64, 99, 100, 1023, 1024, 10**6, 2**40, 10**12 - 1]:
        true = len(str(x))
        assert true <= decimal_digits(x) <= true + 1


@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_start_digit_estimate_bounds_the_poly_run(p, min_len, lb):
    refuses_under_its_digits(PolyRuns(p), min_len, lb)


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
    assert all(s.member(x) for x in range(found.start, found.end + 1))
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
        ends = s.run_bounds()[1]
        hi = (ends[-1] if ends else 0) + min_len + 1
        for b in range(max(lower_bound, 1), hi):
            assert any(not s.member(b + i) for i in range(min_len))
        return
    assert found.start >= lower_bound
    assert all(s.member(x) for x in range(found.start, found.end + 1))
    for b in range(max(lower_bound, 1), found.start):
        assert any(not s.member(b + i) for i in range(min_len))


def first_fit_scan(starts, ends, min_len, lower_bound):
    """next_run by a scan over every run from the first, or None."""
    for start, end in zip(starts, ends):
        b = max(start, lower_bound)
        if b + min_len - 1 <= end:
            return Run(b, min_len)
    return None


@given(run_lists, st.integers(1, 12), st.data())
def test_run_list_next_run_matches_a_scan_over_all_runs(s, min_len, data):
    # lower bounds at, inside and just past each run, and past the last one
    starts, ends = s.run_bounds()
    edges = [x for a, b in zip(starts, ends) for x in (a, a + (b - a + 1) // 2, b + 1)]
    top = (ends[-1] if ends else 0) + 1
    lower_bound = data.draw(st.sampled_from(edges + [0, top, top + 5]))
    want = first_fit_scan(starts, ends, min_len, lower_bound)
    if want is None:
        with pytest.raises(HorizonExceeded):
            s.next_run(min_len, lower_bound)
    else:
        assert s.next_run(min_len, lower_bound) == want


def test_generator_runs_disjoint():
    for s in (PowRuns(4), PowRuns(2), PolyRuns(2), PolyRuns(3)):
        assert all(s._start(i) + i - 1 < s._start(i + 1) for i in range(1, 65))


# ------------------------------------------------------------------- RunList shape


@given(st.lists(runs, max_size=10))
def test_runlist_normalization(run_items):
    rl = RunList(run_items)
    starts, ends = rl.run_bounds()
    assert all(a <= b for a, b in zip(starts, ends))
    for end, start in zip(ends, starts[1:]):
        assert end + 1 < start  # sorted, disjoint, gap >= 1
    want = set()
    for r in run_items:
        want.update(range(r.start, r.end + 1))
    assert {x for x in range(420) if rl.member(x)} == want


def test_runlist_merges_adjacent_and_overlapping():
    rl = RunList([Run(4, 2), Run(6, 1), Run(5, 3)])
    assert rl.run_bounds() == ((4,), (7,))


def materialized(case):
    s, window = case
    return s.materialize(window)


@given(st.one_of(explicit_windows(), run_lists_and_windows().map(materialized)),
       st.integers(1, 5))
def test_window_runs_reconstruct_elements(w, min_len):
    got = []
    for start, end in zip(*w.run_bounds()):
        got.extend(range(start, end + 1))
    assert got == sorted(w.elements())
    # the run list of the same members answers every run query alike, up
    # to the name of the set in a HorizonExceeded message
    rl = RunList(Run(x, 1) for x in w.elements())
    assert rl.run_bounds() == w.run_bounds()
    for x in range(w.window.end + 3):
        assert rl.run_end_at(x) == w.run_end_at(x)
        answers = []
        for s in (rl, w):
            try:
                answers.append(s.next_run(min_len, x))
            except HorizonExceeded as exc:
                answers.append(str(exc).replace("inside the window", "in the run list"))
        assert answers[0] == answers[1]
        if isinstance(answers[0], str):
            assert answers[0] == f"no run of length {min_len} at or above {x} in the run list"


@given(explicit_windows())
def test_window_runs_match_bit_scan(w):
    starts, ends, streak = [], [], 0
    for off in range(w.window.length + 1):
        if off < w.window.length and (w.bits >> off) & 1:
            streak += 1
        elif streak:
            starts.append(w.window.base + off - streak)
            ends.append(w.window.base + off - 1)
            streak = 0
    assert w.run_bounds() == (tuple(starts), tuple(ends))


@given(st.one_of(run_lists_and_windows(), gap_windows()).map(materialized))
@settings(max_examples=200)
def test_filled_window_keeps_the_runs_a_scan_finds(w):
    assert w._bounds is not None
    assert w.run_bounds() == ExplicitWindow(w.window, w.bits).run_bounds()


@given(explicit_windows(), st.integers(0, 250), st.integers(0, 250))
def test_first_gap_matches_scan(w, a, b):
    start, end = min(a, b), max(a, b)
    got = w.first_gap(start, end)
    want = next((x for x in range(start, end + 1) if not w.member(x)), None)
    assert got == want


@given(st.one_of(generators, run_lists), st.integers(0, 200), st.integers(0, 200))
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


@given(base_sets, st.integers(-5, 250))
@settings(max_examples=400)
def test_run_end_at_matches_member_scan(s, x):
    assert s.run_end_at(x) == scan_run_end(s, x)


@given(explicit_windows(), st.integers(1, 4), st.integers(0, 30),
       st.integers(0, 300), st.integers(1, 300))
@settings(max_examples=300)
def test_affine_materialize_matches_member_scan(s, m, r, base, length):
    """A window's image under x -> m*x + r, materialized on a window that
    may cut it, hold it or miss it."""
    s = s.dilate(m, r)
    w = Window(base, length)
    want = 0
    for x in range(max(base, 1), w.end + 1):
        if s.member(x):
            want |= 1 << (x - base)
    assert s.materialize(w) == ExplicitWindow(w, want)


# ------------------------------------------------------- indexed run generators


def edge_probes(s, i):
    """The integers where run i and the gap after it begin and end, from
    both sides: start_i - 1, start_i, start_i + i - 1, start_i + i and
    start_(i+1) - 1."""
    start, after = run_start(s, i), run_start(s, i + 1)
    return [start - 1, start, start + i - 1, start + i, after - 1]


def answers(s, x, min_len):
    return (
        s.member(x),
        s.run_end_at(x),
        s.next_run(min_len, x),
        s.first_gap(x, x + min_len),
    )


def reference_answers(s, x, min_len):
    """answers(s, x, min_len) from the runs [start_i, start_i + i - 1],
    their starts c**i or i**p listed from run 1 up to the first run that
    is long enough and starts past x."""
    runs = []
    for i in itertools.count(1):
        start = run_start(s, i)
        runs.append((start, start + i - 1))
        if i >= min_len and start > x:
            break

    def end_at(y):
        return next((e for a, e in runs if a <= y <= e), y - 1)

    lb = max(x, 1)
    first = next(max(a, lb) for a, e in runs if max(a, lb) + min_len - 1 <= e)
    gap = next((y for y in range(x, x + min_len + 1) if end_at(y) < y), None)
    return (end_at(x) >= x, end_at(x), Run(first, min_len), gap)


@given(indexed_generators, st.integers(1, 30), st.integers(0, 5), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_generator_queries_match_the_power_reference(s, i, edge, min_len):
    """At every edge of run i and of the gap after it, and at x < 1,
    member, run_end_at, next_run and first_gap answer as the runs listed
    from the formula do."""
    x = edge_probes(s, i)[edge] if edge < 5 else 1 - min_len
    assert answers(s, x, min_len) == reference_answers(s, x, min_len)


def test_queries_leave_no_state():
    """Every query of every generator form, Full included, leaves the
    instance's attributes as a fresh instance has them."""
    for s in (Full(), Congruence(3, 1), PowRuns(2), PowRuns(4), PolyRuns(2), PolyRuns(3)):
        fresh = vars(type(s)(*s._values()))
        for x in (-3, 0, 1, 8, 9, 10, 11, 64, 1000, 10**30):
            s.member(x)
            s.run_end_at(x)
            s.first_gap(x, x + 5)
            s.materialize(Window(max(x, 0), 70))
            for min_len in (1, 3):
                s.next_run(min_len, x)
                with contextlib.suppress(BudgetExceeded):
                    s.next_run(min_len, x, digit_limit=0)
        assert vars(s) == fresh, s


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


def bounds_of(runs):
    """run_bounds() of a run list whose runs are the Runs given."""
    return tuple(r.start for r in runs), tuple(r.end for r in runs)


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
        assert isinstance(got, RunList) and got.run_bounds() == bounds_of(want)
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
        elif isinstance(want, tuple):
            assert got.run_bounds() == bounds_of(want)
        else:
            assert got == want


def test_parse_examples():
    assert parse_set("gen pow_runs 4") == PowRuns(4)
    rl = parse_set("run 9 3\nrun 16 4")
    assert rl == RunList([Run(9, 3), Run(16, 4)])
    with pytest.raises(OverlapError):
        parse_set("run 9 3\nrun 10 2")


def test_parse_comments_blank_lines_merge():
    rl = parse_set("# header\nrun 4 2\n\nelem 6  # trailing note\n")
    assert rl.run_bounds() == ((4,), (6,))


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
    for s, text in (
        (PowRuns(4), "gen pow_runs 4\n"),
        (PolyRuns(3), "gen poly_runs 3\n"),
        (Congruence(7, 3), "gen congruence 7 3\n"),
        (Full(), "gen full\n"),
        (RunList([Run(4, 2), Run(9, 1)]), "run 4 2\nelem 9\n"),
        (RunList([]), ""),
    ):
        assert serialize_set(s) == text
        assert parse_set(text) == s
        assert serialize_set(parse_set(text)) == text


@given(run_lists)
def test_serialize_round_trips_random(rl):
    assert parse_set(serialize_set(rl)) == rl


def test_serialize_window_as_runs():
    w = ExplicitWindow(Window(3, 6), 0b011011)
    assert serialize_set(w) == "run 3 2\nrun 6 2\n"
    assert parse_set(serialize_set(w)).run_bounds() == w.run_bounds()


def test_serialize_rejects_affine_wrappers():
    # a set class the grammar has no directive for, such as a wrapper
    # around another set, has no text form
    class Odd(IntSet):
        def member(self, x):
            return x >= 1 and x % 2 == 1

    with pytest.raises(ValueError, match="no text form for Odd"):
        serialize_set(Odd())


# ------------------------------------------------------------------- decimal codec


@contextlib.contextmanager
def int_str_limit(digits):
    """The interpreter's int/str digit limit set to digits inside the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# lengths, in digits, at and around the codec's splits: 512 * 2**j
SPLIT_DIGITS = [n + d for n in (512, 1024, 2048, 4096, 65536) for d in (-1, 0, 1)]


@st.composite
def long_ints(draw):
    """Signed integers of up to 10**5 digits: random ones, and powers of
    ten one off, whose long runs of zeros or nines fill whole chunks."""
    digits = draw(st.integers(1, 5000) | st.integers(1, 100_000) | st.sampled_from(SPLIT_DIGITS))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        x = rng.randrange(10 ** (digits - 1), 10**digits)
    else:
        x = 10 ** (digits - 1) + draw(st.integers(-1, 1))
    return x * draw(st.sampled_from((1, -1)))


@st.composite
def spelled(draw, x):
    """A text int() reads as x: single underscores between digits, some
    digits written in another script, a sign, surrounding whitespace."""
    with int_str_limit(0):
        text = str(abs(x))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        cuts = sorted(rng.sample(range(1, len(text)), min(len(text) - 1, 20)))
        text = "_".join(text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)]))
    if draw(st.booleans()):
        # ARABIC-INDIC digits are decimal digits to int()
        text = text.translate({ord(c): 0x660 + int(c) for c in "0123456789"})
    sign = "-" if x < 0 else draw(st.sampled_from(("", "+")))
    space = draw(st.sampled_from(("", " ", "\t\n ", "\u2003")))
    return f"{space}{sign}{text}{space[::-1]}"


@given(st.data(), long_ints())
@settings(max_examples=40, deadline=None)
def test_decimal_codec_round_trips_and_agrees_with_the_builtins(data, x):
    text = data.draw(spelled(x))
    with int_str_limit(0):
        want_text, want_value = str(x), int(text)
    assert want_value == x
    assert to_decimal(x) == want_text
    assert from_decimal(want_text) == x
    assert from_decimal(text) == x


def test_decimal_codec_needs_no_digit_limit_above_the_smallest():
    # 640 digits is the smallest limit the interpreter accepts
    x = -random.Random(5).getrandbits(332_000)  # about 10**5 digits
    with int_str_limit(0):
        want = str(x)
    with int_str_limit(640):
        assert to_decimal(x) == want
        assert from_decimal(want) == x


@pytest.mark.parametrize("text", [
    "", " ", "+", "-", "1" * 600 + "x", "1" * 300 + " " + "1" * 300, "_" + "1" * 600,
    "1" * 600 + "_", "1" * 300 + "__" + "1" * 300, "+-" + "1" * 600, "- " + "1" * 600,
    "1" * 600 + "\x00",
])
def test_from_decimal_refuses_what_int_refuses_with_its_message(text):
    with int_str_limit(0), pytest.raises(ValueError) as builtin:
        int(text)
    with pytest.raises(ValueError) as codec:
        from_decimal(text)
    assert str(codec.value) == str(builtin.value)


def test_from_decimal_counts_digits_as_int_does():
    at_limit = "1" * DECIMAL_DIGIT_LIMIT
    with int_str_limit(0):
        assert from_decimal(f" -{at_limit}\n") == -int(at_limit)
        # underscores, a sign and whitespace are not digits
        spaced = "_".join(at_limit)
        assert from_decimal(f"+{spaced}") == int(at_limit)
    with pytest.raises(BudgetExceeded, match=f"of {DECIMAL_DIGIT_LIMIT + 1} digits exceeds"):
        from_decimal(at_limit + "1")
    with pytest.raises(BudgetExceeded, match="of 6 digits exceeds the limit of 5"):
        from_decimal("123456", 5)
    assert from_decimal("12345", 5) == 12345


# decimal digits of several scripts, ASCII first; int() reads them all
DIGIT_CHARS = "0123456789\u0663\u06f7\u07c1\u0967\u0e59\U0001d7d7"
# whitespace to str.strip(); int() refuses the separators \x1c and \x1f
SPACE_CHARS = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000"
# no part of an integer: the superscript two is a digit, but not a decimal one
JUNK_CHARS = "x.+- \x00\xe9\xb2"


@st.composite
def int_like_tokens(draw):
    """Text near int()'s grammar: whitespace around a sign and a body of
    digits and underscores, sometimes with a junk character in it.  A body
    repeated 40 times is longer than the codec's 512-digit leaves."""
    space = st.text(SPACE_CHARS, max_size=2)
    body = draw(st.text(DIGIT_CHARS + "_", max_size=16)) * draw(st.sampled_from((1, 1, 40)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(body)))
        body = body[:i] + draw(st.sampled_from(JUNK_CHARS)) + body[i:]
    return draw(space) + draw(st.sampled_from(("", "+", "-"))) + body + draw(space)


@given(int_like_tokens(), st.integers(0, 20) | st.just(512))
@settings(max_examples=500, deadline=None)
def test_from_decimal_reads_as_int_does_and_refuses_by_its_digits(token, limit):
    # int(token) when int() accepts the token and its digits fit the limit,
    # BudgetExceeded when they do not, and int()'s own ValueError otherwise
    with int_str_limit(0):
        try:
            want = int(token)
        except ValueError as exc:
            want = exc
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as refused:
            from_decimal(token, limit)
        assert str(refused.value) == str(want)
    elif sum(map(str.isdecimal, token)) > limit:
        with pytest.raises(BudgetExceeded):
            from_decimal(token, limit)
    else:
        assert from_decimal(token, limit) == want
