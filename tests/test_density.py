"""Occupancy profiles: oracle equivalence, subadditive laws, run bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from banachsum import density
from banachsum.density import (
    _STAIRCASE_MAX_RUNS,
    DensityEstimate,
    RunBoundReport,
    WindowProfile,
    _profile_from_runs,
    _profile_from_spans,
    _staircase_starts,
    check_run_bound,
    check_subadditivity,
    density_estimate,
    f_naive,
    f_naive_all,
    f_profile,
    fekete_qd_check,
    forced_density,
    longest_run,
    profile_csv,
    profile_payload,
)
from banachsum.errors import BadLength, PreconditionFailed
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
from strategies import shaped_windows


@st.composite
def explicit_windows(draw, max_len=256):
    base = draw(st.integers(min_value=0, max_value=30))
    length = draw(st.integers(min_value=1, max_value=max_len))
    bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    if base == 0:
        bits &= ~1
    return ExplicitWindow(Window(base, length), bits)


def clear_long_runs(w: ExplicitWindow, d: int) -> ExplicitWindow:
    """Punch a hole into every run that would reach length d."""
    bits = w.bits
    streak = 0
    for off in range(w.window.length):
        if (bits >> off) & 1:
            streak += 1
            if streak == d:
                bits &= ~(1 << off)
                streak = 0
        else:
            streak = 0
    return ExplicitWindow(w.window, bits)


def peel_longest_run(w: ExplicitWindow) -> int:
    """Longest run by peeling one member off every run per AND, L
    full-width ANDs for a longest run of L: the oracle for longest_run."""
    x = w.bits
    length = 0
    while x:
        x &= x >> 1
        length += 1
    return length


def reference_run_bound(w: ExplicitWindow, d: int) -> RunBoundReport:
    """check_run_bound by exhaustion: the longest run by peeling, then the
    bound tested at every block length of the full profile, which must hold
    at each, as the report's constant ok and empty failures state."""
    if d < 2:
        raise BadLength(f"run bound needs d >= 2, got {d}")
    lr = peel_longest_run(w)
    if lr >= d:
        raise PreconditionFailed(
            f"window contains a run of {lr} consecutive members, so the "
            f"no-run-of-{d} hypothesis does not hold"
        )
    f = f_profile(w).f
    failures = tuple(
        (n, f[n]) for n in range(1, len(f)) if d * f[n] >= (d - 1) * n + d
    )
    assert failures == RunBoundReport.failures, failures
    return RunBoundReport(d, lr)


ODDS8 = Congruence(2, 1).materialize(Window(0, 8))
FULL8 = Full().materialize(Window(1, 8))


def test_f_naive_examples():
    assert f_naive(FULL8, 5) == 5
    assert f_naive(ODDS8, 3) == 2
    empty = ExplicitWindow(Window(0, 8), 0)
    assert f_naive(empty, 4) == 0
    with pytest.raises(BadLength):
        f_naive(ODDS8, 0)
    with pytest.raises(BadLength):
        f_naive(ODDS8, 9)


def test_profile_examples():
    assert f_profile(FULL8).f[1:] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert f_profile(ODDS8).f[1:] == (1, 1, 2, 2, 3, 3, 4, 4)
    assert f_profile(ExplicitWindow(Window(0, 6), 0)).f == (0,) * 7


def test_density_examples():
    est = density_estimate(f_profile(ODDS8))
    assert est == DensityEstimate(Fraction(1, 2), 2)
    assert density_estimate(f_profile(FULL8)).value == 1
    single = RunList([Run(5, 1)]).materialize(Window(0, 16))
    est = density_estimate(f_profile(single))
    assert est.value == Fraction(1, 16) and est.argmin_n == 16


def test_density_smallest_argmin_on_ties():
    # f = (1, 2): both n give ratio 1; the smaller n wins
    est = density_estimate(WindowProfile(0, 2, (0, 1)))
    assert est.argmin_n == 1


def scan_density(f: tuple[int, ...]) -> DensityEstimate:
    """min f[n]/n by trying every n in [1, N], smallest minimizer kept:
    the reference for density_estimate, which tries only the ends of f's
    flat pieces."""
    best_f, best_n = f[1], 1
    for n in range(2, len(f)):
        if f[n] * best_n < best_f * n:
            best_f, best_n = f[n], n
    return DensityEstimate(Fraction(best_f, best_n), best_n)


@pytest.mark.parametrize("N, spans", [
    (1, ()), (1, (0,)), (7, ()), (4, (0, 3)),
    # ties: 1/1 = 2/2 = 3/3; 1/2 = 2/4 at a piece end and at N; 1/2 = 2/4
    # at two piece ends
    (3, (0, 1, 2)), (4, (0, 2)), (5, (0, 2, 4)),
])
def test_density_matches_the_full_scan_on_small_and_tied_profiles(N, spans):
    profile = WindowProfile(0, N, spans)
    assert density_estimate(profile) == scan_density(profile.f)


def test_density_reads_only_the_spans(monkeypatch):
    profiles = [f_profile(w) for w in (ODDS8, FULL8, ExplicitWindow(Window(0, 6), 0))]
    want = [scan_density(p.f) for p in profiles]

    def no_f(self):
        raise AssertionError("density_estimate read f")

    monkeypatch.setattr(WindowProfile, "f", property(no_f))
    monkeypatch.setattr(WindowProfile, "iter_f", no_f)
    assert [density_estimate(p) for p in profiles] == want


class RunsOnly:
    """A window that holds its cells and its runs, and no bits."""

    def __init__(self, w):
        self.window, self.bounds = w.window, w.run_bounds()

    def run_bounds(self):
        return self.bounds


@given(explicit_windows() | shaped_windows())
@settings(max_examples=200)
def test_profile_matches_naive_everywhere(w):
    # every window here is under the route cut, so both routes are called
    # by name, from the starts the period search leaves and from all of
    # them: they return the same spans, whose f is the naive one, and the
    # density read from the spans is the full scan's
    starts, ends = w.run_bounds()
    tried = _staircase_starts(starts, ends)
    spans = _profile_from_runs(starts, ends, len(starts))
    for route in (_profile_from_runs, _profile_from_spans):
        assert route(starts, ends, tried) == route(starts, ends, len(starts)) == spans
    profile = f_profile(w)
    assert profile == WindowProfile(w.window.base, w.window.length, spans)
    assert f_profile(RunsOnly(w)) == profile
    f = profile.f
    assert f == f_naive_all(w)
    assert density_estimate(profile) == scan_density(f)


def windows_with_runs(R):
    """Two windows of exactly R runs: single members two apart, and runs
    of lengths 1..5 between gaps of 1..3."""
    alternating = ExplicitWindow(Window(1, 2 * R), int("01" * R, 2))
    bits, off = 0, 0
    for i in range(R):
        off += i % 3 + 1
        bits |= ((1 << i % 5 + 1) - 1) << off
        off += i % 5 + 1
    return alternating, ExplicitWindow(Window(0, off + 2), bits)


@pytest.mark.parametrize("R", [_STAIRCASE_MAX_RUNS, _STAIRCASE_MAX_RUNS + 1])
def test_routes_agree_on_both_sides_of_the_cut(R):
    for w in windows_with_runs(R):
        starts, ends = w.run_bounds()
        assert len(starts) == R
        profile = f_profile(w)
        for route in (_profile_from_runs, _profile_from_spans):
            assert route(starts, ends, R) == profile.spans
        assert profile.f == f_naive_all(w)
        assert f_profile(RunsOnly(w)) == profile


@pytest.mark.parametrize("m", [2, 3])
def test_periodic_window_of_1024_runs_tries_two_starts(m, monkeypatch):
    # at the cut the period search still runs: a congruence window of
    # _STAIRCASE_MAX_RUNS runs starts pairs at its first two runs only
    w = Congruence(m, 1).materialize(Window(0, m * _STAIRCASE_MAX_RUNS))
    starts, ends = w.run_bounds()
    assert len(starts) == _STAIRCASE_MAX_RUNS and _staircase_starts(starts, ends) == 2
    seen = []
    staircase = density._profile_from_runs

    def spy(starts, ends, tried):
        seen.append(tried)
        return staircase(starts, ends, tried)

    monkeypatch.setattr(density, "_profile_from_runs", spy)
    assert f_profile(w).f == f_naive_all(w)
    assert seen == [2]


def test_span_route_takes_offsets_past_64_bits(monkeypatch):
    # 3000 runs of 1-3 members between gaps of 1-4 cells, seeded so that
    # they repeat with no period: the profile takes the span loop, whose
    # offsets from the first start fit numpy however large the base
    rng = random.Random(0)
    runs, off = [], 0
    for _ in range(3000):
        runs.append((off, rng.randint(1, 3)))
        off += runs[-1][1] + rng.randint(1, 4)
    seen = []
    spans = density._profile_from_spans

    def spy(starts, ends, tried):
        seen.append(tried)
        return spans(starts, ends, tried)

    monkeypatch.setattr(density, "_profile_from_spans", spy)
    far, near = (
        RunList(Run(base + s, n) for s, n in runs).materialize(Window(base, off))
        for base in (10**30, 1)
    )
    assert f_profile(RunsOnly(far)).spans == f_profile(near).spans
    assert seen == [3000, 3000]


@st.composite
def periodic_windows(draw):
    """A window cut at a random phase from a repeating bit pattern, the
    number of runs in one repeat, and which defect, if any, breaks the
    repeat: one flipped cell, or a last run made longer than its copy."""
    q = draw(st.integers(1, 12))
    pattern = draw(st.integers(1, (1 << q) - 1))
    phase = draw(st.integers(0, q - 1))
    base = draw(st.integers(0, 5))
    length = draw(st.integers(1, 300))
    bits = sum(1 << t for t in range(length) if pattern >> (t + phase) % q & 1)
    defect = draw(st.sampled_from(["none", "flip", "tail"]))
    if defect == "flip":
        # anywhere, or where it breaks the period of the last runs only
        near_end = st.integers(max(0, length - 2 * q - 2), length - 1)
        bits ^= 1 << draw(st.one_of(st.integers(0, length - 1), near_end))
    elif defect == "tail":
        bits |= ((1 << q + 1) - 1) << length >> q + 1
    if base == 0:
        bits &= ~1
    # runs per repeat: the 0 -> 1 steps around the cyclic pattern
    per_repeat = (pattern & ~(pattern << 1 | pattern >> q - 1)).bit_count()
    return ExplicitWindow(Window(base, length), bits), per_repeat, defect


@given(periodic_windows(), st.sampled_from([4, _STAIRCASE_MAX_RUNS]))
# runs 1 and 3 start two cells apart from the runs after them but split
# those cells into run and gap differently: no period 2
@example((ExplicitWindow(Window(1, 11), int("10100101101"[::-1], 2)), 2, "flip"), 4)
@settings(max_examples=1000)
def test_pruned_staircase_matches_naive(case, cut):
    # the period search runs at every run count, and the product of tried
    # starts and runs picks the route: at the default cut every window
    # here takes the staircase, and with the cut lowered most take the
    # span loop
    w, per_repeat, defect = case
    starts, ends = w.run_bounds()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_STAIRCASE_MAX_RUNS", cut)
        tried = _staircase_starts(starts, ends)
        profile = f_profile(w)
    assert profile.f == f_naive_all(w)
    R = len(starts)
    assert 1 <= tried <= R or R == 0
    for route in (_profile_from_runs, _profile_from_spans):
        assert route(starts, ends, tried) == route(starts, ends, R) == profile.spans
    if defect == "none" and per_repeat + 2 <= R and (per_repeat + 1) * R <= cut**2:
        # the repeat is a period below the bound, so the search stops there
        assert tried <= per_repeat + 1


@given(explicit_windows(max_len=48))
@settings(max_examples=30)
def test_batch_naive_matches_pointwise_naive(w):
    values = f_naive_all(w)
    for n in range(1, w.window.length + 1):
        assert values[n] == f_naive(w, n)


@given(explicit_windows())
@settings(max_examples=60)
def test_profile_monotone_with_unit_steps(w):
    f = f_profile(w).f
    for n in range(1, len(f) - 1):
        assert f[n] <= f[n + 1] <= f[n] + 1
    for n in range(1, len(f)):
        assert 0 <= f[n] <= n


@given(explicit_windows())
@settings(max_examples=60)
def test_subadditivity_exhaustive(w):
    assert check_subadditivity(f_profile(w)) == []


def test_subadditivity_flags_bad_profile():
    # f = (0, 1, 1, 1, 2, 3), and f[5] = 3 > f[2] + f[3] = 2
    assert check_subadditivity(WindowProfile(0, 5, (0, 3, 4))) == [(2, 3, 1)]


@given(explicit_windows())
@settings(max_examples=60)
def test_law_checks_build_f_from_the_spans_once(w):
    """The laws read f as one array searched from the spans, equal to
    profile.f, and never build the tuple f itself."""
    profile = f_profile(w)
    assert density._f_array(profile).tolist() == list(profile.f)

    def no_f(self):
        raise AssertionError("a law check read f")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WindowProfile, "f", property(no_f))
        patch.setattr(WindowProfile, "iter_f", no_f)
        assert check_subadditivity(profile) == []
        N = w.window.length
        assert all(fekete_qd_check(profile, d) for d in {1, min(2, N), N})


def test_fekete_examples():
    odds = f_profile(ODDS8)
    assert fekete_qd_check(odds, 2)
    assert all(fekete_qd_check(f_profile(FULL8), d) for d in range(1, 9))
    with pytest.raises(BadLength):
        fekete_qd_check(odds, 9)


@given(explicit_windows(), st.integers(1, 64))
@settings(max_examples=60)
def test_fekete_any_divisor(w, d):
    if d <= w.window.length:
        assert fekete_qd_check(f_profile(w), d)


@given(explicit_windows())
@settings(max_examples=40)
def test_ratio_bounded_by_block_decomposition(w):
    # f[n]/n <= f[d]/d + max_{r<d} f[r]/n for every d <= n
    f = f_profile(w).f
    N = w.window.length
    for d in range(1, N + 1):
        cap = max(f[:d])
        for n in range(d, N + 1):
            # f[n]/n <= f[d]/d + cap/n, times n*d
            assert f[n] * d <= f[d] * n + cap * d


def test_longest_run_examples():
    big = PowRuns(4).materialize(Window(0, 4**5 + 5))
    assert longest_run(big) == 5
    assert longest_run(ODDS8) == 1
    assert longest_run(FULL8) == 8
    assert longest_run(ExplicitWindow(Window(0, 9), 0)) == 0


@given(explicit_windows() | shaped_windows())
@settings(max_examples=120)
def test_longest_run_matches_peeling(w):
    assert longest_run(w) == peel_longest_run(w)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 13])
def test_longest_run_at_powers_of_two(k):
    # the doubling stops one step past the longest run, so runs of 2**k - 1,
    # 2**k and 2**k + 1 members meet the binary search at both ends
    for length in (2**k - 1, 2**k, 2**k + 1):
        for other in (0, length - 1, length + 1):
            bits = ((1 << length) - 1) << 1 | ((1 << other) - 1) << length + 2
            w = ExplicitWindow(Window(0, length + other + 3), bits)
            assert longest_run(w) == peel_longest_run(w) == max(length, other)


def test_longest_run_of_the_widest_window():
    # the CLI's widest window: peeling takes 2**20 ANDs here, the streak
    # search about 40
    n = 1 << 20
    assert longest_run(Full().materialize(Window(0, n))) == n - 1
    assert longest_run(Full().materialize(Window(7, n))) == n


@given(explicit_windows())
@settings(max_examples=60)
def test_full_run_iff_density_one(w):
    est = density_estimate(f_profile(w))
    assert (longest_run(w) == w.window.length) == (est.value == 1)


def test_run_bound_examples():
    report = check_run_bound(ODDS8, 2)
    assert report.ok and report.longest_run == 1
    assert report == RunBoundReport(2, 1)
    with pytest.raises(PreconditionFailed):
        check_run_bound(FULL8, 2)
    with pytest.raises(BadLength):
        check_run_bound(ODDS8, 1)


@given(explicit_windows(), st.sampled_from([2, 3, 4, 8]))
@settings(max_examples=80)
def test_run_bound_matches_exhaustive_reference(w, d):
    w = clear_long_runs(w, d)
    assert check_run_bound(w, d) == reference_run_bound(w, d)


@given(explicit_windows(), st.integers(2, 8), st.integers(0, 255))
@settings(max_examples=80)
def test_run_bound_refuses_like_reference(w, d, off):
    # plant a run of d members; bit 0 of a window at 0 stays clear
    lo = 1 if w.window.base == 0 else 0
    assume(w.window.length - d >= lo)
    off = lo + off % (w.window.length - d - lo + 1)
    w = ExplicitWindow(w.window, w.bits | ((1 << d) - 1) << off)
    with pytest.raises(PreconditionFailed) as got:
        check_run_bound(w, d)
    with pytest.raises(PreconditionFailed) as ref:
        reference_run_bound(w, d)
    assert str(got.value) == str(ref.value)


def test_run_bound_needs_no_profile(monkeypatch):
    # the pigeonhole proof replaces the profile, also over the staircase
    # cut, where the profile would take numpy's span loop
    import banachsum.density as density

    def no_profile(w):
        raise AssertionError("f_profile called")

    for w in windows_with_runs(_STAIRCASE_MAX_RUNS + 1):
        expected = reference_run_bound(w, 6)
        monkeypatch.setattr(density, "f_profile", no_profile)
        assert check_run_bound(w, 6) == expected
        monkeypatch.undo()


def test_run_bound_routes_must_agree(monkeypatch):
    import banachsum.density as density

    monkeypatch.setattr(density, "longest_run", lambda w: 2)
    with pytest.raises(AssertionError, match="2 by streak search but 1 from the run bounds"):
        check_run_bound(ODDS8, 4)


@given(explicit_windows(), st.sampled_from([2, 4, 8]))
@settings(max_examples=60)
def test_run_bound_after_conditioning(w, d):
    w = clear_long_runs(w, d)
    assert longest_run(w) < d
    report = check_run_bound(w, d)
    assert report.ok, report.failures
    # the strict rational inequality, restated without the int shortcut
    f = f_profile(w).f
    for n in range(1, w.window.length + 1):
        assert Fraction(f[n]) < (1 - Fraction(1, d)) * n + 1


def test_forced_density_values():
    assert forced_density(Full()) == 1
    assert forced_density(PowRuns(4)) == 1
    assert forced_density(PolyRuns(2)) == 1
    assert forced_density(Congruence(6, 1)) == Fraction(1, 6)
    assert forced_density(RunList([Run(3, 1)])) is None
    assert forced_density(Full().materialize(Window(0, 8))) is None


def test_payload_and_csv_shapes():
    profile = f_profile(ODDS8)
    est = density_estimate(profile)
    payload = profile_payload(profile, est, forced_density(Congruence(2, 1)))
    assert payload["window"] == {"base": 0, "length": 8}
    assert tuple(payload["f"]) == (1, 1, 2, 2, 3, 3, 4, 4)
    assert payload["density"] == {"num": 1, "den": 2, "argmin": 2}
    assert payload["generator_density"] == {"num": 1, "den": 2}

    csv = "".join(profile_csv(profile)).splitlines()
    assert csv[0] == "n,f,fn_over_n"
    assert csv[1] == "1,1,1/1"
    assert csv[2] == "2,1,1/2"
    assert len(csv) == 9
