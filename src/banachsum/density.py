"""Windowed occupancy profiles and density estimates.

For a set restricted to a window of length N, the profile value f[n]
(1 <= n <= N) is the maximum number of members in any block of n
consecutive positions inside the window.  The windowed density estimate
is min over n of f[n]/n, an upper bound on how densely the set can pack
any block at the scales the window exposes.

f_profile finds a window's shortest spans, which WindowProfile stores and
derives f from, by one of two routes chosen by the run pairs the staircase
must try: _profile_from_runs in pure Python, or _profile_from_spans with
numpy.  f_naive and f_naive_all are the independent slow paths kept for
cross-checks.  density_estimate reads the spans, the two law checks f's
array made from them at once, the reports iter_f, and check_run_bound
needs no profile.  numpy is imported inside the functions that use it,
and fractions by the two that build a Fraction, so only profiles of many
runs with no short period load numpy and only a JSON profile loads
fractions.
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat
from math import gcd
from operator import sub
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import BadLength, PreconditionFailed
from .intset import ExplicitWindow, IntSet, Record, _echo, _streak

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "WindowProfile",
    "DensityEstimate",
    "RunBoundReport",
    "f_naive",
    "f_naive_all",
    "f_profile",
    "density_estimate",
    "check_subadditivity",
    "fekete_qd_check",
    "longest_run",
    "check_run_bound",
    "forced_density",
    "profile_payload",
    "profile_csv",
]

# Elements per slice when a report is written a slice at a time: rows of
# profile_csv, and elements of a top-level array in the CLI's JSON.
SLICE_ITEMS = 4096


def _bit_vector(w: ExplicitWindow):
    """0/1 membership array of length w.window.length, uint8."""
    import numpy as np

    n_bytes = (w.window.length + 7) // 8
    raw = np.frombuffer(w.bits.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: w.window.length]


def f_naive(w: ExplicitWindow, n: int) -> int:
    """Best count over every block of n positions, by direct scan.

    Slow on purpose: this is the reference the fast profile is checked
    against, so it shares no machinery with f_profile.
    """
    N = w.window.length
    if not 1 <= n <= N:
        raise BadLength(f"block length must lie in [1, {N}], got {_echo(n)}")
    mask = (1 << n) - 1
    best = 0
    bits = w.bits
    for u in range(N - n + 1):
        c = ((bits >> u) & mask).bit_count()
        if c > best:
            best = c
            if best == n:
                break
    return best


def f_naive_all(w: ExplicitWindow) -> tuple[int, ...]:
    """All profile values by a widening scan, f[0] = 0 sentinel first.

    Maintains counts[u] = members in [u, u + n - 1]; widening the block by
    one appends the next column.  Independent of both f_naive's bit
    scanning and f_profile's member spans.
    """
    import numpy as np

    a = _bit_vector(w).astype(np.int64)
    N = a.shape[0]
    out = [0]
    counts = a.copy()
    out.append(int(counts.max()))
    for n in range(2, N + 1):
        counts = counts[: N - n + 1] + a[n - 1 :]
        out.append(int(counts.max()))
    return tuple(out)


class WindowProfile(Record):
    """One window's profile as its shortest spans: spans[c - 1] + 1 cells is
    the shortest block holding c members, so the spans strictly increase."""

    _fields = ("window_base", "window_length", "spans")

    def iter_f(self) -> Iterator[int]:
        """f[0..N], each made as it is read: f[n] counts the spans below n."""
        spans = self.spans
        gaps = map(sub, chain(spans, (self.window_length,)), chain((0,), spans))
        return chain((0,), chain.from_iterable(map(repeat, count(), gaps)))

    @property
    def f(self) -> tuple[int, ...]:
        """The tuple of iter_f(), built afresh on each read."""
        return tuple(self.iter_f())


class DensityEstimate(Record):
    """min f[n]/n over a profile as an exact Fraction, value, and the
    smallest n that attains it, argmin_n."""

    _fields = ("value", "argmin_n")


# Square root of the most run pairs f_profile's staircase route tries.  On
# random runs in a 2**16 window on a 2-core x86-64 host (medians of 5), the
# staircase takes 19 ms at R = 512, 60 ms at R = 1024 and 215 ms at
# R = 2048 runs, trying all R**2 pairs; the span loop takes 6-16 ms there,
# and a fresh `import numpy` 0.155-0.164 s (median 0.157 s).  The two
# routes cost the same near R = 1750 in a fresh process; the cut is
# rounded down to a power of two because a process that has already
# imported numpy pays only the loop.
_STAIRCASE_MAX_RUNS = 1 << 10


def f_profile(w: ExplicitWindow) -> WindowProfile:
    """Profile of every block length at once, by the cheaper of two routes.

    The staircase of _profile_from_runs costs O(N + T*R) in pure Python
    for R runs when it starts run pairs at the first T runs only: T = R,
    or P + 1 when the runs repeat with a short period P
    (_staircase_starts).  It is taken when T*R <= _STAIRCASE_MAX_RUNS**2:
    on every window of at most _STAIRCASE_MAX_RUNS runs, and on a
    congruence window of any size.  Otherwise _profile_from_spans runs
    numpy's span loop in O(N + R*M) for M members, which is the only route
    fast enough on aperiodic run-dense windows (R = 13 101 at N = 2**16:
    0.08 s against 8.9 s).  Both give the same spans.
    """
    starts, ends = w.run_bounds()
    tried = _staircase_starts(starts, ends)
    if tried * len(starts) <= _STAIRCASE_MAX_RUNS**2:
        spans = _profile_from_runs(w, tried)
    else:
        spans = _profile_from_spans(w)
    return WindowProfile(w.window.base, w.window.length, spans)


def _staircase_starts(starts: Sequence[int], ends: Sequence[int]) -> int:
    """How many of the R runs [starts[i], ends[i]] the staircase must
    start pairs at: P + 1 for the least period P with
    (P + 1)*R <= _STAIRCASE_MAX_RUNS**2, else R.

    P is a period when runs i and i + P have the same length and the same
    gap after them for 1 <= i <= R - 2 - P, and the last run, which the
    window may cut, is no longer than run R - 1 - P.  Then every pair that
    starts at a run r > P has a copy from run r - P with the same gaps and
    no fewer members.  Equivalently, starts[i + P] - starts[i] for
    1 <= i <= R - 1 - P and ends[i + P] - ends[i] for 1 <= i <= R - 2 - P
    all equal one shift.  Windows of at most _STAIRCASE_MAX_RUNS runs are
    not searched; otherwise fewer than _STAIRCASE_MAX_RUNS**2 // R
    candidates are, each compared run by run up to the first mismatch.
    """
    R = len(starts)
    if R <= _STAIRCASE_MAX_RUNS:
        return R
    last = ends[-1] - starts[-1]
    for p in range(1, _STAIRCASE_MAX_RUNS**2 // R):
        shift = starts[1 + p] - starts[1]
        if (
            last <= ends[-1 - p] - starts[-1 - p]
            and all(map(shift.__eq__, map(sub, islice(starts, 1 + p, R), islice(starts, 1, R))))
            and all(map(shift.__eq__, map(sub, islice(ends, 1 + p, R - 1), islice(ends, 1, R))))
        ):
            return p + 1
    return R


def _profile_from_runs(w: ExplicitWindow, tried: int) -> tuple[int, ...]:
    """The shortest spans from the staircase of run pairs.

    The block from run r's start to run j's end (r <= j) holds C(r, j)
    members and G(r, j) non-members.  Some block of n positions holds
    min(C, n - G) of its members, and a block whose members lie in runs
    r..j, touching both, holds all G of its gap cells, so
    f[n] = max(0, max over r <= j of min(C(r, j), n - G(r, j))).  Only the
    best C per G matters, and only the running maxima (g_k, c_k) over
    increasing G.  So c members first fit in c + g_k cells at the least k
    with c_k >= c, and each new maximum adds the spans of c_(k-1) + 1 to
    c_k in one list.extend.  Pairs start at the first `tried` runs only,
    as _staircase_starts allows: every later pair has a copy with the same
    G and no smaller C.  Each start walks the runs after it with a running
    count, so beside the run bounds only best and the spans are held.  The
    cost is O(N + tried*R) time for R runs and O(N) memory.  This is the
    run-length form of the binary jumbled index (Badkobeh, Fici, Kroon &
    Liptak, IPL 2013).
    """
    starts, ends = w.run_bounds()
    # best[G]: largest C(r, j) with G(r, j) = G; G(0, R - 1) is the largest G
    best = [0] * (ends[-1] - starts[0] + 2 - w.bits.bit_count() if starts else 1)
    for r in range(tried):
        before = starts[r] - 1
        c = 0
        for start, end in zip(islice(starts, r, None), islice(ends, r, None)):
            c += end - start + 1
            g = end - before - c
            if c > best[g]:
                best[g] = c
    spans: list[int] = []
    for g, c in enumerate(best):
        if c > len(spans):
            spans.extend(range(g + len(spans), g + c))
    return tuple(spans)


def _profile_from_spans(w: ExplicitWindow) -> tuple[int, ...]:
    """The shortest spans from the member offsets, by numpy.

    With pos the sorted member offsets, span[c - 1] = min over s of
    pos[s + c - 1] - pos[s] is one less than the shortest block holding c
    members.  If pos[s - 1] = pos[s] - 1, the c members from s - 1 span no
    more than those from s, so the minimum is taken over run starts only,
    whose ranks are the prefix sums of the run lengths of run_bounds().
    Dropping the last member of a shortest block shortens it, so span is
    strictly increasing.  Every such block lies inside the window, so no
    edge case arises.  The loop costs O(N + R*M) for R runs and M members,
    N**2/8 at worst, on alternating members.
    """
    import numpy as np

    # offsets and spans lie in [0, N - 1]; the narrowest type that holds them
    # halves the memory traffic of the loop below at N = 2**16
    pos = np.flatnonzero(_bit_vector(w)).astype(np.min_scalar_type(w.window.length - 1))
    M = pos.shape[0]
    span = pos - pos[0] if M else pos
    starts, ends = w.run_bounds()
    s = 0  # the rank of the next run's first member
    for start, end in zip(starts, ends[:-1]):
        s += end - start + 1
        k = M - s
        np.minimum(span[:k], pos[s:] - pos[s], out=span[:k])
    return tuple(span.tolist())


def density_estimate(profile: WindowProfile) -> DensityEstimate:
    """min f[n]/n over the window's block lengths, smallest minimizer kept:
    f[n]/n falls along each flat piece of f, so only the pieces' ends are
    scanned, n = spans[c] with f = c and n = N with f = M, not f itself."""
    from fractions import Fraction

    spans = profile.spans
    best_f, best_n = (1 if spans else 0), 1
    ends = islice(chain(spans, (profile.window_length,)), 1, None)
    for c, n in enumerate(ends, 1):
        if c * best_n < best_f * n:
            best_f, best_n = c, n
    return DensityEstimate(Fraction(best_f, best_n), best_n)


def _f_array(profile: WindowProfile):
    """f[0..N] as a numpy array, made from the spans at once: f[n] counts
    the spans below n, so one searchsorted of 0..N into them gives it."""
    import numpy as np

    return np.searchsorted(profile.spans, np.arange(profile.window_length + 1))


def check_subadditivity(profile: WindowProfile) -> list[tuple[int, int, int]]:
    """Violations of f[n1 + n2] <= f[n1] + f[n2]; empty means the law holds.

    Every block of n1 + n2 positions splits into a block of n1 and a block
    of n2, so the count of the whole cannot beat the two maxima combined.
    Returned tuples are (n1, n2, excess) with n1 <= n2.
    """
    import numpy as np

    f = _f_array(profile)
    N = profile.window_length
    violations = []
    for n1 in range(1, N // 2 + 1):
        n2 = np.arange(n1, N - n1 + 1)
        excess = f[n1 + n2] - f[n1] - f[n2]
        for idx in np.nonzero(excess > 0)[0]:
            violations.append((n1, int(n2[idx]), int(excess[idx])))
    return violations


def fekete_qd_check(profile: WindowProfile, d: int) -> bool:
    """True iff f[n] <= (n // d) * f[d] + f[n % d] for all n in [d, N]."""
    N = profile.window_length
    if not 1 <= d <= N:
        raise BadLength(f"divisor must lie in [1, {N}], got {_echo(d)}")
    import numpy as np

    f = _f_array(profile)
    ns = np.arange(d, N + 1)
    bound = (ns // d) * f[d] + f[ns % d]
    return bool(np.all(f[ns] <= bound))


def longest_run(w: ExplicitWindow) -> int:
    """Length of the longest block of consecutive members in the window.

    The m = 1 case of intset._streak: O(log L) big-int ANDs for a longest
    run of L members, against L for peeling one member per AND.
    """
    return _streak(w.bits, 1)[0]


class RunBoundReport(Record):
    """Outcome of checking d*f[n] < (d-1)*n + d at every block length.

    The strict bound is the exact integer form of f[n] < (1 - 1/d)*n + 1,
    which must hold whenever the set has no d consecutive members.
    check_run_bound builds a report only under that hypothesis, where the
    bound is proved, so ok and failures are constants, True and empty; the
    `runs` report keeps both in its layout.
    """

    _fields = ("d", "longest_run")
    ok = True
    failures = ()

    def to_payload(self) -> dict:
        return {"d": self.d, "longest_run": self.longest_run, "ok": self.ok,
                "failures": list(self.failures)}


def check_run_bound(w: ExplicitWindow, d: int) -> RunBoundReport:
    """The bound d*f[n] < (d - 1)*n + d at every n, for a window with no
    run of d members (else PreconditionFailed).

    No profile is needed: the bound follows by pigeonhole.  Any n
    consecutive cells hold floor(n/d) disjoint blocks of d cells, and each
    block holds a non-member, so f[n] <= n - floor(n/d) and
    d*f[n] <= d*n - d*floor(n/d) = (d - 1)*n + (n mod d) < (d - 1)*n + d.
    So the longest run alone decides the report.  It is found two ways,
    by longest_run's streak search over the bits and as the widest pair of
    run_bounds(), which for a window _fill built are the runs it was built
    from; if they differ, that is a bug here, not a usage error, and
    AssertionError names both values.
    """
    if d < 2:
        raise BadLength(f"run bound needs d >= 2, got {_echo(d)}")
    lr = longest_run(w)
    starts, ends = w.run_bounds()
    lr_bounds = max((e - s + 1 for s, e in zip(starts, ends)), default=0)
    if lr != lr_bounds:
        raise AssertionError(
            f"longest run is {lr} by streak search but {lr_bounds} from the run bounds"
        )
    if lr >= d:
        raise PreconditionFailed(
            f"window contains a run of {lr} consecutive members, so the "
            f"no-run-of-{d} hypothesis does not hold"
        )
    return RunBoundReport(d, lr)


def forced_density(s: IntSet) -> Fraction | None:
    """Exact density when the representation pins it down, else None.

    Each generator states its own as _density, a (numerator, denominator)
    pair; every other set leaves it None.
    """
    from fractions import Fraction

    density = s._density
    return None if density is None else Fraction(*density)


def profile_payload(
    profile: WindowProfile,
    estimate: DensityEstimate,
    generator_density: Fraction | None = None,
) -> dict:
    """JSON-ready report; exact fractions carried as numerator/denominator.

    "f" iterates over f[1..N], each value made as the CLI writes it.
    """
    payload = {
        "window": {"base": profile.window_base, "length": profile.window_length},
        "f": islice(profile.iter_f(), 1, None),
        "density": {
            "num": estimate.value.numerator,
            "den": estimate.value.denominator,
            "argmin": estimate.argmin_n,
        },
    }
    if generator_density is not None:
        payload["generator_density"] = {
            "num": generator_density.numerator,
            "den": generator_density.denominator,
        }
    return payload


def profile_csv(profile: WindowProfile) -> Iterator[str]:
    """Rows n,f,fn_over_n with the ratio as an exact reduced fraction.

    The text comes as slices: the header line, then SLICE_ITEMS rows at a
    time, every row ending in a newline, so a caller that writes each
    slice as it comes never holds the whole CSV, and f's values are made
    as their rows are.  The CLI does: at WINDOW_BITS_BUDGET, `profile
    --format csv` on `gen poly_runs 2` peaks at about 51 MB RSS, mostly
    the staircase and the spans (2-core x86-64 host, Python 3.11.7).
    """
    yield "n,f,fn_over_n\n"
    f, N = islice(profile.iter_f(), 1, None), profile.window_length
    for lo in range(1, N + 1, SLICE_ITEMS):
        rows = []
        for n, fn in zip(range(lo, min(lo + SLICE_ITEMS, N + 1)), f):
            g = gcd(fn, n)
            rows.append(f"{n},{fn},{fn // g}/{n // g}\n")
        yield "".join(rows)
