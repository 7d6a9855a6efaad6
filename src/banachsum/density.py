"""Windowed occupancy profiles and density estimates.

For a set restricted to a window of length N, the profile value f[n]
(1 <= n <= N) is the maximum number of members in any block of n
consecutive positions inside the window.  The windowed density estimate
is min over n of f[n]/n, an upper bound on how densely the set can pack
any block at the scales the window exposes.

f_profile takes one of two routes by the window's run count R.  Up to
_STAIRCASE_MAX_RUNS (2**10) runs it works in pure Python from run pairs:
the block from one run's start to a later run's end holds C members and
G gap cells, and the running maxima of C over increasing G, a staircase,
give f piecewise linearly in O(N + R**2).  This is the run-length form
of the binary jumbled index (Badkobeh, Fici, Kroon & Liptak, IPL 2013).
Above the cut it works from the shortest span of c members, L[c], for
every count c.  A block that starts on a member with a member just
before it can slide one step left without losing a member, so L[c] is a
minimum over the R run starts only.  L is strictly increasing, so f[n]
is the number of c with L[c] <= n.  That costs O(N + R*M) for M members
in a numpy loop; the worst case, alternating members, costs N**2/8.  The
cut sits where the staircase's R**2 pairs cost as much as a fresh numpy
import, so only profiles of windows with more than 2**10 runs load
numpy, which is imported inside the functions that use it.  So is
fractions, by the two functions that build a Fraction, so only a JSON
profile loads it.  f_naive and f_naive_all are the independent slow
paths kept for cross-checks.

check_run_bound needs no profile at all.  A window with no d consecutive
members meets the bound d*f[n] < (d - 1)*n + d at every n by pigeonhole,
so the longest run alone decides it, found by two routes that must agree:
the streak search of longest_run and the run starts and ends of the
bitmap.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import TYPE_CHECKING

from .errors import BadLength, PreconditionFailed
from .intset import ExplicitWindow, IntSet, Record, _streak

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
        raise BadLength(f"block length must lie in [1, {N}], got {n}")
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
    """Profile values for one window; f[0] is a 0 sentinel so f[n] indexes directly."""

    _fields = ("window_base", "window_length", "f")

    def __init__(self, window_base: int, window_length: int, f: tuple[int, ...]):
        if len(f) != window_length + 1 or f[0] != 0:
            raise ValueError("profile must hold one value per block length plus the 0 sentinel")
        super().__init__(window_base, window_length, f)


class DensityEstimate(Record):
    _fields = ("value", "argmin_n")


# Run count up to which f_profile takes the staircase route.  On random
# runs in a 2**16 window on a 2-core x86-64 host (medians of 5), the
# staircase takes 15 ms at R = 512, 71 ms at R = 1024 and 216 ms at
# R = 2048; the span loop takes 6-16 ms there, and a fresh `import numpy`
# 0.155-0.164 s (median 0.157 s).  The two routes cost the same near
# R = 1750 in a fresh process; the cut is rounded down to a power of two
# because a process that has already imported numpy pays only the loop.
_STAIRCASE_MAX_RUNS = 1 << 10


def f_profile(w: ExplicitWindow) -> WindowProfile:
    """Profile of every block length at once, by the cheaper of two routes.

    The run count R is one popcount of the run starts.  Up to
    _STAIRCASE_MAX_RUNS runs, _profile_from_runs works in pure Python in
    O(N + R**2); above it, _profile_from_spans runs numpy's span loop in
    O(N + R*M), which is the only route fast enough on run-dense windows
    (R = 13 101 at N = 2**16: 0.08 s against 8.9 s).  Both give the same f.
    """
    b = w.bits
    if (b & ~(b << 1)).bit_count() <= _STAIRCASE_MAX_RUNS:
        f = _profile_from_runs(w)
    else:
        f = _profile_from_spans(w)
    return WindowProfile(w.window.base, w.window.length, f)


def _profile_from_runs(w: ExplicitWindow) -> tuple[int, ...]:
    """f from the staircase of run pairs, f[0] = 0 first.

    The block from run r's start to run j's end (r <= j) holds C(r, j)
    members and G(r, j) non-members.  Some block of n positions holds
    min(C, n - G) of its members, and a block whose members lie in runs
    r..j, touching both, holds all G of its gap cells, so
    f[n] = max(0, max over r <= j of min(C(r, j), n - G(r, j))).  Only the
    best C per G matters, and only the running maxima (g_k, c_k) over
    increasing G.  Between them f is piecewise linear: it climbs from
    c_(k-1) + 1 to c_k along n - g_k, then stays at c_k until
    n = g_(k+1) + c_k, so each piece is one list.extend.
    """
    N = w.window.length
    cells = format(w.bits, f"0{N}b")[::-1]
    counts = [0]  # counts[r]: members in the runs before run r
    gaps = []  # gaps[r]: non-members from run 0's start to run r's start
    start = first = cells.find("1")
    while start >= 0:
        end = cells.find("0", start)
        if end < 0:
            end = N
        gaps.append(start - first - counts[-1])
        counts.append(counts[-1] + end - start)
        start = cells.find("1", end)
    best = [0] * (gaps[-1] + 1 if gaps else 1)  # best[G]: largest C(r, j) with G(r, j) = G
    for r, (g0, c0) in enumerate(zip(gaps, counts)):
        for g, c in zip(gaps[r:], counts[r + 1 :]):
            g -= g0
            c -= c0
            if c > best[g]:
                best[g] = c
    f = [0]
    top = 0
    for g, c in enumerate(best):
        if c > top:
            f.extend(repeat(top, g + top + 1 - len(f)))
            f.extend(range(top + 1, c + 1))
            top = c
    f.extend(repeat(top, N + 1 - len(f)))
    return tuple(f)


def _profile_from_spans(w: ExplicitWindow) -> tuple[int, ...]:
    """f from the shortest member spans, f[0] = 0 first.

    With pos the sorted member offsets, span[c - 1] = min over s of
    pos[s + c - 1] - pos[s] is one less than the shortest block holding c
    members.  If pos[s - 1] = pos[s] - 1, the c members from s - 1 span no
    more than those from s, so the minimum is taken over run starts only.
    Dropping the last member of a shortest block shortens it, so span is
    strictly increasing and f[n] = #{c : span[c - 1] < n}.  Every such
    block lies inside the window, so no edge case arises.
    """
    import numpy as np

    N = w.window.length
    # offsets and spans lie in [0, N - 1]; the narrowest type that holds them
    # halves the memory traffic of the loop below at N = 2**16
    pos = np.flatnonzero(_bit_vector(w)).astype(np.min_scalar_type(N - 1))
    M = pos.shape[0]
    run_starts = np.flatnonzero(np.diff(pos, prepend=pos[:1]) != 1).tolist()
    span = pos - pos[0] if M else pos
    for s in run_starts[1:]:
        k = M - s
        np.minimum(span[:k], pos[s:] - pos[s], out=span[:k])
    return tuple(np.searchsorted(span, np.arange(N + 1)).tolist())


def density_estimate(profile: WindowProfile) -> DensityEstimate:
    """min f[n]/n over the window's block lengths, smallest minimizer kept."""
    from fractions import Fraction

    f = profile.f
    best_f, best_n = f[1], 1
    for n in range(2, profile.window_length + 1):
        if f[n] * best_n < best_f * n:
            best_f, best_n = f[n], n
    return DensityEstimate(Fraction(best_f, best_n), best_n)


def check_subadditivity(profile: WindowProfile) -> list[tuple[int, int, int]]:
    """Violations of f[n1 + n2] <= f[n1] + f[n2]; empty means the law holds.

    Every block of n1 + n2 positions splits into a block of n1 and a block
    of n2, so the count of the whole cannot beat the two maxima combined.
    Returned tuples are (n1, n2, excess) with n1 <= n2.
    """
    import numpy as np

    f = np.asarray(profile.f, dtype=np.int64)
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
        raise BadLength(f"divisor must lie in [1, {N}], got {d}")
    import numpy as np

    f = np.asarray(profile.f, dtype=np.int64)
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
    bound is proved, so failures is always empty and ok always True; both
    are kept for the layout of the `runs` report.
    """

    _fields = ("d", "longest_run", "n_checked", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def check_run_bound(w: ExplicitWindow, d: int) -> RunBoundReport:
    """The bound d*f[n] < (d - 1)*n + d at every n, for a window with no
    run of d members (else PreconditionFailed).

    No profile is needed: the bound follows by pigeonhole.  Any n
    consecutive cells hold floor(n/d) disjoint blocks of d cells, and each
    block holds a non-member, so f[n] <= n - floor(n/d) and
    d*f[n] <= d*n - d*floor(n/d) = (d - 1)*n + (n mod d) < (d - 1)*n + d.
    So the longest run alone decides the report.  It is found two ways,
    by longest_run's streak search and as the widest pair of the bitmap's
    run starts and ends; if they differ, that is a bug here, not a usage
    error, and AssertionError names both values.
    """
    if d < 2:
        raise BadLength(f"run bound needs d >= 2, got {d}")
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
    return RunBoundReport(d, lr, w.window.length, ())


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
    """JSON-ready report; exact fractions carried as numerator/denominator."""
    payload = {
        "window": {"base": profile.window_base, "length": profile.window_length},
        "f": list(profile.f[1:]),
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


def profile_csv(profile: WindowProfile) -> str:
    """Rows n,f,fn_over_n with the ratio as an exact reduced fraction."""
    lines = ["n,f,fn_over_n"]
    f = profile.f
    for n in range(1, profile.window_length + 1):
        g = gcd(f[n], n)
        lines.append(f"{n},{f[n]},{f[n] // g}/{n // g}")
    return "\n".join(lines) + "\n"
