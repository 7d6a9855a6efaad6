"""Exact representations of sets of positive integers built from runs.

A set is either finite and explicit (a window bitmap or a list of runs of
consecutive integers) or an infinite symbolic generator (all positive
integers, a congruence class, or an indexed family of runs whose i-th run
has length i).  Every representation answers membership, run search,
translation, and dilation with exact arbitrary-precision arithmetic, so
queries against astronomically large elements stay cheap and correct.

All values are immutable once constructed and safe to share across
threads.  The state that changes is caches that never change an answer:
the run bracket PowRuns and PolyRuns remember between queries, the run
bounds of an ExplicitWindow and the Run tuple of a RunList, each built on
first use.  The integer 0 is never a member of any set here, even when an
explicit window happens to cover it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import HorizonExceeded, NegativeResult, OverlapError, ParseError, PreconditionFailed

__all__ = [
    "Run",
    "Window",
    "IntSet",
    "ExplicitWindow",
    "RunList",
    "PowRuns",
    "PolyRuns",
    "Congruence",
    "Full",
    "AffineImage",
    "parse_set",
    "serialize_set",
    "nth_root_floor",
    "decimal_digits",
]


def decimal_digits(x: int) -> int:
    """Decimal digit count of x >= 0, via bit length (log10(2) ~ 0.30103)."""
    if x < 10:
        return 1
    return (x.bit_length() * 30103) // 100000 + 1


def nth_root_floor(x: int, p: int) -> int:
    """Largest r >= 0 with r**p <= x, by integer Newton iteration."""
    if x < 0:
        raise ValueError("negative radicand")
    if p < 1:
        raise ValueError("root degree must be >= 1")
    if p == 1 or x < 2:
        return x
    if p == 2:
        return math.isqrt(x)
    # start from an overestimate so the iteration decreases monotonically
    r = 1 << -(-x.bit_length() // p)
    while True:
        nr = ((p - 1) * r + x // r ** (p - 1)) // p
        if nr >= r:
            break
        r = nr
    while r ** p > x:
        r -= 1
    while (r + 1) ** p <= x:
        r += 1
    return r


class Record:
    """Immutable value with equality, hashing and repr over its fields.

    A subclass names its fields in _fields, once.  Record.__init__ binds
    them like a signature: positional values first, then the rest by
    name, with a class attribute of a field's name as its default.  Too
    many values, an unknown name or a missing field without a default
    raise TypeError.  Each value is stored with object.__setattr__, past
    the guard below, which writes the instance's attribute values inline
    on CPython 3.11; storing through self.__dict__ would build a dict
    object for every instance, 64 bytes more per Run.  A subclass defines
    its own __init__ only to check its values, then hands them to
    super().__init__.  Instances compare equal when they are of the same
    class with equal fields, hash as their field tuple and print as
    Run(start=1, length=2).  Assigning or deleting an attribute raises
    AttributeError.  Instances keep their __dict__, so copy and pickle
    restore it directly.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            if len(values) > len(fields):
                raise TypeError(
                    f"{type(self).__name__} takes {len(fields)} field(s), got {len(values)}"
                )
            values = list(values)
            for name in fields[len(values):]:
                if name in named:
                    values.append(named.pop(name))
                elif hasattr(type(self), name):
                    values.append(getattr(type(self), name))
                else:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            if named:
                raise TypeError(
                    f"{type(self).__name__} got unexpected or repeated field(s) "
                    + ", ".join(map(repr, named))
                )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Run(Record):
    """The interval of consecutive integers [start, start + length - 1]."""

    _fields = ("start", "length")

    def __init__(self, start: int, length: int):
        if start < 1:
            raise ValueError(f"run start must be positive, got {start}")
        if length < 1:
            raise ValueError(f"run length must be >= 1, got {length}")
        super().__init__(start, length)

    @property
    def end(self) -> int:
        return self.start + self.length - 1

    def __contains__(self, x: int) -> bool:
        return self.start <= x <= self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))


class Window(Record):
    """A finite evaluation region [base, base + length - 1] of the line."""

    _fields = ("base", "length")

    def __init__(self, base: int, length: int):
        if base < 0:
            raise ValueError(f"window base must be >= 0, got {base}")
        if length < 1:
            raise ValueError(f"window length must be >= 1, got {length}")
        super().__init__(base, length)

    @property
    def end(self) -> int:
        return self.base + self.length - 1


class IntSet:
    """Base class for immutable sets of positive integers.

    Subclasses fall in two groups.  Finite representations (ExplicitWindow,
    RunList) store their elements outright.  Symbolic representations
    (Full, Congruence, PowRuns, PolyRuns, AffineImage) answer queries by
    formula and may describe infinite sets.

    A subclass supplies member, run_end_at, next_run and min_element.
    run_end_at is the one run query: first_gap is derived from it here, and
    translate and dilate default to an AffineImage.  ExplicitWindow
    overrides both with a bitmap and RunList overrides translate with a run
    list; a dilated RunList is an AffineImage, which materializes only the
    window asked for.
    """

    # (numerator, denominator) of the set's density when the representation
    # pins it down, else None; read by density.forced_density
    _density: tuple[int, int] | None = None

    def member(self, x: int) -> bool:
        """Exact membership; always False for x < 1."""
        raise NotImplementedError

    def translate(self, t: int) -> IntSet:
        """The set {x + t}; raises NegativeResult if any x + t < 1."""
        return AffineImage.of(self, 1, t)

    def dilate(self, m: int, r: int = 0) -> IntSet:
        """The set {m*x + r} for m >= 1, r >= 0."""
        _check_dilation(m, r)
        return AffineImage.of(self, m, r)

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run | None:
        """Smallest-start run of min_len consecutive members at or above lower_bound.

        Returns a Run of exactly min_len (its start may sit inside a longer
        run of the set), None when the set provably has no such run, and
        raises HorizonExceeded when a finite representation is exhausted
        without an answer.
        """
        raise NotImplementedError

    def next_run_start_digits(self, min_len: int, lower_bound: int = 0) -> int | None:
        """Rough decimal digit count of next_run's start, without computing it.

        Run generators grow so fast that the start of the next admissible
        run can be too large to represent at all; this estimate (within a
        couple of digits when not None) lets callers enforce size budgets
        before asking for the run.  None means "unknown, but searching is
        safe".
        """
        return None

    def first_gap(self, start: int, end: int) -> int | None:
        """Smallest x in [start, end] that is not a member, or None."""
        if start > end:
            return None
        stop = self.run_end_at(start)
        if stop is None or stop >= end:
            return None
        # maximal runs are separated by gaps, so stop+1 is a non-member;
        # it is start itself when start is not a member
        return stop + 1

    def run_end_at(self, x: int) -> int | None:
        """End of the maximal run of members through x, for any integer x.

        A non-member, including every x < 1, lies on an empty run and gets
        x - 1.  None means the run is unbounded above.  Every interval
        question reduces to this one: [x, y] lies inside the set exactly
        when the answer is None or at least y.
        """
        raise NotImplementedError

    def min_element(self) -> int | None:
        raise NotImplementedError

    def materialize(self, window: Window) -> "ExplicitWindow":
        """Exact bitmap of the intersection with the window."""
        bits = 0
        for off in range(window.length):
            if self.member(window.base + off):
                bits |= 1 << off
        return ExplicitWindow(window, bits)


class ExplicitWindow(IntSet):
    """Bitmap of a set's intersection with a finite window.

    Bit i of ``bits`` records membership of ``window.base + i``.  Whatever
    the set looked like outside the window is not represented; as a set
    value, an ExplicitWindow contains exactly its set bits.
    """

    __slots__ = ("window", "bits", "_bounds")

    def __init__(self, window: Window, bits: int):
        if bits < 0 or bits >> window.length:
            raise ValueError("bitmap does not fit the window")
        if window.base == 0 and bits & 1:
            raise ValueError("0 cannot be a member of a positive-integer set")
        self.window = window
        self.bits = bits
        self._bounds = None

    def member(self, x: int) -> bool:
        if x < 1 or not self.window.base <= x <= self.window.end:
            return False
        return bool((self.bits >> (x - self.window.base)) & 1)

    def count(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> Iterator[int]:
        """Members in ascending order."""
        yield from _bit_offsets(self.bits, self.window.base)

    def min_element(self) -> int | None:
        if self.bits == 0:
            return None
        return self.window.base + (self.bits & -self.bits).bit_length() - 1

    def run_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """First and last members of the maximal runs, ascending.

        A run starts at a member whose lower neighbour is absent and ends
        at one whose upper neighbour is absent, so the i-th start and the
        i-th end bound the i-th run.  The two scans of the bitmap run on
        the first call; the tuples they give are kept for later calls.
        """
        if self._bounds is None:
            b, base = self.bits, self.window.base
            self._bounds = (
                tuple(_bit_offsets(b & ~(b << 1), base)),
                tuple(_bit_offsets(b & ~(b >> 1), base)),
            )
        return self._bounds

    def runs(self) -> list[Run]:
        """Maximal runs of members, ascending."""
        return [Run(s, e - s + 1) for s, e in zip(*self.run_bounds())]

    def to_run_list(self) -> "RunList":
        starts, ends = self.run_bounds()
        return RunList._from_bounds(list(starts), list(ends))

    def translate(self, t: int) -> "ExplicitWindow":
        if t == 0:
            return self
        lo = self.min_element()
        if lo is not None and lo + t < 1:
            raise NegativeResult(f"element {lo} shifted by {t} leaves the positive integers")
        new_base = self.window.base + t
        if new_base >= 0:
            return ExplicitWindow(Window(new_base, self.window.length), self.bits)
        # re-anchor at 0; the dropped low positions are all below any element
        shift = -new_base
        if shift >= self.window.length:
            return ExplicitWindow(Window(0, 1), 0)
        return ExplicitWindow(Window(0, self.window.length - shift), self.bits >> shift)

    def dilate(self, m: int, r: int = 0) -> "ExplicitWindow":
        _check_dilation(m, r)
        if m == 1:
            return self.translate(r)
        w = Window(self.window.base * m + r, (self.window.length - 1) * m + 1)
        return ExplicitWindow(w, _spread(self.bits, self.window.length, m))

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        return _first_fit(*self.run_bounds(), 0, min_len, lower_bound, "inside the window")

    def run_end_at(self, x: int) -> int:
        off = x - self.window.base
        if off < 0:
            return x - 1
        tail = self.bits >> off
        ones = (~tail & (tail + 1)).bit_length() - 1
        return x + ones - 1

    def materialize(self, window: Window) -> "ExplicitWindow":
        if window == self.window:
            return self
        delta = self.window.base - window.base
        bits = self.bits << delta if delta >= 0 else self.bits >> -delta
        bits &= (1 << window.length) - 1
        return ExplicitWindow(window, bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitWindow)
            and self.window == other.window
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.window, self.bits))

    def __repr__(self) -> str:
        return f"ExplicitWindow({self.window!r}, count={self.count()})"


class RunList(IntSet):
    """Finite set stored as sorted, disjoint, non-adjacent runs.

    Overlapping or adjacent input runs are merged at construction, so the
    stored runs are maximal and separated by gaps of at least one integer.
    They are kept as two ascending int lists, the first and last members of
    each run; ``runs``, the same runs as a tuple of Run, is built from them
    on first access and cached.
    """

    __slots__ = ("_starts", "_ends", "_runs")

    def __init__(self, runs: Iterable[Run] = ()):
        self._starts, self._ends, _ = _merge_spans(sorted((r.start, r.end) for r in runs))
        self._runs = None

    @classmethod
    def _from_bounds(cls, starts: list[int], ends: list[int]) -> "RunList":
        """The run list of maximal runs [starts[i], ends[i]], taken as given."""
        rl = cls.__new__(cls)
        rl._starts, rl._ends, rl._runs = starts, ends, None
        return rl

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "RunList":
        return cls(Run(x, 1) for x in set(elements))

    @property
    def runs(self) -> tuple[Run, ...]:
        if self._runs is None:
            self._runs = tuple(Run(s, e - s + 1) for s, e in zip(self._starts, self._ends))
        return self._runs

    def member(self, x: int) -> bool:
        return self.run_end_at(x) >= x

    def elements(self) -> Iterator[int]:
        for s, e in zip(self._starts, self._ends):
            yield from range(s, e + 1)

    def min_element(self) -> int | None:
        return self._starts[0] if self._starts else None

    def max_element(self) -> int | None:
        return self._ends[-1] if self._ends else None

    def translate(self, t: int) -> "RunList":
        if t == 0 or not self._starts:
            return self
        if self._starts[0] + t < 1:
            raise NegativeResult(
                f"element {self._starts[0]} shifted by {t} leaves the positive integers"
            )
        return RunList._from_bounds(
            [s + t for s in self._starts], [e + t for e in self._ends]
        )

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        """Scans from the run through or after lower_bound, found by
        bisection: every run before it ends below lower_bound."""
        first = max(bisect_right(self._starts, lower_bound) - 1, 0)
        return _first_fit(
            self._starts, self._ends, first, min_len, lower_bound, "in the run list"
        )

    def run_end_at(self, x: int) -> int:
        i = bisect_right(self._starts, x) - 1
        if i >= 0 and x <= self._ends[i]:
            return self._ends[i]
        return x - 1

    def materialize(self, window: Window) -> ExplicitWindow:
        """The runs meeting the window, found by bisection, each set as one
        start bit and one past-end bit in two bytearrays.

        Run i covers the bits from its start offset up to its past-end
        offset, (1 << past_i) - (1 << start_i).  The runs are disjoint, so
        the sum over i is the past-end bitmap minus the start bitmap, and
        the cost is O(log runs + runs met + window bits).  Only the first
        run met can start before the window and only the last can end
        after it, so only those two are clipped.  Every start is >= 1, so
        bit 0 stays clear at window base 0.
        """
        base, n = window.base, window.length
        lo = bisect_left(self._ends, base)
        hi = bisect_right(self._starts, window.end)
        if lo >= hi:
            return ExplicitWindow(window, 0)
        offsets = [s - base for s in self._starts[lo:hi]]
        pasts = [e + 1 - base for e in self._ends[lo:hi]]
        offsets[0] = max(offsets[0], 0)
        pasts[-1] = min(pasts[-1], n)
        first, past = bytearray(n // 8 + 1), bytearray(n // 8 + 1)
        for o in offsets:
            first[o >> 3] |= 1 << (o & 7)
        for o in pasts:
            past[o >> 3] |= 1 << (o & 7)
        bits = int.from_bytes(past, "little") - int.from_bytes(first, "little")
        return ExplicitWindow(window, bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RunList)
            and self._starts == other._starts
            and self._ends == other._ends
        )

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    def __repr__(self) -> str:
        return f"RunList({list(self.runs)!r})"


class Full(Record, IntSet):
    """All positive integers."""

    _density = (1, 1)

    def member(self, x: int) -> bool:
        return x >= 1

    def min_element(self) -> int:
        return 1

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        _check_min_len(min_len)
        return Run(max(lower_bound, 1), min_len)

    def run_end_at(self, x: int) -> int | None:
        return None if x >= 1 else x - 1

    def materialize(self, window: Window) -> ExplicitWindow:
        lo = max(window.base, 1)
        if lo > window.end:
            return ExplicitWindow(window, 0)
        count = window.end - lo + 1
        return ExplicitWindow(window, ((1 << count) - 1) << (lo - window.base))


class Congruence(Record, IntSet):
    """Positive integers congruent to r modulo m."""

    _fields = ("m", "r")

    def __init__(self, m: int, r: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        if not 0 <= r < m:
            raise ValueError(f"residue must lie in [0, {m - 1}], got {r}")
        super().__init__(m, r)

    @property
    def _density(self) -> tuple[int, int]:
        # exactly one of any m consecutive integers is r modulo m
        return 1, self.m

    def member(self, x: int) -> bool:
        return x >= 1 and x % self.m == self.r

    def min_element(self) -> int:
        return self.r if self.r >= 1 else self.m

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run | None:
        _check_min_len(min_len)
        lb = max(lower_bound, 1)
        if self.m == 1:
            return Run(lb, min_len)
        if min_len >= 2:
            # two consecutive integers cannot share a residue mod m >= 2
            return None
        lo = max(lb, self.min_element())
        return Run(lo + (self.r - lo) % self.m, 1)

    def run_end_at(self, x: int) -> int | None:
        if not self.member(x):
            return x - 1
        return None if self.m == 1 else x

    def materialize(self, window: Window) -> ExplicitWindow:
        first = max(window.base, self.min_element())
        first += (self.r - first) % self.m
        count = (window.end - first) // self.m + 1
        return ExplicitWindow(window, _comb(self.m, count) << (first - window.base))


class _IndexedRuns(IntSet):
    """Union of disjoint runs run(i) for i >= 1.

    Subclasses supply strictly increasing run starts with run(i) of length
    i, and starts growing fast enough that consecutive runs never touch.

    Every query finds its floor run through _floor_run, which remembers
    the last run bracket it found: (start_i, i, start_(i+1)).  Since the
    starts strictly increase, [start_i, start_(i+1)) holds exactly the x
    whose floor run is i, so a query inside the bracket is answered by two
    comparisons and a sweep pays one root or power per run it meets, not
    one per query.  The bracket is a single tuple, read and replaced
    whole: threads sharing an instance can at worst read each other's
    bracket, which is still a true one.  It is set past Record's
    assignment guard and is not a field, so equality, hashing, repr and
    serialize_set never see it.
    """

    # no x satisfies 0 <= x < 0, so the first query always misses
    _bracket = (0, 0, 0)
    # runs of every length force blocks of every length full
    _density = (1, 1)

    def _run(self, i: int) -> Run:
        raise NotImplementedError

    def _floor_run(self, x: int) -> tuple[int, int] | None:
        """(start, i) of the run i with the largest start <= x, or None.

        A plain pair, not a Run: membership asks this once per query.  A
        query inside the remembered bracket costs two comparisons.  Any
        other query pays _locate, a power search or a root, plus the next
        start, derived from the start in linear time (one product by c, or
        one sum of small multiples of the powers below i**p), and its
        bracket becomes the remembered one.
        """
        start, i, after = self._bracket
        if start <= x < after:
            return start, i
        found = self._locate(x)
        if found is None:
            return None
        object.__setattr__(self, "_bracket", found)
        return found[0], found[1]

    def _locate(self, x: int) -> tuple[int, int, int] | None:
        """(start_i, i, start_(i+1)) for the floor run i of x, computed
        from scratch, or None when x lies below run 1."""
        raise NotImplementedError

    def runs_disjoint_upto(self, i_max: int) -> bool:
        return all(
            self._run(i).end < self._run(i + 1).start for i in range(1, i_max + 1)
        )

    def member(self, x: int) -> bool:
        if x < 1:
            return False
        below = self._floor_run(x)
        return below is not None and x < below[0] + below[1]

    def min_element(self) -> int:
        return self._run(1).start

    def _next_run_index(self, min_len: int, lower_bound: int) -> int | None:
        """Index of the run holding next_run's answer; None if it starts at
        the lower bound inside a straddled run."""
        lb = max(lower_bound, 1)
        below = self._floor_run(lb)
        if below is not None and lb + min_len <= below[0] + below[1]:
            return None
        # otherwise the earliest candidate is the first whole run that is
        # both long enough and past lb
        return max(min_len, 1 if below is None else below[1] + 1)

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        _check_min_len(min_len)
        i = self._next_run_index(min_len, lower_bound)
        if i is None:
            return Run(max(lower_bound, 1), min_len)
        return Run(self._run(i).start, min_len)

    def next_run_start_digits(self, min_len: int, lower_bound: int = 0) -> int:
        _check_min_len(min_len)
        i = self._next_run_index(min_len, lower_bound)
        if i is None:
            return decimal_digits(max(lower_bound, 1))
        return self._start_digits(i)

    def _start_digits(self, i: int) -> int:
        raise NotImplementedError

    def run_end_at(self, x: int) -> int:
        below = self._floor_run(x)
        if below is None:
            return x - 1
        # past the end of the run below, x is a non-member and this is x - 1
        return max(below[0] + below[1] - 1, x - 1)

    def materialize(self, window: Window) -> ExplicitWindow:
        bits = 0
        below = self._floor_run(window.base)
        i = 1 if below is None else below[1]
        prev_end = None
        while True:
            run = self._run(i)
            if run.start > window.end:
                break
            if prev_end is not None and prev_end >= run.start:
                raise AssertionError(f"runs {i - 1} and {i} are not disjoint")
            lo = max(run.start, window.base)
            hi = min(run.end, window.end)
            if lo <= hi:
                bits |= ((1 << (hi - lo + 1)) - 1) << (lo - window.base)
            prev_end = run.end
            i += 1
        return ExplicitWindow(window, bits)


class PowRuns(Record, _IndexedRuns):
    """Runs [c**i, c**i + i - 1] for every i >= 1, with base c >= 2."""

    _fields = ("c",)

    def __init__(self, c: int):
        if c < 2:
            raise ValueError(f"base must be >= 2, got {c}")
        super().__init__(c)

    def _run(self, i: int) -> Run:
        return Run(self.c ** i, i)

    def _start_digits(self, i: int) -> int:
        if i.bit_length() > 60:
            # the start itself is too large to ever represent
            return 1 << 62
        return int(i * math.log10(self.c)) + 1

    def _locate(self, x: int) -> tuple[int, int, int] | None:
        c = self.c
        if x < c:
            return None
        # one power from the estimate, then exact steps by c each way
        i = max(1, int((x.bit_length() - 1) / math.log2(c)))
        p = c ** i
        after = p * c
        while after <= x:
            p, after = after, after * c
            i += 1
        while p > x:
            p, after = p // c, p
            i -= 1
        return p, i, after


class PolyRuns(Record, _IndexedRuns):
    """Runs [i**p, i**p + i - 1] for every i >= 1, with exponent p >= 2."""

    _fields = ("p",)

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"exponent must be >= 2, got {p}")
        super().__init__(p)

    def _run(self, i: int) -> Run:
        return Run(i ** self.p, i)

    def _start_digits(self, i: int) -> int:
        return (self.p * i.bit_length() * 30103) // 100000 + 1

    def _locate(self, x: int) -> tuple[int, int, int] | None:
        if x < 1:
            return None
        i = nth_root_floor(x, self.p)
        # start_(i+1) - start_i = sum of C(p, k) * i**k over k < p, whose
        # powers are the steps to i**p itself, so the next start adds only
        # products by small binomials: start + 2i + 1 for p = 2.  The
        # chain begins at i itself, so for p = 2 it is i * i, a square.
        start, step = i, 1
        for k in range(1, self.p):
            step += math.comb(self.p, k) * start
            start *= i
        return start, i, start + step


class AffineImage(Record, IntSet):
    """The set {m*s + offset : s in inner}, for stride m >= 1.

    This is how translated or dilated generators are represented: run
    structure does not survive an affine map with m >= 2, but membership
    and run queries still reduce exactly to queries on the inner set.
    """

    _fields = ("inner", "m", "offset")

    def __init__(self, inner: IntSet, m: int, offset: int):
        if m < 1:
            raise ValueError(f"stride must be >= 1, got {m}")
        lo = inner.min_element()
        if lo is not None and m * lo + offset < 1:
            raise NegativeResult(f"element {lo} maps to {m * lo + offset}, below 1")
        super().__init__(inner, m, offset)

    @classmethod
    def of(cls, inner: IntSet, m: int, offset: int) -> IntSet:
        if isinstance(inner, AffineImage):
            return cls.of(inner.inner, m * inner.m, m * inner.offset + offset)
        if m == 1 and offset == 0:
            return inner
        return cls(inner, m, offset)

    def member(self, x: int) -> bool:
        d = x - self.offset
        return d > 0 and d % self.m == 0 and self.inner.member(d // self.m)

    def min_element(self) -> int | None:
        lo = self.inner.min_element()
        return None if lo is None else self.m * lo + self.offset

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run | None:
        _check_min_len(min_len)
        if self.m == 1:
            run = self.inner.next_run(min_len, max(lower_bound - self.offset, 0))
            return None if run is None else Run(run.start + self.offset, min_len)
        if min_len >= 2:
            return None
        s_min = max(1, -((self.offset - lower_bound) // self.m))
        run = self.inner.next_run(1, s_min)
        return None if run is None else Run(self.m * run.start + self.offset, 1)

    def next_run_start_digits(self, min_len: int, lower_bound: int = 0) -> int | None:
        _check_min_len(min_len)
        if self.m == 1:
            est = self.inner.next_run_start_digits(
                min_len, max(lower_bound - self.offset, 0)
            )
        elif min_len >= 2:
            return None
        else:
            s_min = max(1, -((self.offset - lower_bound) // self.m))
            est = self.inner.next_run_start_digits(1, s_min)
        if est is None:
            return None
        return max(est + decimal_digits(self.m), decimal_digits(abs(self.offset) + 1)) + 1

    def run_end_at(self, x: int) -> int | None:
        if self.m >= 2:
            return x if self.member(x) else x - 1
        e = self.inner.run_end_at(x - self.offset)
        return None if e is None else e + self.offset

    def materialize(self, window: Window) -> ExplicitWindow:
        """The inner bitmap over the preimage [s_lo, s_hi] of the window,
        with its cells spread m apart for m >= 2."""
        m = self.m
        s_lo = max(1, -((self.offset - window.base) // m))
        s_hi = (window.end - self.offset) // m
        if s_lo > s_hi:
            return ExplicitWindow(window, 0)
        bits = self.inner.materialize(Window(s_lo, s_hi - s_lo + 1)).bits
        if m >= 2:
            bits = _spread(bits, s_hi - s_lo + 1, m)
        return ExplicitWindow(window, bits << (m * s_lo + self.offset - window.base))


def _bit_offsets(x: int, base: int) -> Iterator[int]:
    """base + i for every set bit i of x >= 0, ascending.

    Walks the bytes of x up to its highest set bit, so the cost is linear
    in x.bit_length(), not in the width of the window x came from.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    for byte_idx, byte in enumerate(data):
        while byte:
            low = byte & -byte
            yield base + byte_idx * 8 + low.bit_length() - 1
            byte ^= low


def _spread(bits: int, n: int, m: int) -> int:
    """The n low cells of bits spread m >= 2 apart, bit i moving to bit
    i*m, by one string join: linear in the n*m cells of the result."""
    return int(("0" * (m - 1)).join(format(bits, f"0{n}b")), 2)


def _comb(m: int, count: int, bits: int = 1) -> int:
    """The or of bits shifted by 0, m, 2m, ..., (count - 1)*m, 0 for count < 1.

    For bits = 1 that is the comb of bits at offsets 0, m, ..., (count - 1)*m.
    Each step shifts the comb past its own teeth and ors it in, so count
    teeth cost O(log count) shift-ors of at most count*m bits plus the
    width of bits.  The closed form ((1 << m*count) - 1) // ((1 << m) - 1)
    divides by an m-bit number, which is quadratic in m once m spans
    several machine words.
    """
    if count < 1:
        return 0
    comb, teeth = bits, 1
    while teeth < count:
        step = min(teeth, count - teeth)
        comb |= comb << step * m
        teeth += step
    return comb


def _streak(bits: int, m: int) -> tuple[int, int]:
    """Longest L with some x, x + m, ..., x + (L - 1)*m all set bits of
    bits >= 0, and the bitmap of every such x; (0, 0) when bits is 0.

    With A_1 = bits and A_(a+b) = A_a & (A_b >> a*m), bit x of A_L is set
    iff the L cells from x on, m apart, are all set.  Doubling L until
    A_L vanishes, then a binary search down the stored powers, finds the
    largest L with A_L != 0 in O(log L) big-int steps.  For m = 1 this is
    the longest run of consecutive set bits.
    """
    if not bits:
        return 0, 0
    powers = [bits]  # powers[i] = A_(2**i)
    while powers[-1]:
        powers.append(powers[-1] & (powers[-1] >> (m << len(powers) - 1)))
    longest = 1 << len(powers) - 2
    starts = powers[-2]
    for i in range(len(powers) - 3, -1, -1):
        longer = starts & (powers[i] >> longest * m)
        if longer:
            starts, longest = longer, longest + (1 << i)
    return longest, starts


def _first_fit(
    starts: Sequence[int],
    ends: Sequence[int],
    first: int,
    min_len: int,
    lower_bound: int,
    where: str,
) -> Run:
    """next_run over finite ascending maximal runs [starts[i], ends[i]],
    from i = first on."""
    _check_min_len(min_len)
    for i in range(first, len(starts)):
        b = max(starts[i], lower_bound)
        if b + min_len - 1 <= ends[i]:
            return Run(b, min_len)
    raise HorizonExceeded(
        f"no run of length {min_len} at or above {lower_bound} {where}"
    )


def _check_min_len(min_len: int) -> None:
    if min_len < 1:
        raise PreconditionFailed(f"run length must be >= 1, got {min_len}")


def _check_dilation(m: int, r: int) -> None:
    if m < 1:
        raise ValueError(f"dilation factor must be >= 1, got {m}")
    if r < 0:
        raise ValueError(f"dilation shift must be >= 0, got {r}")


# Each generator form by its name in the grammar: `gen <name>` followed by
# one integer per field of the class, in _fields order.
_GENERATORS = {"full": Full, "congruence": Congruence, "pow_runs": PowRuns, "poly_runs": PolyRuns}


def parse_set(text: str) -> IntSet:
    """Parse the line-oriented set description grammar.

    One directive per line: ``run <start> <len>``, ``elem <x>``, or
    ``gen <form> <ints>`` for a form of _GENERATORS.  ``#`` starts a
    comment; blank lines are ignored.  A generator directive must be the
    only directive in the text.  Declared runs may touch (they are merged)
    but must not overlap.

    One pass over the lines collects (start, end, lineno) triples, one
    stable sort by start orders them, so runs with equal starts keep their
    line order, and one pass of _merge_spans merges them and finds the
    first overlap: O(L log L) for L declared runs, with no Run built.
    """
    spans: list[tuple[int, int, int]] = []
    gen: IntSet | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        parts = raw.split()
        if not parts:
            continue
        if gen is not None:
            raise ParseError("a generator must be the only directive", lineno)
        head, args = parts[0], parts[1:]
        if head == "gen":
            if spans:
                raise ParseError("a generator must be the only directive", lineno)
            gen = _parse_gen(args, lineno)
            continue
        if head == "run":
            start, length = _parse_ints(args, 2, lineno)
        elif head == "elem":
            (start,) = _parse_ints(args, 1, lineno)
            length = 1
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
        if start < 1 or length < 1:
            _make_run(start, length, lineno)  # raises Run's error on this line
        spans.append((start, start + length - 1, lineno))
    if gen is not None:
        return gen
    spans.sort(key=itemgetter(0))
    starts, ends, clash = _merge_spans(spans)
    if clash is not None:
        (ps, pe, _), (s, e, lineno) = clash
        raise OverlapError(f"run [{s}, {e}] overlaps run [{ps}, {pe}]", lineno)
    return RunList._from_bounds(starts, ends)


def _merge_spans(
    spans: Iterable[tuple[int, ...]],
) -> tuple[list[int], list[int], tuple | None]:
    """Starts and ends of the maximal runs covering spans, given as
    (start, end, ...) tuples with start >= 1, ascending by start, and the
    first pair of consecutive spans that overlap, or None.

    A span that touches or overlaps the run before it extends that run.
    Until the first overlap the spans are disjoint, so the run before a
    span ends where the span before it ends, and a span overlaps that run
    exactly when it overlaps the span before it.
    """
    starts: list[int] = []
    ends: list[int] = []
    clash = None
    last = -1  # end of the run being built; no start touches it
    prev: tuple[int, ...] = ()
    for span in spans:
        s, e = span[0], span[1]
        if s > last + 1:
            starts.append(s)
            ends.append(e)
            last = e
        else:
            if s <= last and clash is None:
                clash = (prev, span)
            if e > last:
                ends[-1] = last = e
        prev = span
    return starts, ends, clash


def _parse_ints(args: list[str], n: int, lineno: int) -> list[int]:
    if len(args) != n:
        raise ParseError(f"expected {n} argument(s), got {len(args)}", lineno)
    out = []
    for a in args:
        try:
            out.append(int(a, 10))
        except ValueError:
            raise ParseError(f"not an integer: {a!r}", lineno) from None
    return out


def _make_run(start: int, length: int, lineno: int) -> Run:
    try:
        return Run(start, length)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_gen(args: list[str], lineno: int) -> IntSet:
    cls = _GENERATORS.get(args[0]) if args else None
    if cls is None:
        raise ParseError(f"generator must be one of {sorted(_GENERATORS)}", lineno)
    values = _parse_ints(args[1:], len(cls._fields), lineno)
    try:
        return cls(*values)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def serialize_set(s: IntSet) -> str:
    """Render a set in the grammar accepted by parse_set.

    RunList and generator forms round-trip exactly; an ExplicitWindow is
    written as its runs (and parses back as the equal RunList).
    """
    if isinstance(s, RunList):
        starts, ends = s._starts, s._ends
    elif isinstance(s, ExplicitWindow):
        starts, ends = s.run_bounds()
    else:
        for form, cls in _GENERATORS.items():
            if isinstance(s, cls):
                return " ".join(["gen", form, *map(str, s._values())]) + "\n"
        raise ValueError(f"no text form for {type(s).__name__}")
    lines = [
        f"elem {a}" if a == b else f"run {a} {b - a + 1}" for a, b in zip(starts, ends)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
