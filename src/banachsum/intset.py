"""Exact representations of sets of positive integers built from runs.

A set is either finite and explicit (a window bitmap or a list of runs of
consecutive integers) or an infinite symbolic generator (a congruence
class, with all positive integers as the class 0 mod 1, or an indexed
family of runs whose i-th run has length i).  Every representation
answers membership and run queries with exact arbitrary-precision
arithmetic, so queries against astronomically large elements stay cheap
and correct.

All values are immutable once constructed and safe to share across
threads.  The state that changes is caches that never change an answer:
the run bracket PowRuns and PolyRuns remember between queries and the
run bounds of an ExplicitWindow, built on first use.  A finite set lists
its runs one way, run_bounds(), and answers run queries from it by
bisection.  Run lists and run generators turn the runs that meet a window
into its bitmap one way, _fill; a bitmap turns back into runs one way,
run_bounds().  The integer 0 is never a member of any set here, even when
an explicit window happens to cover it.

This module also holds the one decimal codec of the package: to_decimal
and from_decimal turn integers into decimal text and back, whatever the
interpreter's int/str digit limit, so no call depends on or changes that
process-wide setting.  Text of more than DECIMAL_DIGIT_LIMIT digits is
refused unless a caller names a larger limit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, HorizonExceeded, OverlapError, ParseError, PreconditionFailed

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
    "parse_set",
    "serialize_set",
    "nth_root_floor",
    "decimal_digits",
    "DECIMAL_DIGIT_LIMIT",
    "to_decimal",
    "from_decimal",
]

# Most digits from_decimal accepts by default: the default digit budget of
# construct, 100 000, plus the 64 digits it allows sums of bases past it.
DECIMAL_DIGIT_LIMIT = 100_064
# Digits per builtin int() or str() call inside the codec.  The
# interpreter's int/str digit limit, whatever it is set to, never applies
# to 640 digits or fewer.
_LEAF_DIGITS = 512
_LEAF = 10**_LEAF_DIGITS


def decimal_digits(x: int) -> int:
    """Decimal digit count of x >= 0, via bit length (log10(2) ~ 0.30103)."""
    if x < 10:
        return 1
    return (x.bit_length() * 30103) // 100000 + 1


def to_decimal(x: int) -> str:
    """str(x), built from builtin str() calls of at most _LEAF_DIGITS digits.

    A long x is split by divmod at a power 10**(_LEAF_DIGITS * 2**j), the
    powers found by squaring, and each part in turn, down to leaves below
    10**_LEAF_DIGITS; every part but the highest is zero-filled.
    """
    if abs(x) < _LEAF:
        return str(x)
    if x < 0:
        return "-" + to_decimal(-x)
    powers = [_LEAF]
    # square until the square of the last power exceeds x
    while 2 * powers[-1].bit_length() - 1 <= x.bit_length():
        powers.append(powers[-1] * powers[-1])
    return _decimal(x, powers, len(powers), False)


def _decimal(x: int, powers: list[int], j: int, pad: bool) -> str:
    """The digits of 0 <= x < 10**(_LEAF_DIGITS << j), zero-filled to that
    many digits when pad is true."""
    if j == 0:
        text = str(x)
        return text.zfill(_LEAF_DIGITS) if pad else text
    hi, lo = divmod(x, powers[j - 1])
    if not (hi or pad):
        return _decimal(lo, powers, j - 1, False)
    return _decimal(hi, powers, j - 1, pad) + _decimal(lo, powers, j - 1, True)


def from_decimal(text: str, limit: int = DECIMAL_DIGIT_LIMIT) -> int:
    """int(text) for text of at most limit digits, else ValueError.

    The grammar is int()'s in base 10: surrounding whitespace, one sign,
    Unicode decimal digits and single underscores between digits; a
    refused text gets int()'s own message.  Digits are counted as int()
    counts them, without sign, whitespace and underscores.  Long text is
    split at the powers of ten that to_decimal uses, so no builtin int()
    call sees more than _LEAF_DIGITS digits.
    """
    if len(text) <= _LEAF_DIGITS <= limit:
        return int(text)
    digits = text.strip()
    sign = digits[:1]
    if sign in ("+", "-"):
        digits = digits[1:]
    if "_" in digits and digits[0] != "_" and digits[-1] != "_" and "__" not in digits:
        digits = digits.replace("_", "")
    if not digits.isdecimal():
        raise ValueError(f"invalid literal for int() with base 10: {repr(text)[:200]}")
    if len(digits) > limit:
        raise ValueError(f"a number of {len(digits)} digits exceeds the limit of {limit}")
    powers = [_LEAF]
    while _LEAF_DIGITS << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])
    value = _from_digits(digits, powers)
    return -value if sign == "-" else value


def _from_digits(digits: str, powers: list[int]) -> int:
    """The value of a string of decimal digits: its last _LEAF_DIGITS << j
    digits, for the largest j that leaves some before them, and those
    before them, joined by one product with powers[j]."""
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    j = ((len(digits) - 1) // _LEAF_DIGITS).bit_length() - 1
    width = _LEAF_DIGITS << j
    high, low = digits[:-width], digits[-width:]
    return _from_digits(high, powers) * powers[j] + _from_digits(low, powers)


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
    its own __init__ only to check its values, around its call of
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
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _repr(value) -> str:
    """repr(value), with every int, alone or inside nested tuples, written
    by to_decimal, so no int is too long to print."""
    if isinstance(value, int):
        return to_decimal(value)
    if isinstance(value, tuple):
        items = ", ".join(map(_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


class Run(Record):
    """The interval of consecutive integers [start, start + length - 1]."""

    _fields = ("start", "length")

    def __init__(self, start: int, length: int):
        if start < 1:
            raise ValueError(f"run start must be positive, got {_echo(start)}")
        if length < 1:
            raise ValueError(f"run length must be >= 1, got {_echo(length)}")
        super().__init__(start, length)

    @property
    def end(self) -> int:
        return self.start + self.length - 1


class Window(Record):
    """A finite evaluation region [base, base + length - 1] of the line."""

    _fields = ("base", "length")

    def __init__(self, base: int, length: int):
        if base < 0:
            raise ValueError(f"window base must be >= 0, got {_echo(base)}")
        if length < 1:
            raise ValueError(f"window length must be >= 1, got {_echo(length)}")
        super().__init__(base, length)

    @property
    def end(self) -> int:
        return self.base + self.length - 1


class IntSet:
    """Base class for immutable sets of positive integers.

    Subclasses fall in two groups.  Finite representations (ExplicitWindow,
    RunList) store their elements outright.  Symbolic representations
    (Congruence, with Full its class 0 mod 1, PowRuns, PolyRuns) answer
    queries by formula and may describe infinite sets.

    A subclass supplies member, run_end_at and next_run.  run_end_at is the
    one run query: first_gap is derived from it here.  materialize defaults
    to one member call per cell of the window.
    """

    # (numerator, denominator) of the set's density when the representation
    # pins it down, else None; read by density.forced_density
    _density: tuple[int, int] | None = None

    def member(self, x: int) -> bool:
        """Exact membership; always False for x < 1."""
        raise NotImplementedError

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

    def elements(self) -> Iterator[int]:
        """Members in ascending order, run by run from run_bounds()."""
        for start, end in zip(*self.run_bounds()):
            yield from range(start, end + 1)

    def run_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(starts, ends), the first and last members of the maximal runs,
        as two ascending tuples.

        The bits, written lowest first, are scanned once on the first call
        by str.find, two calls per run and no Python step per cell; the
        tuples are kept for later calls.
        """
        if self._bounds is None:
            cells, base = format(self.bits, "b")[::-1], self.window.base
            starts, ends = [], []
            start = cells.find("1")
            while start >= 0:
                past = cells.find("0", start)
                if past < 0:  # the run holds the top bit
                    past = len(cells)
                starts.append(base + start)
                ends.append(base + past - 1)
                start = cells.find("1", past)
            self._bounds = (tuple(starts), tuple(ends))
        return self._bounds

    def dilate(self, m: int, r: int = 0) -> "ExplicitWindow":
        """The members x mapped to m*x + r, for m >= 1 and r >= 0, on the
        window's image [m*base + r, m*end + r]."""
        if m < 1:
            raise ValueError(f"dilation factor must be >= 1, got {_echo(m)}")
        if r < 0:
            raise ValueError(f"dilation shift must be >= 0, got {_echo(r)}")
        w = Window(self.window.base * m + r, (self.window.length - 1) * m + 1)
        return ExplicitWindow(w, _spread(self.bits, self.window.length, m))

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        return _first_fit(*self.run_bounds(), min_len, lower_bound, "inside the window")

    def run_end_at(self, x: int) -> int:
        return _run_end_at(*self.run_bounds(), x)

    def materialize(self, window: Window) -> "ExplicitWindow":
        """The bits on [lo, hi], the overlap of the two windows, moved to
        their place in window: no shift allocates more than the larger of
        the two bitmaps, and disjoint windows give 0 at once."""
        if window == self.window:
            return self
        lo = max(window.base, self.window.base)
        hi = min(window.end, self.window.end)
        if lo > hi:
            return ExplicitWindow(window, 0)
        bits = (self.bits >> (lo - self.window.base)) & ((1 << (hi - lo + 1)) - 1)
        return ExplicitWindow(window, bits << (lo - window.base))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitWindow)
            and self.window == other.window
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.window, self.bits))

    def __repr__(self) -> str:
        return f"ExplicitWindow({self.window!r}, count={self.bits.bit_count()})"


class RunList(IntSet):
    """Finite set stored as sorted, disjoint, non-adjacent runs.

    Overlapping or adjacent input runs are merged at construction, so the
    stored runs are maximal and separated by gaps of at least one integer.
    They are kept as run_bounds() gives them: two ascending tuples, the
    first and last members of each run.
    """

    __slots__ = ("_bounds",)

    def __init__(self, runs: Iterable[Run] = ()):
        starts, ends, _ = _merge_spans(sorted((r.start, r.end) for r in runs))
        self._bounds = (tuple(starts), tuple(ends))

    @classmethod
    def _from_bounds(cls, starts: list[int], ends: list[int]) -> "RunList":
        """The run list of maximal runs [starts[i], ends[i]], taken as given."""
        rl = cls.__new__(cls)
        rl._bounds = (tuple(starts), tuple(ends))
        return rl

    def run_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(starts, ends) of the maximal runs, as ExplicitWindow.run_bounds."""
        return self._bounds

    def member(self, x: int) -> bool:
        return self.run_end_at(x) >= x

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run:
        return _first_fit(*self._bounds, min_len, lower_bound, "in the run list")

    def run_end_at(self, x: int) -> int:
        return _run_end_at(*self._bounds, x)

    def materialize(self, window: Window) -> ExplicitWindow:
        """The runs meeting the window, found by bisection, set by _fill:
        O(log runs + runs met + window bits)."""
        starts, ends = self._bounds
        lo = bisect_left(ends, window.base)
        hi = bisect_right(starts, window.end)
        return _fill(window, starts[lo:hi], ends[lo:hi])

    def __eq__(self, other) -> bool:
        return isinstance(other, RunList) and self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash(self._bounds)

    def __repr__(self) -> str:
        return f"RunList({[Run(s, e - s + 1) for s, e in zip(*self._bounds)]!r})"


class Congruence(Record, IntSet):
    """Positive integers congruent to r modulo m; the least is r, or m when r = 0."""

    _fields = ("m", "r")

    def __init__(self, m: int, r: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {_echo(m)}")
        if not 0 <= r < m:
            raise ValueError(f"residue must lie in [0, {_echo(m - 1)}], got {_echo(r)}")
        super().__init__(m, r)

    @property
    def _density(self) -> tuple[int, int]:
        # exactly one of any m consecutive integers is r modulo m
        return 1, self.m

    def member(self, x: int) -> bool:
        return x >= 1 and x % self.m == self.r

    def next_run(self, min_len: int, lower_bound: int = 0) -> Run | None:
        _check_min_len(min_len)
        lb = max(lower_bound, 1)
        if self.m == 1:
            return Run(lb, min_len)
        if min_len >= 2:
            # two consecutive integers cannot share a residue mod m >= 2
            return None
        lo = max(lb, self.r or self.m)
        return Run(lo + (self.r - lo) % self.m, 1)

    def run_end_at(self, x: int) -> int | None:
        # the residue is tested here, not through member, so the run route
        # stays apart from the membership route
        if x < 1 or x % self.m != self.r:
            return x - 1
        return None if self.m == 1 else x

    def materialize(self, window: Window) -> ExplicitWindow:
        first = max(window.base, self.r or self.m)
        first += (self.r - first) % self.m
        count = (window.end - first) // self.m + 1
        return ExplicitWindow(window, _comb(self.m, count) << (first - window.base))


class Full(Congruence):
    """All positive integers: the congruence 0 mod 1 under its own name.

    It answers every query as Congruence(1, 0) does, prints as Full(),
    serializes as `gen full` and is not equal to Congruence(1, 0), whose
    class differs.
    """

    _fields = ()
    m, r = 1, 0
    __init__ = Record.__init__


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

    def member(self, x: int) -> bool:
        if x < 1:
            return False
        below = self._floor_run(x)
        return below is not None and x < below[0] + below[1]

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
        """The runs meeting the window, listed by index from the floor run
        of its base, set by _fill.  The floor run is left out when it ends
        below the window; every later run starts inside or past it."""
        below = self._floor_run(window.base)
        i = 1 if below is None else below[1]
        starts, ends = [], []
        prev_end = 0
        while True:
            run = self._run(i)
            if run.start > window.end:
                break
            if prev_end >= run.start:
                raise AssertionError(f"runs {i - 1} and {i} are not disjoint")
            prev_end = run.end
            if prev_end >= window.base:
                starts.append(run.start)
                ends.append(prev_end)
            i += 1
        return _fill(window, starts, ends)


class PowRuns(Record, _IndexedRuns):
    """Runs [c**i, c**i + i - 1] for every i >= 1, with base c >= 2."""

    _fields = ("c",)

    def __init__(self, c: int):
        if c < 2:
            raise ValueError(f"base must be >= 2, got {_echo(c)}")
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
            raise ValueError(f"exponent must be >= 2, got {_echo(p)}")
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


def _fill(window: Window, starts: Sequence[int], ends: Sequence[int]) -> ExplicitWindow:
    """The bitmap on window of the ascending disjoint runs [starts[i],
    ends[i]], each of which meets the window, each set as one start bit and
    one past-end bit in two bytearrays.

    Run i covers the bits from its start offset up to its past-end offset,
    (1 << past_i) - (1 << start_i).  The runs are disjoint, so the sum over
    i is the past-end bitmap minus the start bitmap: O(runs + window bits).
    Only the first run can start before the window and only the last can
    end after it, so only those two are clipped.  Every start is >= 1, so
    bit 0 stays clear at window base 0.
    """
    if not starts:
        return ExplicitWindow(window, 0)
    base, n = window.base, window.length
    offsets = [s - base for s in starts]
    pasts = [e + 1 - base for e in ends]
    offsets[0] = max(offsets[0], 0)
    pasts[-1] = min(pasts[-1], n)
    first, past = bytearray(n // 8 + 1), bytearray(n // 8 + 1)
    for o in offsets:
        first[o >> 3] |= 1 << (o & 7)
    for o in pasts:
        past[o >> 3] |= 1 << (o & 7)
    return ExplicitWindow(window, int.from_bytes(past, "little") - int.from_bytes(first, "little"))


def _spread(bits: int, n: int, m: int) -> int:
    """The n low cells of bits spread m >= 1 apart, bit i moving to bit
    i*m, by one string join: linear in the n*m cells of the result.  For
    m = 1 the separator is empty and the cells come back in place."""
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


def _run_end_at(starts: Sequence[int], ends: Sequence[int], x: int) -> int:
    """run_end_at over finite ascending maximal runs [starts[i], ends[i]]:
    only the run with the largest start <= x, found by bisection, can
    hold x."""
    i = bisect_right(starts, x) - 1
    if i >= 0 and x <= ends[i]:
        return ends[i]
    return x - 1


def _first_fit(
    starts: Sequence[int],
    ends: Sequence[int],
    min_len: int,
    lower_bound: int,
    where: str,
) -> Run:
    """next_run over finite ascending maximal runs [starts[i], ends[i]].

    The scan begins at the run with the largest start <= lower_bound,
    found by bisection, since every run before it ends below lower_bound;
    where names the set in the HorizonExceeded message.
    """
    _check_min_len(min_len)
    for i in range(max(bisect_right(starts, lower_bound) - 1, 0), len(starts)):
        b = max(starts[i], lower_bound)
        if b + min_len - 1 <= ends[i]:
            return Run(b, min_len)
    raise HorizonExceeded(
        f"no run of length {_echo(min_len)} at or above {_echo(lower_bound)} {where}"
    )


def _check_min_len(min_len: int) -> None:
    if min_len < 1:
        raise PreconditionFailed(f"run length must be >= 1, got {_echo(min_len)}")


# Each generator form by its name in the grammar: `gen <name>` followed by
# one integer per field of the class, in _fields order.
_GENERATORS = {"full": Full, "congruence": Congruence, "pow_runs": PowRuns, "poly_runs": PolyRuns}


def parse_set(text: str, digit_limit: int = DECIMAL_DIGIT_LIMIT) -> IntSet:
    """Parse the line-oriented set description grammar.

    One directive per line: ``run <start> <len>``, ``elem <x>``, or
    ``gen <form> <ints>`` for a form of _GENERATORS.  ``#`` starts a
    comment; blank lines are ignored.  A generator directive must be the
    only directive in the text.  Declared runs may touch (they are merged)
    but must not overlap.  A decimal number of more than digit_limit
    digits raises BudgetExceeded.

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
            gen = _parse_gen(args, lineno, digit_limit)
            continue
        if head == "run":
            start, length = _parse_ints(args, 2, lineno, digit_limit)
        elif head == "elem":
            (start,) = _parse_ints(args, 1, lineno, digit_limit)
            length = 1
        else:
            raise ParseError(f"unknown directive {_echo(head)}", lineno)
        if start < 1 or length < 1:
            _make_run(start, length, lineno)  # raises Run's error on this line
        spans.append((start, start + length - 1, lineno))
    if gen is not None:
        return gen
    spans.sort(key=itemgetter(0))
    starts, ends, clash = _merge_spans(spans)
    if clash is not None:
        (ps, pe, _), (s, e, lineno) = clash
        raise OverlapError(
            f"run [{_echo(s)}, {_echo(e)}] overlaps run [{_echo(ps)}, {_echo(pe)}]", lineno
        )
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


def _parse_ints(args: list[str], n: int, lineno: int, digit_limit: int) -> list[int]:
    if len(args) != n:
        raise ParseError(f"expected {n} argument(s), got {len(args)}", lineno)
    out = []
    for a in args:
        try:
            out.append(from_decimal(a, digit_limit))
        except ValueError:
            digits = a[1:] if a[0] in "+-" else a
            if digits.isdecimal():
                # only the digit limit refuses a decimal token
                raise BudgetExceeded(f"line {lineno}: a number of {len(digits)} digits "
                                     f"exceeds the limit of {digit_limit}") from None
            raise ParseError(f"not an integer: {_echo(a)}", lineno) from None
    return out


def _echo(token: str | int) -> str:
    """A token as an error message quotes it: a string by its repr, an
    integer in decimal.  A token of more than 200 characters, the cut
    CPython's int() makes in its own message, shows its first 200, then an
    ellipsis and its length."""
    if isinstance(token, int):
        text = to_decimal(token)
        return text if len(text) <= 200 else f"{text[:200]}… ({len(text)} characters)"
    if len(token) <= 200:
        return repr(token)
    return f"{token[:200]!r}… ({len(token)} characters)"


def _make_run(start: int, length: int, lineno: int) -> Run:
    try:
        return Run(start, length)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_gen(
    args: list[str], lineno: int, digit_limit: int = DECIMAL_DIGIT_LIMIT
) -> IntSet:
    cls = _GENERATORS.get(args[0]) if args else None
    if cls is None:
        raise ParseError(f"generator must be one of {sorted(_GENERATORS)}", lineno)
    values = _parse_ints(args[1:], len(cls._fields), lineno, digit_limit)
    try:
        return cls(*values)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def serialize_set(s: IntSet) -> str:
    """Render a set in the grammar accepted by parse_set.

    RunList and generator forms round-trip exactly; an ExplicitWindow is
    written as its runs (and parses back as the equal RunList).
    """
    if isinstance(s, (RunList, ExplicitWindow)):
        lines = [
            f"elem {to_decimal(a)}" if a == b else f"run {to_decimal(a)} {to_decimal(b - a + 1)}"
            for a, b in zip(*s.run_bounds())
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    for form, cls in _GENERATORS.items():
        if isinstance(s, cls):
            return " ".join(["gen", form, *map(to_decimal, s._values())]) + "\n"
    raise ValueError(f"no text form for {type(s).__name__}")
