"""Exact representations of sets of positive integers built from runs.

A set is either finite and explicit (ExplicitWindow, a bitmap on a
window, or RunList, its maximal runs) or an infinite symbolic generator
(Congruence, with Full its class 0 mod 1, and the run families PowRuns
and PolyRuns, whose i-th run has length i).  IntSet names the queries
they all answer in exact arbitrary-precision arithmetic, so queries
against astronomically large elements stay cheap and correct.  The
integer 0 is never a member of any set here, even when an explicit
window happens to cover it.

A finite set lists its runs one way, run_bounds(), and every reader of
them asks it; _FiniteRuns answers the run queries of both finite forms
from it.  Runs become a bitmap one way, _fill, and the window it returns
keeps the runs it set, clipped to the window, so only a window made by
bit operations (a congruence comb, a sub-window, a sum, a dilation, the
ap-reduce quotient) finds its runs by a scan of its bits, once.  Record
is the base of the immutable values: Run, Window, the generators and the
report types of the other modules.  All values are immutable once
constructed and safe to share across threads: the run generators keep no
state, and the one cache, the runs an ExplicitWindow keeps, never changes
an answer.

parse_set and serialize_set read and write the set description grammar;
_GENERATORS names each generator form once.  to_decimal and from_decimal
are the package's one decimal codec, whatever the interpreter's int/str
digit limit, and from_decimal decides each refusal of a number: text that
is no number is a ValueError, a number over its digit limit BudgetExceeded.
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
    "DEFAULT_DIGIT_BUDGET",
    "SUM_DIGITS",
    "DECIMAL_DIGIT_LIMIT",
    "to_decimal",
    "from_decimal",
]

# Digits a base may have by default, and digits allowed past a digit budget
# for sums of bases: certificate lengths and witnesses are sums of bases, a
# few digits longer than any base.  from_decimal accepts both by default.
DEFAULT_DIGIT_BUDGET = 100_000
SUM_DIGITS = 64
DECIMAL_DIGIT_LIMIT = DEFAULT_DIGIT_BUDGET + SUM_DIGITS
# Digits per builtin int() or str() call inside the codec.  The
# interpreter's int/str digit limit, whatever it is set to, never applies
# to 640 digits or fewer.
_LEAF_DIGITS = 512
_LEAF = 10**_LEAF_DIGITS
# The ASCII separators: str.strip() strips them, and int() refuses them.
_SEPARATORS = frozenset("\x1c\x1d\x1e\x1f")


def decimal_digits(x: int) -> int:
    """Decimal digit count of x >= 0, via bit length (log10(2) ~ 0.30103):
    the exact count or one more, for any x of fewer than 10**8 bits."""
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
    """int(text) for text of at most limit digits.

    The grammar is int()'s in base 10: surrounding whitespace, one sign,
    Unicode decimal digits and single underscores between digits.  Text
    that int() refuses raises ValueError with int()'s own message; a
    number of more than limit digits raises BudgetExceeded before it is
    converted.  Digits are counted as int() counts them, without sign,
    whitespace and underscores.  Long text is split at the powers of ten
    that to_decimal uses, so no builtin int() call sees more than
    _LEAF_DIGITS digits.
    """
    if len(text) <= _LEAF_DIGITS <= limit:
        return int(text)
    digits = text.strip()
    sign = digits[:1]
    if sign in ("+", "-"):
        digits = digits[1:]
    if "_" in digits and digits[0] != "_" and digits[-1] != "_" and "__" not in digits:
        digits = digits.replace("_", "")
    if not digits.isdecimal() or not _SEPARATORS.isdisjoint(text):
        raise ValueError(f"invalid literal for int() with base 10: {repr(text)[:200]}")
    if len(digits) > limit:
        raise BudgetExceeded(f"a number of {len(digits)} digits exceeds the limit of {limit}")
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
    return _root_floor(x, p)


def _root_floor(x: int, p: int) -> int:
    """nth_root_floor for x >= 2 and p >= 3.

    Newton's iteration decreases monotonically from an overestimate.  With
    k = bit_length // (2p) and r the root of the top bits, x >> p*k, the
    start (r + 1) << k is one: (r + 1)**p > x >> p*k, so its p-th power
    exceeds x.  The top bits hold at least half of x's bits, so the start
    is right in about half of the root's bits: on random radicands of 2e4
    to 3e5 bits, one full-size step reaches the floor and a second
    confirms it.  The recursion calls this helper, not nth_root_floor, so
    nth_root_floor is entered once per root.
    """
    k = x.bit_length() // (2 * p)
    r = (_root_floor(x >> p * k, p) + 1) << k if k else 1 << -(-x.bit_length() // p)
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

    def next_run(
        self, min_len: int, lower_bound: int = 0, digit_limit: int = DECIMAL_DIGIT_LIMIT
    ) -> Run | None:
        """Smallest-start run of min_len consecutive members at or above lower_bound.

        Returns a Run of exactly min_len (its start may sit inside a longer
        run of the set), None when the set provably has no such run, and
        raises HorizonExceeded when a finite representation is exhausted
        without an answer.  A run generator raises BudgetExceeded for a start
        estimated at more than digit_limit digits, before computing it; the
        other sets' starts never exceed their text or lower_bound.
        """
        raise NotImplementedError

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


class _FiniteRuns(IntSet):
    """A finite set read through its maximal runs.

    _bounds holds them as run_bounds() gives them: two ascending tuples,
    the first and last members of each run.  A subclass that can leave it
    None finds them in its own run_bounds; _where names the set in the
    HorizonExceeded message of next_run.
    """

    __slots__ = ("_bounds",)

    def run_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(starts, ends), the first and last members of the maximal runs,
        as two ascending tuples."""
        return self._bounds

    def next_run(
        self, min_len: int, lower_bound: int = 0, digit_limit: int = DECIMAL_DIGIT_LIMIT
    ) -> Run:
        """The scan begins at the run with the largest start <= lower_bound,
        found by bisection, since every run before it ends below
        lower_bound."""
        _check_min_len(min_len)
        starts, ends = self.run_bounds()
        for i in range(max(bisect_right(starts, lower_bound) - 1, 0), len(starts)):
            b = max(starts[i], lower_bound)
            if b + min_len - 1 <= ends[i]:
                return Run(b, min_len)
        raise HorizonExceeded(
            f"no run of length {_echo(min_len)} at or above {_echo(lower_bound)} {self._where}"
        )

    def run_end_at(self, x: int) -> int:
        """Only the run with the largest start <= x, found by bisection,
        can hold x."""
        starts, ends = self.run_bounds()
        i = bisect_right(starts, x) - 1
        if i >= 0 and x <= ends[i]:
            return ends[i]
        return x - 1


class ExplicitWindow(_FiniteRuns):
    """Bitmap of a set's intersection with a finite window.

    Bit i of ``bits`` records membership of ``window.base + i``.  Whatever
    the set looked like outside the window is not represented; as a set
    value, an ExplicitWindow contains exactly its set bits.
    """

    __slots__ = ("window", "bits")
    _where = "inside the window"

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
        """The runs _fill set, or else the bits, written lowest first,
        scanned once on the first call by str.find, two calls per run and
        no Python step per cell; the tuples are kept for later calls."""
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


class RunList(_FiniteRuns):
    """Finite set stored as sorted, disjoint, non-adjacent runs.

    Overlapping or adjacent input runs are merged at construction, so the
    stored runs are maximal and separated by gaps of at least one integer.
    """

    __slots__ = ()
    _where = "in the run list"

    def __init__(self, runs: Iterable[Run] = ()):
        starts, ends, _ = _merge_spans(sorted((r.start, r.end) for r in runs))
        self._bounds = (tuple(starts), tuple(ends))

    @classmethod
    def _from_bounds(cls, starts: list[int], ends: list[int]) -> "RunList":
        """The run list of maximal runs [starts[i], ends[i]], taken as given."""
        rl = cls.__new__(cls)
        rl._bounds = (tuple(starts), tuple(ends))
        return rl

    def member(self, x: int) -> bool:
        return self.run_end_at(x) >= x

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

    def next_run(
        self, min_len: int, lower_bound: int = 0, digit_limit: int = DECIMAL_DIGIT_LIMIT
    ) -> Run | None:
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
        """The members in the window, one _comb of teeth m apart from the
        first of them."""
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
    """Union of disjoint runs [start_i, start_i + i - 1] for i >= 1.

    Subclasses supply strictly increasing starts, _start(i), growing fast
    enough that consecutive runs never touch, and _floor_run(x), the run
    with the largest start <= x.  Every query finds its floor run once,
    from scratch, by a power search or a root: an instance remembers
    nothing between queries.
    """

    # runs of every length force blocks of every length full
    _density = (1, 1)

    def _start(self, i: int) -> int:
        raise NotImplementedError

    def _start_digits(self, i: int) -> int:
        """Decimal digits of _start(i), the exact count or more, without
        computing it."""
        raise NotImplementedError

    def _floor_run(self, x: int) -> tuple[int, int] | None:
        """(start, i) of the run i with the largest start <= x, or None
        when x lies below run 1.  A plain pair, not a Run: membership asks
        this once per query."""
        raise NotImplementedError

    def member(self, x: int) -> bool:
        if x < 1:
            return False
        below = self._floor_run(x)
        return below is not None and x < below[0] + below[1]

    def next_run(
        self, min_len: int, lower_bound: int = 0, digit_limit: int = DECIMAL_DIGIT_LIMIT
    ) -> Run:
        _check_min_len(min_len)
        lb = max(lower_bound, 1)
        below = self._floor_run(lb)
        if below is not None and lb + min_len <= below[0] + below[1]:
            # the floor run of lb holds the answer, from lb on
            i, digits = None, decimal_digits(lb)
        else:
            # the first whole run past lb that is long enough
            i = max(min_len, 1 if below is None else below[1] + 1)
            digits = self._start_digits(i)
        if digits > digit_limit:
            raise BudgetExceeded(
                f"next run needs about {digits} digits, over the limit of {_echo(digit_limit)}"
            )
        return Run(lb if i is None else self._start(i), min_len)

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
        start, i = self._floor_run(window.base) or (self._start(1), 1)
        starts, ends = [], []
        prev_end = -1
        while start <= window.end:
            if prev_end + 1 >= start:
                raise AssertionError(f"runs {i - 1} and {i} touch")
            prev_end = start + i - 1
            if prev_end >= window.base:
                starts.append(start)
                ends.append(prev_end)
            i += 1
            start = self._start(i)
        return _fill(window, starts, ends)


class PowRuns(Record, _IndexedRuns):
    """Runs [c**i, c**i + i - 1] for every i >= 1, with base c >= 2."""

    _fields = ("c",)

    def __init__(self, c: int):
        if c < 2:
            raise ValueError(f"base must be >= 2, got {_echo(c)}")
        super().__init__(c)

    def _start(self, i: int) -> int:
        return self.c ** i

    def _start_digits(self, i: int) -> int:
        if i.bit_length() > 60:
            # the start itself is too large to ever represent
            return 1 << 62
        return int(i * math.log10(self.c)) + 1

    def _floor_run(self, x: int) -> tuple[int, int] | None:
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
            p //= c
            i -= 1
        return p, i


class PolyRuns(Record, _IndexedRuns):
    """Runs [i**p, i**p + i - 1] for every i >= 1, with exponent p >= 2."""

    _fields = ("p",)

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"exponent must be >= 2, got {_echo(p)}")
        super().__init__(p)

    def _start(self, i: int) -> int:
        return i ** self.p

    def _start_digits(self, i: int) -> int:
        return (self.p * i.bit_length() * 30103) // 100000 + 1

    def _floor_run(self, x: int) -> tuple[int, int] | None:
        if x < 1:
            return None
        i = nth_root_floor(x, self.p)
        return i ** self.p, i


def _fill(window: Window, starts: Sequence[int], ends: Sequence[int]) -> ExplicitWindow:
    """The bitmap on window of the ascending maximal runs [starts[i],
    ends[i]], each of which meets the window, each set as one start bit and
    one past-end bit in two bytearrays; the window keeps the runs, clipped
    to it, as its run_bounds().

    Run i covers the bits from its start offset up to its past-end offset,
    (1 << past_i) - (1 << start_i).  The runs are disjoint, so the sum over
    i is the past-end bitmap minus the start bitmap: O(runs + bits up to
    the last run's end).  Only the first run can start before the window
    and only the last can end after it, so only those two are clipped.
    Every start is >= 1, so bit 0 stays clear at window base 0.
    """
    if not starts:
        w = ExplicitWindow(window, 0)
        w._bounds = ((), ())
        return w
    base = window.base
    starts = (max(starts[0], base), *starts[1:])
    ends = (*ends[:-1], min(ends[-1], window.end))
    size = ends[-1] + 1 - base
    first, past = bytearray(size // 8 + 1), bytearray(size // 8 + 1)
    for o in starts:
        o -= base
        first[o >> 3] |= 1 << (o & 7)
    for o in ends:
        o += 1 - base
        past[o >> 3] |= 1 << (o & 7)
    w = ExplicitWindow(window, int.from_bytes(past, "little") - int.from_bytes(first, "little"))
    w._bounds = (starts, ends)
    return w


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


def _check_min_len(min_len: int) -> None:
    if min_len < 1:
        raise PreconditionFailed(f"run length must be >= 1, got {_echo(min_len)}")


def _run_payload(start: int, end: int) -> dict:
    """The run [start, end] as every report writes it: its start as a
    decimal string, so no start is too long for JSON, and its length."""
    return {"start": to_decimal(start), "len": end - start + 1}


# Each generator form by its name in the grammar: `gen <name>` followed by
# one integer per field of the class, in _fields order.  parse_set and
# serialize_set read only this table, so a new form is one class plus one
# entry here.
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
            raise ParseError(f"not an integer: {_echo(a)}", lineno) from None
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"line {lineno}: {exc}") from None
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
