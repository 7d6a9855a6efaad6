"""Constructions with machine-checkable certificates.

Three builders live here, each paired with an independent verifier:

* a greedy base sequence b_1 < b_2 < ... inside a target set, chosen so
  that the sumset of runs [b_j, b_j + ell_j - 1] over ANY nonempty subset
  of indices stays inside the target;
* a split of those runs into pairwise disjoint component sets whose
  selection sumsets inherit the same containment;
* an arithmetic-progression reduction that finds the strongest dilation
  structure in a window and pulls the set back along it.

A fourth block checks, for the quadruple-power run generator, that
doubling an element of the i-th run escapes every translate of the set
once i is large enough.  Verifiers never reuse the builder's reasoning:
they recheck claims from set queries alone (member, run_end_at, next_run
and materialize) and report the smallest counterexample when one exists.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod
from typing import Sequence

from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    HorizonExceeded,
    NoSuitableRun,
    PreconditionFailed,
)
from .intset import (
    ExplicitWindow,
    IntSet,
    PowRuns,
    Record,
    Run,
    RunList,
    Window,
    _comb,
    _merge_spans,
    _streak,
    decimal_digits,
    serialize_set,
)
from .sumset import (
    SUBSET_BUDGET_MAX,
    Status,
    check_subset_count,
    pairwise_sumset,
    subset_of,
    verify_containment,
)

__all__ = [
    "DEFAULT_DIGIT_BUDGET",
    "BSequence",
    "budget_int",
    "check_start_digits",
    "build_b_sequence",
    "SweepReport",
    "verify_b_sequence",
    "BFamily",
    "build_family",
    "verify_family",
    "APReduction",
    "ap_reduce",
    "ESCAPE_I_MAX_BUDGET",
    "escape_i0",
    "EscapeCheck",
    "EscapeReport",
    "verify_escape",
]

DEFAULT_DIGIT_BUDGET = 100_000
# Digits allowed past a digit budget for sums of bases: certificate lengths
# and witnesses are sums of bases, a few digits longer than any base.
SUM_DIGITS = 64

# Largest rung index verify_escape checks: each rung works on integers of
# about 2i bits, and the report lists every rung, so time and output grow
# faster than i_max (on a 2-core x86-64 host: 0.19 s and 0.55 MB at 4096,
# 6.6-7.8 s and 2.7 MB at 20 000).
ESCAPE_I_MAX_BUDGET = 4096


class BSequence(Record):
    """Base points b_j with run lengths ell_j and per-step run certificates.

    certificate j attests that the target set contains one unbroken run
    covering [b_j, sum_{i<=j} (b_i + ell_i) - 1].  That interval contains
    the hull [b_j, e_1 + ... + e_j], with e_i = b_i + ell_i - 1, and so
    every subset sumset whose largest index is j: k run checks decide all
    2**k - 1 subset claims.  verify_b_sequence makes those checks on the
    hulls from the target alone; it never reads the certificates.
    """

    _fields = ("ells", "bs", "certificates")

    def __init__(
        self, ells: tuple[int, ...], bs: tuple[int, ...], certificates: tuple[Run, ...]
    ):
        k = len(bs)
        if len(ells) != k or len(certificates) != k:
            raise ValueError("ells, bs, certificates must have equal length")
        if k == 0:
            raise ValueError("a base sequence needs at least one step")
        total = 0
        for j in range(k):
            b, ell, cert = bs[j], ells[j], certificates[j]
            if ell < 1:
                raise ValueError(f"run length {ell} at step {j + 1} must be >= 1")
            if b < 1:
                raise ValueError(f"base {b} at step {j + 1} must be >= 1")
            if j > 0 and b < bs[j - 1] + ells[j - 1]:
                raise ValueError(
                    f"base at step {j + 1} must clear the previous run entirely"
                )
            total += b + ell
            if cert.start > b or cert.end < total - 1:
                raise ValueError(
                    f"certificate at step {j + 1} must cover [{b}, {total - 1}]"
                )
        super().__init__(ells, bs, certificates)

    @property
    def k(self) -> int:
        return len(self.bs)

    def run(self, j: int) -> Run:
        """The j-th run (1-based)."""
        return Run(self.bs[j - 1], self.ells[j - 1])

    @classmethod
    def from_entries(cls, ells: Sequence[int], bs: Sequence[int]) -> "BSequence":
        """Build with the canonical tight certificates."""
        certs = []
        total = 0
        for b, ell in zip(bs, ells):
            total += b + ell
            certs.append(Run(b, total - b))
        return cls(tuple(ells), tuple(bs), tuple(certs))

    def to_payload(self) -> dict:
        return {
            "ells": list(self.ells),
            "bs": [str(b) for b in self.bs],
            "certificates": [
                {"start": str(c.start), "len": c.length} for c in self.certificates
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BSequence":
        """Inverse of to_payload.

        Run lengths must be JSON integers; bases and certificate starts
        JSON integers or decimal strings.  A bool or a float anywhere, or a
        string where a length belongs, raises TypeError instead of being
        coerced.  A decimal string longer than DEFAULT_DIGIT_BUDGET raises
        BudgetExceeded before it is converted.
        """
        return cls(
            tuple(_exact_int(ell, "ells entry") for ell in payload["ells"]),
            tuple(_exact_int(b, "base", text=True) for b in payload["bs"]),
            tuple(
                Run(
                    _exact_int(c["start"], "certificate start", text=True),
                    _exact_int(c["len"], "certificate len"),
                )
                for c in payload["certificates"]
            ),
        )


def budget_int(text: str) -> int:
    """int(text), refusing text longer than DEFAULT_DIGIT_BUDGET before
    converting it; usable as json.load's parse_int."""
    if len(text) > DEFAULT_DIGIT_BUDGET:
        raise BudgetExceeded(
            f"a number of {len(text)} digits exceeds the budget of "
            f"{DEFAULT_DIGIT_BUDGET} digits"
        )
    return int(text)


def _exact_int(value, what: str, text: bool = False) -> int:
    # bool is a subclass of int, so test the type itself
    if type(value) is int:
        return value
    if text and type(value) is str:
        return budget_int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def check_start_digits(
    a: IntSet, min_len: int, lower_bound: int, digit_budget: int, what: str = "next run"
) -> None:
    """Refuse a.next_run(min_len, lower_bound) before searching, when its
    start would need more than digit_budget digits: on fast-growing
    generators it can be too large to represent at all."""
    est = a.next_run_start_digits(min_len, lower_bound)
    if est is not None and est > digit_budget + SUM_DIGITS:
        raise BudgetExceeded(
            f"{what} needs about {est} digits, over the budget of {digit_budget}"
        )


def build_b_sequence(
    a: IntSet,
    ells: Sequence[int],
    k: int | None = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> BSequence:
    """Greedy base sequence inside a, with certificates found along the way.

    Step j demands a run of length ell_j plus the total mass
    sum_{i<j} (b_i + ell_i) already placed, starting past the previous
    run.  Taking the smallest such run start keeps the sequence canonical
    for a given target and lengths.
    """
    if k is None:
        k = len(ells)
    if k < 1:
        raise PreconditionFailed(f"need at least one step, got k={k}")
    if len(ells) < k:
        raise PreconditionFailed(f"{k} steps need {k} run lengths, got {len(ells)}")
    if any(ell < 1 for ell in ells[:k]):
        raise PreconditionFailed("every run length must be >= 1")
    bs: list[int] = []
    certs: list[Run] = []
    acc = 0
    for j in range(1, k + 1):
        ell = ells[j - 1]
        need = ell + acc
        lb = bs[-1] + ells[j - 2] if j >= 2 else 0
        check_start_digits(a, need, lb, digit_budget, f"step {j}: next base")
        try:
            found = a.next_run(need, lb)
        except HorizonExceeded as exc:
            raise NoSuitableRun(
                f"step {j}: target exhausted looking for a run of {need} "
                f"at or above {lb}"
            ) from exc
        if found is None:
            raise NoSuitableRun(
                f"step {j}: target provably has no run of {need} at or above {lb}"
            )
        b = found.start
        if decimal_digits(b) > digit_budget:
            raise BudgetExceeded(
                f"step {j}: base has {decimal_digits(b)} digits, over the "
                f"budget of {digit_budget}"
            )
        bs.append(b)
        certs.append(Run(b, need))
        acc += b + ell
    return BSequence(tuple(ells[:k]), tuple(bs), tuple(certs))


class SweepReport(Record):
    """Aggregate verdict over a sweep of containment checks.

    Fail dominates PartialWindow dominates Pass.  The witness is the
    smallest failing element seen anywhere, with the selection that
    produced it.
    """

    _fields = ("status", "checked", "witness", "witness_subset", "partial_count")
    witness = witness_subset = None
    partial_count = 0

    @property
    def passed(self) -> bool:
        return self.status is Status.PASS

    def to_payload(self) -> dict:
        payload: dict = {"status": self.status.value, "checked": self.checked}
        if self.witness is not None:
            payload["witness"] = str(self.witness)
            payload["witness_subset"] = list(self.witness_subset or ())
        if self.partial_count:
            payload["partial_count"] = self.partial_count
        return payload


class _SweepState:
    """Folds individual verdicts into the aggregate.  A failure is kept as
    the smallest (witness, mask), bit p - 1 of mask set when part p took
    part, so a tie on the witness goes to the first selection in
    enumerate_subsets order; report() builds that selection's tuple."""

    def __init__(self):
        self.checked = self.partials = 0
        self.worst: tuple[int, int] | None = None

    def fail(self, witness: int, mask: int) -> None:
        if self.worst is None or (witness, mask) < self.worst:
            self.worst = (witness, mask)

    def report(self) -> SweepReport:
        if self.worst is not None:
            witness, mask = self.worst
            return SweepReport(
                Status.FAIL, self.checked, witness, subset_of(mask), self.partials
            )
        status = Status.PARTIAL_WINDOW if self.partials else Status.PASS
        return SweepReport(status, self.checked, partial_count=self.partials)


class _MemberWalk:
    """Smallest non-member of an interval, asking the target about each
    integer at most once per sweep.

    Stretches of members already walked are kept as disjoint, non-adjacent
    intervals sorted by start, in the lists starts and ends, and the
    non-members that ended walks in a set, so a walk skips whatever an
    earlier one covered.  _sweep reads the two lists to pass an interval
    inside one stretch without calling first_gap at all; they are only
    ever changed in place, so a reference to them stays current.  A
    one-integer interval is asked directly and not recorded: such claims
    hardly ever repeat, and keeping them would only cost memory.
    """

    def __init__(self, target: IntSet):
        self._member = target.member
        self._window = target.window if isinstance(target, ExplicitWindow) else None
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._gaps: set[int] = set()

    def first_gap(self, lo: int, hi: int) -> int | None:
        """Smallest x in [lo, hi] that is not a member, or None.  A window
        target decides nothing outside its window, so nothing there is asked."""
        if self._window is not None:
            lo, hi = max(lo, self._window.base), min(hi, self._window.end)
        if lo == hi:
            return None if self._member(lo) else lo
        starts, ends, gaps, member = self.starts, self.ends, self._gaps, self._member
        x = lo
        while x <= hi:
            i = bisect_right(starts, x) - 1
            if i >= 0 and x <= ends[i]:
                x = ends[i] + 1
                continue
            stop = hi if i + 1 == len(starts) else min(hi, starts[i + 1] - 1)
            y = x
            while y <= stop and y not in gaps and member(y):
                y += 1
            if y > x:
                self._add(i, x, y - 1)
            if y <= stop:
                gaps.add(y)
                return y
            x = y
        return None

    def _add(self, i: int, lo: int, hi: int) -> None:
        """Record members [lo, hi], which lie between intervals i and i + 1."""
        starts, ends = self.starts, self.ends
        left = i >= 0 and ends[i] == lo - 1
        right = i + 1 < len(starts) and starts[i + 1] == hi + 1
        if left and right:
            ends[i] = ends.pop(i + 1)
            del starts[i + 1]
        elif left:
            ends[i] = hi
        elif right:
            starts[i + 1] = lo
        else:
            starts.insert(i + 1, lo)
            ends.insert(i + 1, hi)


def _sweep(
    parts: Sequence[Sequence[Run]], a: IntSet, brute_span: int, state: _SweepState
) -> None:
    """Check [sum of starts, sum of ends] against a for every pick of at
    most one run per part, at least one run in all, in mixed-radix counter
    order (Knuth, TAOCP 4A, 7.2.1.1, Algorithm M): digit 0 leaves a part
    out, digit d picks its d-th run, and part 1's digit changes fastest.
    A step raises one digit and drops the full digits below it to 0, so
    both sums move by one precomputed difference.  A sum starts at or above
    the run picked in its top part and passes on one comparison when it
    ends inside the target's run through that start, looked up once; any
    other sum goes to verify_containment.  The brute route walks sums of at
    most brute_span integers with member() alone, through one _MemberWalk;
    a sum inside a stretch of members the walk has already covered passes
    on one bisection of its stretches, with no call.  More than
    2**SUBSET_BUDGET_MAX - 1 picks raise BudgetExceeded first.

    The verifiers call this only when _hulls_pass cannot vouch for every
    pick: it finds the smallest witness and its first selection, and it
    decides claims the hulls are too coarse for.
    """
    fulls = [len(runs) for runs in parts]
    picks = prod(f + 1 for f in fulls) - 1
    if picks >> SUBSET_BUDGET_MAX:
        raise BudgetExceeded(
            f"checking {picks} picks exceeds the budget of 2**{SUBSET_BUDGET_MAX} - 1"
        )
    walk = _MemberWalk(a)
    known_lo, known_hi = walk.starts, walk.ends
    # rise_lo[p][d]: the move of lo when part p's digit rises to d and the
    # full digits below it drop to 0; rise_hi likewise for hi
    rise_lo, rise_hi, full_lo, full_hi = [], [], 0, 0
    for runs in parts:
        starts, ends = [0] + [r.start for r in runs], [0] + [r.end for r in runs]
        rise_lo.append([x - y - full_lo for x, y in zip(starts, [0] + starts)])
        rise_hi.append([x - y - full_hi for x, y in zip(ends, [0] + ends)])
        full_lo, full_hi = full_lo + starts[-1], full_hi + ends[-1]
    digits = [0] * len(parts)
    def mask() -> int:
        return sum(1 << q for q, d in enumerate(digits) if d)
    lo, hi, top = 0, 0, -1  # the current pick's sums and its top part
    state.checked += picks
    for _ in range(picks):
        p = 0
        while digits[p] == fulls[p]:
            digits[p] = 0
            p += 1
        d = digits[p] = digits[p] + 1
        lo += rise_lo[p][d]
        hi += rise_hi[p][d]
        if p >= top:
            top = p
            # a non-member start reaches start - 1, below every sum
            reach = a.run_end_at(parts[p][d - 1].start)
        if reach is not None and hi > reach:
            v = verify_containment(Run(lo, hi - lo + 1), a)
            if v.status is Status.PARTIAL_WINDOW:
                state.partials += 1
            elif v.status is Status.FAIL:
                state.fail(v.witness, mask())
        if hi - lo < brute_span:
            # a sum inside a stretch of members already walked passes here
            j = bisect_right(known_lo, lo) - 1
            if j < 0 or hi > known_hi[j]:
                witness = walk.first_gap(lo, hi)
                if witness is not None:
                    state.fail(witness, mask())


def _hulls_pass(runs: Sequence[Run], a: IntSet, brute_span: int) -> bool:
    """Whether a contains the hull of every top index, which proves every pick.

    With e_i the end of runs[i], a pick whose highest run is runs[j] sums
    to an interval inside the hull [start of runs[j], e_0 + ... + e_j], as
    every start and end is positive.  A hull passes only when both run
    queries vouch for it: run_end_at through its start reaches its end,
    and next_run of its length from its start returns a run at that start.
    A hull of at most brute_span integers must then also pass one
    _MemberWalk, right after its run queries, so a PowRuns or PolyRuns
    target answers all three within the bracket of that run.  The first
    failing hull ends the check, and a hull a window target cannot decide
    fails.  False proves nothing: the hulls are sufficient, not necessary,
    and _sweep decides what they cannot.
    """
    walk = _MemberWalk(a)
    reach = 0
    for run in runs:
        lo = run.start
        reach += run.end
        end = a.run_end_at(lo)
        if end is not None and end < reach:
            return False
        try:
            found = a.next_run(reach - lo + 1, lo)
        except HorizonExceeded:
            return False
        if found is None or found.start != lo:
            return False
        if reach - lo < brute_span and walk.first_gap(lo, reach) is not None:
            return False
    return True


def verify_b_sequence(
    seq: BSequence,
    a: IntSet,
    k_limit: int | None = None,
    brute_span: int = 10_000,
) -> SweepReport:
    """Recheck every nonempty subset's sumset against the target.

    The sumset of a subset's runs is the interval [sum of starts, sum of
    ends], inside the hull of its top run, so when every hull passes
    (_hulls_pass) all 2**k - 1 subsets pass: k run lookups per route and
    one membership query per integer of the hulls of at most brute_span
    integers.  Otherwise the runs are the parts of one _sweep, one run
    each, so subsets come in binary-counter order (see enumerate_subsets),
    and both of its routes must agree with containment for a Pass.  A
    negative k_limit raises PreconditionFailed before any query;
    BudgetExceeded, for k over SUBSET_BUDGET_MAX, comes only before that
    fallback.
    """
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    if k < 0:
        raise PreconditionFailed(f"k_limit must be >= 0, got {k_limit}")
    runs = [seq.run(j) for j in range(1, k + 1)]
    if _hulls_pass(runs, a, brute_span):
        return SweepReport(Status.PASS, (1 << k) - 1)
    check_subset_count(k)
    state = _SweepState()
    _sweep([[run] for run in runs], a, brute_span, state)
    return state.report()


class BFamily(Record):
    """Disjoint component sets carved out of a base sequence's runs.

    index_sets[i] lists which run indices (1-based) feed component i + 1;
    together they partition {1..k}.  Component sets keep the actual runs,
    so selections of components sum run-by-run.
    """

    _fields = ("k_sets", "index_sets", "sets", "source")

    def to_payload(self) -> dict:
        return {
            "k_sets": self.k_sets,
            "index_sets": [list(ix) for ix in self.index_sets],
            "sets": [
                [{"start": str(r.start), "len": r.length} for r in rl.runs]
                for rl in self.sets
            ],
        }


def build_family(seq: BSequence, k_sets: int, scheme: str = "residue") -> BFamily:
    """Partition the k runs into k_sets components.

    "residue" sends run j to component (j mod k_sets), so components
    interleave; "blocks" cuts {1..k} into contiguous chunks as equal as
    possible, longer chunks first.
    """
    k = seq.k
    if not 1 <= k_sets <= k:
        raise PreconditionFailed(
            f"component count must lie in [1, {k}], got {k_sets}"
        )
    if scheme == "residue":
        index_sets = tuple(
            tuple(j for j in range(1, k + 1) if j % k_sets == i % k_sets)
            for i in range(1, k_sets + 1)
        )
    elif scheme == "blocks":
        q, rem = divmod(k, k_sets)
        index_sets = []
        nxt = 1
        for i in range(k_sets):
            size = q + (1 if i < rem else 0)
            index_sets.append(tuple(range(nxt, nxt + size)))
            nxt += size
        index_sets = tuple(index_sets)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    sets = tuple(RunList(seq.run(j) for j in ix) for ix in index_sets)
    assert sorted(j for ix in index_sets for j in ix) == list(range(1, k + 1))
    return BFamily(k_sets, index_sets, sets, seq)


def _check_disjoint(family: BFamily) -> None:
    _, _, clash = _merge_spans(sorted(
        (run.start, run.end, i) for i, rl in enumerate(family.sets, 1) for run in rl.runs
    ))
    if clash is not None:
        (s1, e1, i1), (s2, e2, i2) = clash
        raise DisjointnessViolation(
            f"component {i1} run [{s1}, {e1}] overlaps component {i2} run [{s2}, {e2}]"
        )


def verify_family(
    family: BFamily,
    a: IntSet,
    brute_span: int = 2048,
) -> SweepReport:
    """Recheck disjointness and every component selection's sumset.

    For each nonempty selection of components, every way of picking one
    source run per selected component gives an interval that must lie in
    the target: prod(|ix_i| + 1) - 1 picks in all.  Every pick is a subset
    of the source runs, so when the source sequence's hulls pass both run
    queries (_hulls_pass, with no member walk: the bitmap route below is
    the second route) every pick passes.  Otherwise the picks are one
    _sweep over the components' source runs, under its pick budget.  More
    than SUBSET_BUDGET_MAX components raise BudgetExceeded before any
    query, since the bitmap route takes 2**k_sets - 1 selections.

    Short selections are rechecked by summing materialized component
    bitmaps and handing the sum to verify_containment; only its Fail
    counts, since sums a window target cannot decide are not evidence
    either way.  Every part and every sum lies on the window [0,
    brute_span], so a target other than a window is materialized there
    once and each selection's check is one AND with that bitmap.  The
    selections are walked depth first by increasing component: a
    selection's sum is the sum of the selection without its highest
    component plus that component, one pairwise_sumset each, with one sum
    per depth held at a time.  A selection holding an empty component is
    skipped with all its extensions.
    """
    _check_disjoint(family)
    check_subset_count(family.k_sets)
    state = _SweepState()
    source = family.source
    if _hulls_pass([source.run(j) for j in range(1, source.k + 1)], a, 0):
        state.checked = prod(len(ix) + 1 for ix in family.index_sets) - 1
    else:
        runs = [[source.run(j) for j in ix] for ix in family.index_sets]
        _sweep(runs, a, 0, state)
    window = Window(0, brute_span + 1)
    parts = [rl.materialize(window) for rl in family.sets]
    # every part and every capped sum lies on this window: a target that
    # decides everywhere is materialized on it once, for all selections
    target = a if isinstance(a, ExplicitWindow) else a.materialize(window)

    def extend(mask: int, acc: ExplicitWindow | None, low: int) -> None:
        for i in range(low, len(parts)):
            if not parts[i].bits:
                continue
            total = parts[i] if acc is None else pairwise_sumset(parts[i], acc, brute_span)
            v = verify_containment(total, target)
            if v.status is Status.FAIL:
                state.fail(v.witness, mask | 1 << i)
            extend(mask | 1 << i, total, i + 1)

    extend(0, None, 0)
    return state.report()


class APReduction(Record):
    """Strongest dilation structure found in a window.

    The window's members congruent to r mod m pull back to the quotient
    set stored in derived; dilating derived by (m, r) lands inside the
    original members by construction.  evidence_len is the length of the
    longest unbroken progression with difference m that drove the choice.
    """

    _fields = ("m", "r", "derived", "evidence_len")

    def to_payload(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "evidence_len": self.evidence_len,
            "derived_set": serialize_set(self.derived.to_run_list()),
        }


def ap_reduce(w: ExplicitWindow, m_max: int) -> APReduction:
    """Find the longest member progression with difference m <= m_max.

    Every residue class of every difference is searched for its longest
    unbroken streak of members, all classes of one m at once on the
    bitmap: _streak finds the longest L in O(log N) big-int steps per m,
    and the starts it returns name the classes holding such a streak.
    Ties prefer the smallest difference, then the smallest residue.  A
    class of difference m holds at most (N - 1) // m + 1 of the window's N
    cells, a count that never grows with m, so the search stops at the
    first m whose classes cannot beat the best streak: by m = N at the
    latest, whatever m_max.  The members of the winning class become the
    derived quotient set {(x - r) / m >= 1}, on a window from the class's
    first quotient q >= 1 to its last.
    """
    if m_max < 1:
        raise PreconditionFailed(f"difference bound must be >= 1, got {m_max}")
    if w.bits == 0:
        raise PreconditionFailed("window has no members to reduce")
    base, end = w.window.base, w.window.end
    N = w.window.length
    bits = w.bits
    best_len, best_m, best_r = 0, 0, 0
    for m in range(1, m_max + 1):
        if (N - 1) // m + 1 <= best_len:
            break
        longest, starts = _streak(bits, m)
        if longest > best_len:
            comb = _comb(m, (N - 1) // m + 1)  # bits at offsets 0, m, 2m, ... below N
            r = next(x for x in range(m) if starts & (comb << (x - base) % m))
            best_len, best_m, best_r = longest, m, r
    m, r = best_m, best_r
    first = (r - base) % m  # offset of the class's lowest cell
    cells = format(bits, f"0{N}b")[::-1][first::m]
    q_first = (base + first - r) // m
    # the derived window spans the class's quotients q >= 1 in the window,
    # at most N // m + 1 cells whatever the window's base
    q_lo = max(q_first, 1)
    derived_bits = int(cells[::-1], 2) >> (q_lo - q_first)
    derived = ExplicitWindow(Window(q_lo, (end - r) // m - q_lo + 1), derived_bits)
    return APReduction(m, r, derived, best_len)


def escape_i0(t: int) -> int:
    """Smallest i >= 1 with 4**i - i > t."""
    if t < 0:
        raise PreconditionFailed(f"shift must be >= 0, got {t}")
    i = 1
    while (1 << 2 * i) - i <= t:
        i += 1
    return i


class EscapeCheck(Record):
    """One rung of the doubling-escape ladder for run index i.

    The five inequalities chain the end of the shifted i-th run, the
    doubled run, and the start of the shifted next run into one strict
    ordering; doubles_outside rechecks the conclusion from the set alone:
    the doubles, a comb of bits, ANDed with the set's bitmap on each
    shifted window.
    """

    _fields = (
        "i",
        "below_double",
        "double_lower",
        "double_upper",
        "gap_clearance",
        "shift_margin",
        "doubles_outside",
    )

    @property
    def chain_ok(self) -> bool:
        return (
            self.below_double
            and self.double_lower
            and self.double_upper
            and self.gap_clearance
            and self.shift_margin
        )


class EscapeReport(Record):
    _fields = ("t", "i0", "checked", "all_escaped", "checks")

    def to_payload(self) -> dict:
        return {
            "t": self.t,
            "i0": self.i0,
            "checked": self.checked,
            "all_escaped": self.all_escaped,
            "checks": [dict(zip(c._fields, c._values())) for c in self.checks],
        }


def verify_escape(t: int, i_max: int) -> EscapeReport:
    """Check that doubles of run i escape both shifts of the set, i0(t) <= i <= i_max.

    For each index the inequality chain is evaluated in exact arithmetic,
    and independently the doubles are tested against the set's bitmap on
    each shifted window, one AND per shift (see _escape_check).  An i_max
    over ESCAPE_I_MAX_BUDGET raises BudgetExceeded before the first rung.
    """
    if i_max > ESCAPE_I_MAX_BUDGET:
        raise BudgetExceeded(
            f"rungs up to i_max = {i_max} exceed the budget of {ESCAPE_I_MAX_BUDGET}"
        )
    i0 = escape_i0(t)
    if i_max < i0:
        raise PreconditionFailed(
            f"need i_max >= {i0} for shift {t}, got {i_max}"
        )
    gen = PowRuns(4)
    checks = tuple(_escape_check(gen, t, i) for i in range(i0, i_max + 1))
    all_ok = all(c.chain_ok and c.doubles_outside for c in checks)
    return EscapeReport(t, i0, len(checks), all_ok, checks)


def _escape_check(gen: PowRuns, t: int, i: int) -> EscapeCheck:
    """Rung i of the ladder for shift t, on gen = PowRuns(4) for any i >= 1.

    The doubles 2b of the run [4**i, 4**i + i - 1] are 2 * 4**i plus the
    comb {0, 2, ..., 2i - 2}, so a shift by -t or +t meets the set exactly
    when that comb ANDs nonzero with gen's bitmap on the window of 2i - 1
    cells from 2 * 4**i - t or 2 * 4**i + t.  Cells below 0 hold no member
    and are cut from window and comb alike.  For i >= i0(t) both windows
    lie in the bracket [4**i, 4**(i + 1)), so gen locates it once per rung.
    """
    p, pn = 1 << 2 * i, 1 << 2 * (i + 1)
    b_lo, b_hi = p, p + i - 1
    doubles = _comb(2, i)
    outside = True
    for base in (2 * p - t, 2 * p + t):
        cut = max(-base, 0)
        if cut >= 2 * i - 1:
            continue
        near = gen.materialize(Window(base + cut, 2 * i - 1 - cut))
        if near.bits & doubles >> cut:
            outside = False
            break
    return EscapeCheck(
        i=i,
        below_double=p + i + t < 2 * p,
        double_lower=2 * p <= 2 * b_lo,
        double_upper=2 * b_hi < 2 * p + 2 * i,
        gap_clearance=2 * p + 2 * i < pn - 2 * t,
        shift_margin=pn - 2 * t <= pn - t,
        doubles_outside=outside,
    )
