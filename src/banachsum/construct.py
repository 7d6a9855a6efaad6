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
they recheck claims from set queries alone (run_end_at and materialize)
and report the smallest counterexample when one exists.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, Sequence

from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    HorizonExceeded,
    NoSuitableRun,
    PreconditionFailed,
)
from .intset import (
    DEFAULT_DIGIT_BUDGET,
    SUM_DIGITS,
    ExplicitWindow,
    IntSet,
    PowRuns,
    Record,
    Run,
    RunList,
    Window,
    _comb,
    _echo,
    _merge_spans,
    _run_payload,
    _streak,
    decimal_digits,
    from_decimal,
    serialize_set,
    to_decimal,
)
from .sumset import (
    SUBSET_BUDGET_MAX,
    pairwise_sumset,
    subset_of,
    verify_containment,
)

__all__ = [
    "BSequence",
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

# Largest rung index verify_escape checks: each rung works on integers of
# about 2i bits, and the report lists every rung, so time and output grow
# faster than i_max (on a 2-core x86-64 host, in-process: 0.25 s and 0.22 MB
# at 4096, about 7 s and 1.1 MB at 20 000).
ESCAPE_I_MAX_BUDGET = 4096


class BSequence(Record):
    """Base points b_j with run lengths ell_j.

    Step j's certificate is the claim that the target set contains one
    unbroken run covering [b_j, sum_{i<=j} (b_i + ell_i) - 1], which
    certificates() derives.  That interval contains the hull
    [b_j, e_1 + ... + e_j], with e_i = b_i + ell_i - 1, and so every subset
    sumset whose largest index is j: k run checks decide all 2**k - 1
    subset claims, and both verifiers make them first, in _failing_hull.
    """

    _fields = ("ells", "bs")

    def __init__(self, ells: tuple[int, ...], bs: tuple[int, ...]):
        k = len(bs)
        if len(ells) != k:
            raise ValueError("ells and bs must have equal length")
        if k == 0:
            raise ValueError("a base sequence needs at least one step")
        for j in range(k):
            b, ell = bs[j], ells[j]
            if ell < 1:
                raise ValueError(f"run length {_echo(ell)} at step {j + 1} must be >= 1")
            if b < 1:
                raise ValueError(f"base {_echo(b)} at step {j + 1} must be >= 1")
            if j > 0 and b < bs[j - 1] + ells[j - 1]:
                raise ValueError(
                    f"base at step {j + 1} must clear the previous run entirely"
                )
        super().__init__(ells, bs)

    @property
    def k(self) -> int:
        return len(self.bs)

    def run(self, j: int) -> Run:
        """The j-th run (1-based)."""
        return Run(self.bs[j - 1], self.ells[j - 1])

    def certificates(self) -> Iterator[Run]:
        """Step j's certificate, the run [b_j, sum_{i<=j} (b_i + ell_i) - 1]."""
        total = 0
        for b, ell in zip(self.bs, self.ells):
            total += b + ell
            yield Run(b, total - b)

    def to_payload(self) -> dict:
        return {
            "ells": list(self.ells),
            "bs": [to_decimal(b) for b in self.bs],
            "certificates": [_run_payload(c.start, c.end) for c in self.certificates()],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BSequence":
        """Inverse of to_payload; a stored certificate that does not cover
        its step's run of certificates() raises ValueError.

        ells, bs and certificates must be JSON arrays and each certificate
        a JSON object, else TypeError names the key.  Run lengths must be
        JSON integers; bases and certificate starts JSON integers or
        decimal strings.  A bool or a float anywhere, or a string where a
        length belongs, raises TypeError instead of being coerced.  Decimal
        strings are read by from_decimal, which refuses one of more than
        DECIMAL_DIGIT_LIMIT digits with BudgetExceeded before converting
        it; the CLI reads JSON integers with it too, as json.loads's
        parse_int.
        """
        keys = ("ells", "bs", "certificates")
        ells, bs, stored = (_payload_array(payload, key) for key in keys)
        if not len(ells) == len(bs) == len(stored):
            raise ValueError("ells, bs, certificates must have equal length")
        seq = cls(
            tuple(_exact_int(ell, "ells entry") for ell in ells),
            tuple(_exact_int(b, "base", text=True) for b in bs),
        )
        for j, (c, need) in enumerate(zip(stored, seq.certificates()), 1):
            if type(c) is not dict:
                raise TypeError(f"certificates entry must be an object, got {_echo(c)}")
            cert = Run(
                _exact_int(c["start"], "certificate start", text=True),
                _exact_int(c["len"], "certificate len"),
            )
            if cert.start > need.start or cert.end < need.end:
                raise ValueError(
                    f"certificate at step {j} must cover [{_echo(need.start)}, {_echo(need.end)}]"
                )
        return seq


def _payload_array(payload: dict, key: str) -> list:
    """payload[key], which must be a JSON array, else TypeError names key."""
    value = payload[key]
    if type(value) is not list:
        raise TypeError(f"{key} must be an array, got {_echo(value)}")
    return value


def _exact_int(value, what: str, text: bool = False) -> int:
    # bool is a subclass of int, so test the type itself
    if type(value) is int:
        return value
    if text and type(value) is str:
        return from_decimal(value)
    raise TypeError(f"{what} must be an integer, got {_echo(value)}")


def build_b_sequence(
    a: IntSet,
    ells: Sequence[int],
    k: int | None = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> BSequence:
    """Greedy base sequence inside a, each step's certificate run found first.

    Step j demands a run of length ell_j plus the total mass
    sum_{i<j} (b_i + ell_i) already placed, starting past the previous
    run.  Taking the smallest such run start keeps the sequence canonical
    for a given target and lengths.  A base estimated at more than
    digit_budget + SUM_DIGITS digits is refused before it is computed, and
    one of more than digit_budget digits after.
    """
    if k is None:
        k = len(ells)
    if k < 1:
        raise PreconditionFailed(f"need at least one step, got k={_echo(k)}")
    if len(ells) < k:
        raise PreconditionFailed(
            f"{_echo(k)} steps need {_echo(k)} run lengths, got {len(ells)}"
        )
    if any(ell < 1 for ell in ells[:k]):
        raise PreconditionFailed("every run length must be >= 1")
    bs: list[int] = []
    acc = 0
    for j in range(1, k + 1):
        ell = ells[j - 1]
        need = ell + acc
        lb = bs[-1] + ells[j - 2] if j >= 2 else 0
        try:
            found = a.next_run(need, lb, digit_budget + SUM_DIGITS)
        except HorizonExceeded as exc:
            raise NoSuitableRun(
                f"step {j}: target exhausted looking for a run of {_echo(need)} "
                f"at or above {_echo(lb)}"
            ) from exc
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"step {j}: {exc}") from exc
        if found is None:
            raise NoSuitableRun(
                f"step {j}: target provably has no run of {_echo(need)} at or above {_echo(lb)}"
            )
        b = found.start
        digits = decimal_digits(b)
        # the estimate is exact or one too high: one power of ten decides
        if digits > digit_budget and b < 10 ** (digits - 1):
            digits -= 1
        if digits > digit_budget:
            raise BudgetExceeded(
                f"step {j}: base has {digits} digits, over the budget of {_echo(digit_budget)}"
            )
        bs.append(b)
        acc += b + ell
    return BSequence(tuple(ells[:k]), tuple(bs))


class SweepReport(Record):
    """Aggregate verdict over a sweep of containment checks.

    Fail, when any check fails, is having a witness: the smallest failing
    element seen anywhere, given with the selection that produced it.
    """

    _fields = ("checked", "witness", "witness_subset")
    witness = witness_subset = None

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if (self.witness is None) != (self.witness_subset is None):
            raise TypeError("SweepReport takes a witness and its witness_subset together")

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_payload(self) -> dict:
        payload: dict = {"status": "Pass" if self.passed else "Fail", "checked": self.checked}
        if self.witness is not None:
            payload["witness"] = to_decimal(self.witness)
            payload["witness_subset"] = list(self.witness_subset)
        return payload


def _report(
    checked: int, found: tuple[int, int] | None, hole: int | None, brute_span: int
) -> SweepReport:
    """The report of checked claims from the search's least (witness, mask)
    found, bit p - 1 of mask set when part p took part, so a tie on the
    witness goes to the first selection in enumerate_subsets order.

    The fold saw every selection's sum on [0, brute_span], so its least
    hole there must be the search's witness when that is at most
    brute_span, and None otherwise; if they differ, that is a bug here,
    not a verdict, and AssertionError names both values.
    """
    witness = None if found is None else found[0]
    if hole != (witness if witness is not None and witness <= brute_span else None):
        raise AssertionError(
            f"the search's least witness is {'none' if witness is None else _echo(witness)}"
            f" but the fold's least hole on [0, {_echo(brute_span)}] is "
            f"{'none' if hole is None else _echo(hole)}"
        )
    if found is None:
        return SweepReport(checked)
    return SweepReport(checked, witness, subset_of(found[1]))


def _failing_hull(runs: Sequence[Run], a: IntSet) -> int | None:
    """The start of the first hull [start_j, end_1 + ... + end_j] of the
    ascending runs that a does not hold, or None when a holds them all; in
    hull j lie all sums of distinct runs whose largest is run j.  One
    run_end_at(start_j) per hull, until a hull fails or a run of a reaches
    end_1 + ... + end_k, which holds every hull left."""
    top, hi = sum(r.end for r in runs), 0
    for r in runs:
        hi += r.end
        reach = a.run_end_at(r.start)
        if reach is None or reach >= top:
            return None
        if reach < hi:
            return r.start
    return None


def _least_failure(
    parts: Sequence[Sequence[Run]], a: IntSet, fail: int
) -> tuple[int, int] | None:
    """The least (witness, mask) over every pick of at most one run per
    part, at least one run in all, or None when every pick passes.

    A pick sums to [sum of starts, sum of ends], and its witness is what
    verify_containment finds of that interval outside a.  fail is the
    start of the first hull a lacks (see _failing_hull): a pick whose runs
    all start below it sums inside a hull that passed, so the search starts
    from one node per run of each part p whose parts up to p hold a run
    from fail on.  A node fixes a run of part p and the choices above it,
    and every pick below it sums inside [lo, hi + rest[p]]: lo and hi sum
    the fixed starts and ends, rest[p] the largest run end of each part
    below p.  One run_end_at(lo) that reaches the top of that range passes
    the subtree; else the children fix part p - 1, "none" first, unless
    that reach holds none's range too.  A leaf's sum goes to
    verify_containment.  A node whose (lo, mask) is not below the least
    failure found so far is cut: its picks have witnesses of at least lo
    and masks of at least its own.  The node that would bring the count to
    2**SUBSET_BUDGET_MAX, read at call time, raises BudgetExceeded before
    it asks a anything; internal nodes count too, so a tree that must be
    visited whole holds up to twice its picks.
    """
    budget = SUBSET_BUDGET_MAX
    rest = [0]
    for runs in parts:
        rest.append(rest[-1] + max((r.end for r in runs), default=0))
    first = min(p for p, runs in enumerate(parts) if any(r.start >= fail for r in runs))
    # (p, sum of starts, sum of ends, mask), the lowest part's runs on top
    stack = [
        (p, r.start, r.end, 1 << p)
        for p in range(len(parts) - 1, first - 1, -1)
        for r in reversed(parts[p])
    ]
    best = None
    nodes = 0
    while stack:
        p, lo, hi, mask = stack.pop()
        nodes += 1
        if nodes >> budget:
            raise BudgetExceeded(
                f"checking the picks needs more than the budget of 2**{budget} - 1 search nodes"
            )
        if best is not None and (lo, mask) >= best:
            continue
        if p == 0:
            witness = verify_containment(Run(lo, hi - lo + 1), a)
            if witness is not None and (best is None or (witness, mask) < best):
                best = (witness, mask)
            continue
        reach = a.run_end_at(lo)
        if reach is not None and reach < hi + rest[p]:
            bit = 1 << (p - 1)
            stack.extend(
                (p - 1, lo + r.start, hi + r.end, mask | bit) for r in reversed(parts[p - 1])
            )
            if reach < hi + rest[p - 1]:
                stack.append((p - 1, lo, hi, mask))
    return best


def _grow(below: ExplicitWindow, part: ExplicitWindow, cap: int) -> ExplicitWindow:
    """The sums of every nonempty selection of the sets folded into below,
    then part, on [0, cap]: below | part | (part + below)."""
    grown = pairwise_sumset(part, below, cap)
    return ExplicitWindow(below.window, below.bits | part.bits | grown.bits)


def _fold_hole(sets: Sequence[IntSet], a: IntSet, brute_span: int) -> int | None:
    """The least integer of [0, brute_span] that the sum of some nonempty
    selection of sets holds and a lacks, or None when a holds them all.

    One fold over the sets' bitmaps keeps only the union of the sums of
    every nonempty selection of the sets so far, so one verify_containment
    of the last union against a's bitmap, materialized once, decides them
    all, with a set's bitmap and two unions alive at a time.  A set adds
    its sums with the union, one pairwise_sumset.  Once the union holds
    every integer of [full, brute_span], a set's members from full up and
    all their sums lie there, so a set is materialized below full only,
    and not summed when it has no member there, or when its least member
    finds the union full from there on, which lowers full.
    """
    window = Window(0, brute_span + 1)
    union = ExplicitWindow(window, 0)
    full = brute_span + 1
    for s in sets:
        part = s.materialize(Window(0, full))
        least = (part.bits & -part.bits).bit_length() - 1
        if least < 0:
            continue
        if (union.bits >> least).bit_count() > brute_span - least:
            full = least
        else:
            union = _grow(union, part, brute_span)
    return verify_containment(union, a.materialize(window))


def verify_b_sequence(
    seq: BSequence,
    a: IntSet,
    k_limit: int | None = None,
    brute_span: int = 10_000,
) -> SweepReport:
    """Recheck every nonempty subset's sumset against the target.

    The sumset of a subset's runs is the interval [sum of starts, sum of
    ends].  A greedy sequence passes all 2**k - 1 of them on the hulls of
    BSequence, which _failing_hull checks in at most k run queries: k
    roots for a PolyRuns(2) sequence and one query for a Full one, whatever
    k is, so a Full sequence of k = 30 passes with checked = 2**30 - 1.
    Past a failing hull, _least_failure searches them from that hull's run
    up, one run per part, and the report is its least failure, its subset the first in
    binary-counter order (see enumerate_subsets) among those sharing the
    witness.  _fold_hole checks that search on the window [0, brute_span]
    from the target's bitmap there (see _report).  The bases increase, so
    the runs that start in that window are the first ones, and only they
    are folded.  A negative k_limit raises PreconditionFailed before any
    query.

    Hulls are sufficient, not necessary: for bases 1, 10, 100 with unit
    lengths against `elem 1; run 10 2; run 100 2; run 110 2`, the hull
    [100, 111] holds a hole, yet all 7 subset sums are members, and the
    search passes that hull's picks in two nodes.  Bases 3**j with
    unit lengths sum to the integers whose base-3 digits are 0 and 1, so
    against `run 1 10; run 12 T` only the hull [9, 13] holds a hole, 11,
    which no subset sums to, until the sums pass T + 11: at k = 24 and 25
    with T = 10**11 the search fails with witness 104603532030 and subset
    (24, 22), and at k = 40 with T = 10**22 it passes, each in fewer than
    70 nodes.  Unit runs at multiples of 3 against Congruence(3, 0) pass
    every pick, but no node passes its subtree, so the search must visit
    the whole tree: k = 24 runs, 2**24 - 1 picks, exceed the node budget.
    """
    k = seq.k if k_limit is None else min(k_limit, seq.k)
    if k < 0:
        raise PreconditionFailed(f"k_limit must be >= 0, got {_echo(k_limit)}")
    runs = [seq.run(j) for j in range(1, k + 1)]
    fail = _failing_hull(runs, a)
    return _report(
        (1 << k) - 1,
        None if fail is None else _least_failure([[run] for run in runs], a, fail),
        _fold_hole([RunList([run]) for run in runs if run.start <= brute_span], a, brute_span),
        brute_span,
    )


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
            "sets": [[_run_payload(s, e) for s, e in zip(*rl.run_bounds())] for rl in self.sets],
        }


def build_family(seq: BSequence, k_sets: int, scheme: str = "residue") -> BFamily:
    """Partition the k runs into k_sets components.

    "residue" sends run j to component (j mod k_sets), so components
    interleave; "blocks" cuts {1..k} into contiguous chunks as equal as
    possible, longer chunks first.  Either split takes O(k), and
    k_sets is not capped beyond k.
    """
    k = seq.k
    if not 1 <= k_sets <= k:
        raise PreconditionFailed(
            f"component count must lie in [1, {k}], got {_echo(k_sets)}"
        )
    if scheme == "residue":
        index_sets = tuple(tuple(range(i, k + 1, k_sets)) for i in range(1, k_sets + 1))
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


def _check_disjoint(family: BFamily) -> list[Run]:
    """The runs of the family's sets, ascending, once no two of them
    overlap."""
    spans = sorted(
        (s, e, i) for i, rl in enumerate(family.sets, 1) for s, e in zip(*rl.run_bounds())
    )
    _, _, clash = _merge_spans(spans)
    if clash is not None:
        (s1, e1, i1), (s2, e2, i2) = clash
        raise DisjointnessViolation(
            f"component {i1} run [{_echo(s1)}, {_echo(e1)}] overlaps "
            f"component {i2} run [{_echo(s2)}, {_echo(e2)}]"
        )
    return [Run(s, e - s + 1) for s, e, _ in spans]


def verify_family(
    family: BFamily,
    a: IntSet,
    brute_span: int = 2048,
) -> SweepReport:
    """Recheck disjointness and every component selection's sumset.

    A selection's sumset is the union of the intervals of its picks, one
    run of each selected component set: those picks, at least one run in
    all, are what must lie in the target.  Every pick is a subset of the
    sets' runs, so _failing_hull on those runs in ascending order passes a
    greedy sequence's family; past a failing hull, _least_failure searches
    the picks, the components' runs as its parts, and _fold_hole over the
    component sets checks that search on [0, brute_span] (see _report).
    checked counts the picks of one source run per selected component,
    prod(|ix_i| + 1) - 1, whether or not adjacent source runs of a
    component merged into one run of its set: 200 runs in 8 residue
    components give 26**8 - 1, and 1000 runs in 1000 components
    2**1000 - 1.  Unit runs at 3, 6, ..., 90 against Congruence(3, 0),
    split into two blocks, fail their second hull but pass every pick, so
    the picks are searched: 255 nodes for 255 picks.
    """
    fail = _failing_hull(_check_disjoint(family), a)
    # the components' runs, listed only past a failing hull
    parts = ([Run(s, e - s + 1) for s, e in zip(*rl.run_bounds())] for rl in family.sets)
    return _report(
        prod(len(ix) + 1 for ix in family.index_sets) - 1,
        None if fail is None else _least_failure(list(parts), a, fail),
        _fold_hole(family.sets, a, brute_span),
        brute_span,
    )


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
            "derived_set": serialize_set(self.derived),
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
    latest, whatever m_max.  The worst case is a window whose best streak
    is short, such as two members at its two ends, which still searches
    about N differences.  The members of the winning class become the
    derived quotient set {(x - r) / m >= 1}, on a window from the class's
    first quotient q >= 1 to its last.
    """
    if m_max < 1:
        raise PreconditionFailed(f"difference bound must be >= 1, got {_echo(m_max)}")
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
    """Smallest i >= 1 with 4**i - i > t.

    4**i - i increases with i.  The search starts at i = bit_length(t) // 2,
    where 4**(i - 1) <= t / 2 for i >= 2, so nothing smaller qualifies, and
    4**(i + 1) - (i + 1) > t: at most one step up is taken.
    """
    if t < 0:
        raise PreconditionFailed(f"shift must be >= 0, got {_echo(t)}")
    i = max(t.bit_length() // 2, 1)
    while (1 << 2 * i) - i <= t:
        i += 1
    return i


class EscapeCheck(Record):
    """One rung of the doubling-escape ladder for run index i.

    below_double, 4**i - i > t, is the one link of the inequality chain
    from the shifted i-th run past the doubled run to the shifted next run
    that can fail: the others hold for t >= 0.  doubles_outside rechecks
    the conclusion from the set alone: the doubles, a comb of bits, ANDed
    with the set's bitmap on each shifted window.
    """

    _fields = ("i", "below_double", "doubles_outside")

    @property
    def chain_ok(self) -> bool:
        return self.below_double


class EscapeReport(Record):
    """The rungs checked for shift t, one EscapeCheck each from i0(t) up;
    all_escaped holds when every rung passes both checks."""

    _fields = ("t", "checks")

    @property
    def i0(self) -> int:
        return escape_i0(self.t)

    @property
    def checked(self) -> int:
        return len(self.checks)

    @property
    def all_escaped(self) -> bool:
        return all(c.below_double and c.doubles_outside for c in self.checks)

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
            f"rungs up to i_max = {_echo(i_max)} exceed the budget of {ESCAPE_I_MAX_BUDGET}"
        )
    i0 = escape_i0(t)
    if i_max < i0:
        raise PreconditionFailed(
            f"need i_max >= {i0} for shift {_echo(t)}, got {_echo(i_max)}"
        )
    gen = PowRuns(4)
    return EscapeReport(t, tuple(_escape_check(gen, t, i) for i in range(i0, i_max + 1)))


def _escape_check(gen: PowRuns, t: int, i: int) -> EscapeCheck:
    """Rung i of the ladder for shift t, on gen = PowRuns(4) for any i >= 1.

    The doubles 2b of the run [4**i, 4**i + i - 1] are 2 * 4**i plus the
    comb {0, 2, ..., 2i - 2}, so a shift by -t or +t meets the set exactly
    when that comb ANDs nonzero with gen's bitmap on the window of 2i - 1
    cells from 2 * 4**i - t or 2 * 4**i + t.  Cells below 0 hold no member
    and are cut from window and comb alike.  For i >= i0(t) both windows
    lie in [4**i, 4**(i + 1)), so each materialize starts from run i, the
    floor run of its base, and stops at run i + 1.
    """
    p = 1 << 2 * i
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
    return EscapeCheck(i, p - i > t, outside)
