"""Output checks that share no code with the program under test.

Every target set the benchmark hands to the CLI is generated here first,
so the benchmark knows its members from its own model (`SetModel`) and
can recheck a report by a route the program does not take: a sliding
count instead of the prefix-sum profile, a direct residue scan instead of
`ap_reduce`, interval arithmetic on the stored bases instead of the sweep.
A check returns nothing and raises `CheckFailed` with a reason.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from itertools import accumulate


class CheckFailed(Exception):
    """A report disagrees with the benchmark's own recomputation."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {exc}") from None


def _iroot(x: int, p: int) -> int:
    """Largest i >= 0 with i**p <= x, by bisection on the bit length."""
    if p == 2:
        return math.isqrt(x)
    lo, hi = 0, 1 << (x.bit_length() // p + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** p <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


class SetModel:
    """A target set as the benchmark generated it.

    kind is one of "full", "congruence" (m, r), "poly" (p), "pow" (c) or
    "runs" (a sorted tuple of (start, length) with gaps between runs).
    """

    def __init__(self, kind: str, *params):
        self.kind = kind
        self.params = params
        if kind == "runs":
            self.runs_list = tuple(params[0])
            self._starts = [s for s, _ in self.runs_list]

    def text(self) -> str:
        """Description in the CLI's set grammar."""
        if self.kind == "full":
            return "gen full\n"
        if self.kind == "congruence":
            return "gen congruence {} {}\n".format(*self.params)
        if self.kind == "poly":
            return f"gen poly_runs {self.params[0]}\n"
        if self.kind == "pow":
            return f"gen pow_runs {self.params[0]}\n"
        return "".join(
            f"elem {s}\n" if n == 1 else f"run {s} {n}\n" for s, n in self.runs_list
        )

    def _indexed_run(self, i: int) -> tuple[int, int]:
        base = self.params[0]
        start = i ** base if self.kind == "poly" else base ** i
        return start, start + i - 1

    def _index_at(self, x: int) -> int:
        """For poly/pow: largest i >= 1 whose run starts at or below x, or 0."""
        if self.kind == "poly":
            return _iroot(x, self.params[0])
        c, i = self.params[0], 0
        while c ** (i + 1) <= x:
            i += 1
        return i

    def run_at(self, x: int) -> tuple[int, int] | None:
        """The maximal run (first, last) holding x, or None for a non-member."""
        if x < 1:
            return None
        if self.kind == "full":
            return (1, math.inf)
        if self.kind == "congruence":
            m, r = self.params
            return (x, x) if x % m == r else None
        if self.kind == "runs":
            i = bisect_right(self._starts, x) - 1
            if i < 0:
                return None
            s, n = self.runs_list[i]
            return (s, s + n - 1) if x < s + n else None
        i = self._index_at(x)
        if i < 1:
            return None
        s, e = self._indexed_run(i)
        return (s, e) if x <= e else None

    def member(self, x: int) -> bool:
        return self.run_at(x) is not None

    def holds_interval(self, start: int, length: int) -> bool:
        run = self.run_at(start)
        return run is not None and start + length - 1 <= run[1]

    def runs_in(self, base: int, length: int) -> list[tuple[int, int]]:
        """Maximal runs of the window [base, base + length - 1], clipped, as (start, len)."""
        lo, hi = max(base, 1), base + length - 1
        out = []
        if self.kind == "full":
            out.append((lo, hi))
        elif self.kind == "congruence":
            m, r = self.params
            out.extend((y, y) for y in range(lo + (r - lo) % m, hi + 1, m))
        elif self.kind == "runs":
            i = max(bisect_right(self._starts, lo) - 1, 0)
            for s, n in self.runs_list[i:]:
                if s > hi:
                    break
                a, b = max(s, lo), min(s + n - 1, hi)
                if a <= b:
                    out.append((a, b))
        else:
            i = max(self._index_at(lo), 1)
            while True:
                s, e = self._indexed_run(i)
                if s > hi:
                    break
                a, b = max(s, lo), min(e, hi)
                if a <= b:
                    out.append((a, b))
                i += 1
        return [(a, b - a + 1) for a, b in out]

    def bitmap(self, base: int, length: int) -> bytearray:
        bits = bytearray(length)
        for s, n in self.runs_in(base, length):
            bits[s - base : s - base + n] = b"\x01" * n
        return bits

    def density(self) -> tuple[int, int] | None:
        if self.kind in ("full", "poly", "pow"):
            return (1, 1)
        if self.kind == "congruence":
            return (1, self.params[0])
        return None


def _block_max(bits: bytearray, n: int) -> int:
    """Most members in any n consecutive positions, by a sliding count."""
    count = best = sum(bits[:n])
    for u in range(n, len(bits)):
        count += bits[u] - bits[u - n]
        if count > best:
            best = count
    return best


def _check_f(f: list[int], bits: bytearray, sample_ns: list[int]) -> None:
    _require(len(f) == len(bits), f"f has {len(f)} values for a window of {len(bits)}")
    prev = 0
    for n, v in enumerate(f, 1):
        _require(v - prev in (0, 1), f"f[{n}] - f[{n - 1}] = {v - prev}, not 0 or 1")
        prev = v
    for n in sample_ns:
        _require(f[n - 1] == _block_max(bits, n), f"f[{n}] differs from the block count")


def _min_ratio(f: list[int]) -> tuple[int, int, int]:
    """min f[n]/n as a reduced (num, den) plus the smallest minimizing n."""
    best_f, best_n = f[0], 1
    for n, v in enumerate(f, 1):
        if v * best_n < best_f * n:
            best_f, best_n = v, n
    g = math.gcd(best_f, best_n)
    return best_f // g, best_n // g, best_n


def check_profile_json(model: SetModel, base: int, length: int, sample_ns: list[int]):
    def check(out: bytes) -> None:
        p = _json(out)
        _require(p["window"] == {"base": base, "length": length}, "window echo")
        f = p["f"]
        _check_f(f, model.bitmap(base, length), sample_ns)
        num, den, argmin = _min_ratio(f)
        _require(
            p["density"] == {"num": num, "den": den, "argmin": argmin},
            "density is not min f[n]/n of the emitted f",
        )
        gd = model.density()
        expected = None if gd is None else {"num": gd[0], "den": gd[1]}
        _require(p.get("generator_density") == expected, "generator_density")

    return check


def check_profile_csv(model: SetModel, base: int, length: int, sample_ns: list[int]):
    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        _require(lines[0] == "n,f,fn_over_n", "csv header")
        f = []
        for n, line in enumerate(lines[1:], 1):
            n_s, f_s, q = line.split(",")
            num, den = (int(v) for v in q.split("/"))
            v = int(f_s)
            _require(int(n_s) == n, f"row {n} numbered {n_s}")
            _require(num * n == v * den and math.gcd(num, den) == 1, f"row {n} ratio {q}")
            f.append(v)
        _check_f(f, model.bitmap(base, length), sample_ns)

    return check


def check_runs(model: SetModel, base: int, length: int, d: int | None):
    def check(out: bytes) -> None:
        p = _json(out)
        runs = model.runs_in(base, length)
        _require(p["window"] == {"base": base, "length": length}, "window echo")
        _require(
            p["runs"] == [{"start": str(s), "len": n} for s, n in runs], "run list"
        )
        longest = max((n for _, n in runs), default=0)
        _require(p["longest_run"] == longest, "longest_run")
        if d is not None:
            # no run of d members, so the strict bound may not fail anywhere
            _require(
                p["run_bound"]
                == {"d": d, "longest_run": longest, "ok": True, "failures": []},
                "run_bound",
            )

    return check


def check_ap_reduce(model: SetModel, base: int, length: int, m0: int):
    def check(out: bytes) -> None:
        p = _json(out)
        bits = model.bitmap(base, length)
        best = (0, 0, 0)
        for m in range(1, m0 + 1):
            for r in range(m):
                streak = longest = 0
                for off in range((r - base) % m, length, m):
                    streak = streak + 1 if bits[off] else 0
                    longest = max(longest, streak)
                if longest > best[0]:
                    best = (longest, m, r)
        want_len, m, r = best
        _require(
            (p["evidence_len"], p["m"], p["r"]) == (want_len, m, r),
            f"(evidence_len, m, r) should be {best}",
        )
        want = [
            (x - r) // m
            for x in range(base + (r - base) % m, base + length, m)
            if bits[x - base] and (x - r) // m >= 1
        ]
        got = [s + i for s, n in _parse_runs(p["derived_set"]) for i in range(n)]
        _require(got == want, "derived set is not the pulled-back class")

    return check


def _parse_runs(text: str) -> list[tuple[int, int]]:
    runs = []
    for line in text.splitlines():
        head, *args = line.split()
        runs.append((int(args[0]), 1 if head == "elem" else int(args[1])))
    return runs


def check_gen(model: SetModel):
    want = model.text().encode()

    def check(out: bytes) -> None:
        _require(out == want, "canonical text differs")

    return check


def check_construct(model: SetModel, ells: list[int]):
    def check(out: bytes) -> None:
        p = _json(out)
        k = len(ells)
        _require(p["ells"] == ells, "ells echo")
        bs = [int(b) for b in p["bs"]]
        _require(len(bs) == k and len(p["certificates"]) == k, "step count")
        total = 0
        for j, (b, ell, cert) in enumerate(zip(bs, ells, p["certificates"]), 1):
            _require(j == 1 or b >= bs[j - 2] + ells[j - 2], f"base {j} overlaps")
            total += b + ell
            start, n = int(cert["start"]), cert["len"]
            _require(start <= b and start + n >= total, f"certificate {j} too short")
            _require(model.holds_interval(start, n), f"certificate {j} leaves the set")

    return check


def check_verify(seq: dict, model: SetModel, k: int, status: str):
    def check(out: bytes) -> None:
        p = _json(out)
        _require(p["checked"] == 2 ** k - 1, f"checked {p['checked']} != 2**{k} - 1")
        _require(p["status"] == status, f"status {p['status']}, expected {status}")
        if status != "Fail":
            _require("witness" not in p, "witness on a passing sweep")
            return
        w, sub = int(p["witness"]), p["witness_subset"]
        _require(sub and all(1 <= j <= k for j in sub), "witness subset")
        bs = [int(seq["bs"][j - 1]) for j in sub]
        ells = [seq["ells"][j - 1] for j in sub]
        lo, hi = sum(bs), sum(bs) + sum(ells) - len(sub)
        _require(lo <= w <= hi, "witness outside its subset's interval sum")
        _require(not model.member(w), "witness is a member of the target")

    return check


def _family_index_sets(k: int, k_sets: int, scheme: str) -> list[list[int]]:
    if scheme == "residue":
        return [[j for j in range(1, k + 1) if j % k_sets == i % k_sets]
                for i in range(1, k_sets + 1)]
    q, rem = divmod(k, k_sets)
    sizes = [q + (i < rem) for i in range(k_sets)]
    starts = list(accumulate([1] + sizes))
    return [list(range(starts[i], starts[i] + sizes[i])) for i in range(k_sets)]


def check_family(k: int, k_sets: int, scheme: str):
    """Family report of `--ells j`, so the runs hold k(k+1)/2 members in all."""
    ix = _family_index_sets(k, k_sets, scheme)
    selections = math.prod(len(s) + 1 for s in ix) - 1

    def check(out: bytes) -> None:
        p = _json(out)
        fam, ver = p["family"], p["verification"]
        _require(fam["k_sets"] == k_sets and fam["index_sets"] == ix, "index sets")
        runs = sorted(
            (int(r["start"]), int(r["start"]) + r["len"] - 1)
            for comp in fam["sets"] for r in comp
        )
        # adjacent runs of one component merge, so compare member counts
        _require(sum(b - a + 1 for a, b in runs) == k * (k + 1) // 2, "component sizes")
        _require(all(a[1] < b[0] for a, b in zip(runs, runs[1:])), "components overlap")
        _require(ver == {"status": "Pass", "checked": selections}, f"verification {ver}")

    return check


def _escape_i0(t: int) -> int:
    """Smallest i >= 1 with 4**i - i > t."""
    i = 1
    while 4 ** i - i <= t:
        i += 1
    return i


def check_escape(t: int, i_max: int):
    i0 = _escape_i0(t)

    def check(out: bytes) -> None:
        p = _json(out)
        _require((p["t"], p["i0"]) == (t, i0), f"i0 should be {i0}")
        _require(p["checked"] == i_max - i0 + 1 == len(p["checks"]), "checked count")
        _require(p["all_escaped"] is True, "all_escaped")
        for i, c in enumerate(p["checks"], i0):
            _require(c.pop("i") == i and all(v is True for v in c.values()), f"rung {i}")

    return check
