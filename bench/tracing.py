"""In-process tracing of the package's layers, from the benchmark's side.

`Tracer.install` swaps each traced function of `banachsum.intset`,
`density`, `sumset`, `construct` and `cli` for a wrapper, in every module
that holds a reference to it, and `uninstall` puts the originals back.
Nothing under src/ changes.

Calls of the coarse functions become spans (name, start, end, parent,
operation) kept in memory.  The hot leaves (`member`, `nth_root_floor`,
`run_sum`, `verify_containment`, `pairwise_sumset` and the steps of the
`elements` and `enumerate_subsets` generators) run millions of times per
sweep, so they are not stored one by one: a span's `hot` table holds the
count and total duration of the hot calls made while it was open.  Self
time is a call's duration minus the time of the traced calls directly
inside it; the wrappers' own cost lands in the caller's self time, and
`trace.overhead_ratio` says how large it is.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

COARSE = {
    "intset": ["parse_set"],
    "density": ["f_profile", "density_estimate", "check_run_bound", "profile_csv",
                "check_subadditivity", "fekete_qd_check"],
    "construct": ["build_b_sequence", "verify_b_sequence", "verify_family",
                  "verify_escape", "ap_reduce"],
    "cli": ["main"],
}
HOT = {
    "intset": ["nth_root_floor"],
    "sumset": ["verify_containment", "run_sum", "pairwise_sumset", "enumerate_subsets"],
}
# methods traced on every class of intset that defines them
HOT_METHODS = ["member", "elements"]
COARSE_METHODS = ["materialize"]
HOT_NAMES = {f"{mod}.{f}" for mod, names in HOT.items() for f in names} | {
    f"intset.{m}" for m in HOT_METHODS}


def _digits(x: int) -> int:
    return len(str(x)) if x.bit_length() < 13000 else int(x.bit_length() * 0.30103) + 1


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # name -> [calls, self seconds, inclusive seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[list] = []  # [start, child seconds]
        self._span = -1  # innermost open span
        self._in_verify = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _hot(self, name: str, fn):
        stack, tot = self._stack, self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                tot[0] += 1
                tot[1] += dur - frame[1]
                tot[2] += dur
                if stack:
                    stack[-1][1] += dur

        if name == "intset.nth_root_floor":
            inner, counts = wrapper, self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._in_verify:
                    counts["construct.root_extractions"] += 1
                return inner(*args, **kwargs)

        return wrapper

    def _hot_generator(self, name: str, fn):
        step = self._hot(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def _coarse(self, name: str, fn):
        tracer, stack, tot = self, self._stack, self.totals[name]
        hot = {h: self.totals[h] for h in HOT_NAMES}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._note_call(name, args)
            parent = tracer._span
            span = {"name": name, "op": tracer.op, "parent": parent}
            tracer._span = len(tracer.spans)
            tracer.spans.append(span)
            hot_before = {h: (t[0], t[2]) for h, t in hot.items()}
            verify = name == "construct.verify_b_sequence"
            tracer._in_verify += verify
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                tot[0] += 1
                tot[1] += dur - frame[1]
                tot[2] += dur
                if stack:
                    stack[-1][1] += dur
                tracer._in_verify -= verify
                span["start"], span["end"], span["self"] = frame[0], end, dur - frame[1]
                span["hot"] = {
                    h: [t[0] - hot_before[h][0], t[2] - hot_before[h][1]]
                    for h, t in hot.items() if t[0] != hot_before[h][0]
                }
                tracer._span = parent
            tracer._note_result(name, result)
            return result

        return wrapper

    def _note_call(self, name: str, args) -> None:
        if name == "intset.materialize":
            self.counts["intset.materialize.bits"] += args[1].length
        elif name == "density.f_profile":
            n = args[0].window.length
            self.counts["density.f_profile.cells"] += n * (n + 1) // 2

    def _note_result(self, name: str, result) -> None:
        if name == "construct.verify_b_sequence":
            self.counts["construct.subsets_checked"] += result.checked
        elif name == "construct.build_b_sequence":
            digits = max(_digits(b) for b in result.bs)
            self.counts["construct.max_base_digits"] = max(
                self.counts["construct.max_base_digits"], digits)

    # -- installing ---------------------------------------------------------

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("banachsum") and mod is not None}
        wrapped = {}
        for table, make in ((COARSE, self._coarse), (HOT, self._hot)):
            for mod, names in table.items():
                module = mods[f"banachsum.{mod}"]
                for fname in names:
                    fn = getattr(module, fname)
                    maker = self._hot_generator if inspect.isgeneratorfunction(fn) else make
                    wrapped[fn] = maker(f"{mod}.{fname}", fn)
        # rebind every module-level reference, including `from .x import f`
        for module in mods.values():
            for attr, val in list(vars(module).items()):
                if callable(val) and val in wrapped:
                    self._swap(module, attr, wrapped[val])
        intset = mods["banachsum.intset"]
        for cls in vars(intset).values():
            if not (isinstance(cls, type) and issubclass(cls, intset.IntSet)):
                continue
            for meth in HOT_METHODS + COARSE_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                if inspect.isgeneratorfunction(fn):
                    new = self._hot_generator(f"intset.{meth}", fn)
                elif meth in HOT_METHODS:
                    new = self._hot(f"intset.{meth}", fn)
                else:
                    new = self._coarse(f"intset.{meth}", fn)
                self._swap(cls, meth, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures the tracer can give on its own."""
    t, c = tracer.totals, tracer.counts
    checked, roots = c["construct.subsets_checked"], c["construct.root_extractions"]
    verify_s = t["construct.verify_b_sequence"][2]
    return {
        "cli.main.self_s": t["cli.main"][1],
        "intset.nth_root_floor.calls": t["intset.nth_root_floor"][0],
        "intset.nth_root_floor.self_s": t["intset.nth_root_floor"][1],
        "intset.member.calls": t["intset.member"][0],
        "intset.member.self_s": t["intset.member"][1],
        "intset.materialize.calls": t["intset.materialize"][0],
        "intset.materialize.self_s": t["intset.materialize"][1],
        "intset.materialize.bits": c["intset.materialize.bits"],
        "intset.parse_set.self_s": t["intset.parse_set"][1],
        "intset.elements.self_s": t["intset.elements"][1],
        "density.f_profile.calls": t["density.f_profile"][0],
        "density.f_profile.self_s": t["density.f_profile"][1],
        "density.f_profile.cells": c["density.f_profile.cells"],
        "density.density_estimate.self_s": t["density.density_estimate"][1],
        "density.check_run_bound.self_s": t["density.check_run_bound"][1],
        "density.profile_csv.self_s": t["density.profile_csv"][1],
        "sumset.verify_containment.calls": t["sumset.verify_containment"][0],
        "sumset.verify_containment.self_s": t["sumset.verify_containment"][1],
        "sumset.run_sum.calls": t["sumset.run_sum"][0],
        "sumset.run_sum.self_s": t["sumset.run_sum"][1],
        "sumset.enumerate_subsets.yielded": c["sumset.enumerate_subsets.yielded"],
        "sumset.enumerate_subsets.self_s": t["sumset.enumerate_subsets"][1],
        "sumset.pairwise_sumset.calls": t["sumset.pairwise_sumset"][0],
        "sumset.pairwise_sumset.self_s": t["sumset.pairwise_sumset"][1],
        "construct.verify_b_sequence.self_s": t["construct.verify_b_sequence"][1],
        "construct.subsets_checked": checked,
        "construct.subsets_per_s": checked / verify_s if verify_s else 0.0,
        "construct.root_extractions": roots,
        "construct.roots_per_subset": roots / checked if checked else 0.0,
        "construct.verify_family.self_s": t["construct.verify_family"][1],
        "construct.verify_escape.self_s": t["construct.verify_escape"][1],
        "construct.ap_reduce.self_s": t["construct.ap_reduce"][1],
        "construct.build_b_sequence.self_s": t["construct.build_b_sequence"][1],
        "construct.max_base_digits": c["construct.max_base_digits"],
    }
