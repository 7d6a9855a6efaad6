"""Seeded operation lists for the three workloads.

A workload is a `Plan`: set files the benchmark writes, `setup` calls that
build the stored base sequences, the `ops` of one cycle, and `probes` for
declared known defects.  The seed picks window bases, residues, run-list
contents, escape shifts, the holes of the mismatched target and the order
of operations; sizes depend only on the scale, so every seed does the same
amount of work.

Why these workloads:

* sweep: `verify`, `family` and `escape` on stored sequences, where
  `construct`, `sumset` and symbolic `intset` do nearly all the work.
  PolyRuns targets spend it in root extraction; Full and run-list targets
  spend it in element-by-element membership, so a change to one route
  shows against the other.
* window: `profile` (JSON and CSV), `runs --d` and `ap-reduce` on windows of
  2**14 to 2**16, over sets with few runs beside run-dense files, so the
  O(N**2) profile, `materialize` and megabyte outputs dominate.
* cli-short: 78 small calls per cycle across all eight subcommands, so
  interpreter start and import dominate and the tail has samples.

The traced run of sweep and window adds their `touch` calls: one small
call into each module the workload does not reach, so that every
per-layer metric is measured on every workload.  They are not part of the
timed operations, where the prediction for those modules is "no move".
`check_subadditivity` and `fekete_qd_check` have no CLI path, so no
workload reaches them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    SetModel,
    check_ap_reduce,
    check_construct,
    check_escape,
    check_family,
    check_gen,
    check_profile_csv,
    check_profile_json,
    check_runs,
    check_verify,
)

WORKLOADS = ("sweep", "window", "cli-short")


@dataclass
class Op:
    """One CLI call: argv after `python -m banachsum`, expected exit, output check."""

    name: str
    argv: list[str]
    expect_exit: int
    check: Callable[[bytes], None]
    save_as: Path | None = None


@dataclass
class Plan:
    files: dict[Path, str]
    setup: list[Op]
    ops: list[Op]
    # small calls the traced run adds; see the module docstring
    touch: list[Op] = field(default_factory=list)
    # known defects: named chains of calls that should all exit 0, run
    # apart from the timed operations so that a fix shows
    probes: dict[str, list[Op]] = field(default_factory=dict)


def _set_args(model: SetModel, path: Path | None = None) -> list[str]:
    if path is not None:
        return ["--input", str(path)]
    return ["--set", model.text().strip().replace("\n", ";")]


def _ells(spec: str, k: int) -> list[int]:
    return list(range(1, k + 1)) if spec == "j" else [int(spec)] * k


def _construct(name, model, spec, k, out: Path | None = None, path=None) -> Op:
    argv = ["construct-b", *_set_args(model, path), "--ells", spec, "--k", str(k)]
    return Op(name, argv, 0, check_construct(model, _ells(spec, k)), save_as=out)


def _verify(name, model, seq_file: Path, k: int, status="Pass", path=None, k_limit=None):
    argv = ["verify", *_set_args(model, path), "--bseq", str(seq_file)]
    if k_limit is not None:
        argv += ["--k-limit", str(k_limit)]

    def check(out: bytes) -> None:
        seq = json.loads(seq_file.read_text())
        check_verify(seq, model, k_limit or len(seq["bs"]), status)(out)

    return Op(name, argv, 1 if status == "Fail" else 0, check)


def _profile(name, model, base, n, rng, fmt="json", path=None) -> Op:
    argv = ["profile", *_set_args(model, path), "--window", f"{base}:{n}"]
    samples = sorted(rng.sample(range(1, n + 1), 3))
    if fmt == "csv":
        return Op(name, argv + ["--format", "csv"], 0,
                  check_profile_csv(model, base, n, samples))
    return Op(name, argv, 0, check_profile_json(model, base, n, samples))


def _runs(name, model, base, n, d=None, path=None) -> Op:
    argv = ["runs", *_set_args(model, path), "--window", f"{base}:{n}"]
    if d is None:
        # the tightest d the window allows: one more than its longest run
        d = max(max((ln for _, ln in model.runs_in(base, n)), default=0) + 1, 2)
    return Op(name, argv + ["--d", str(d)], 0, check_runs(model, base, n, d))


def _ap(name, model, base, n, m0=10, path=None) -> Op:
    argv = ["ap-reduce", *_set_args(model, path), "--window", f"{base}:{n}",
            "--m0", str(m0)]
    return Op(name, argv, 0, check_ap_reduce(model, base, n, m0))


def _family(name, model, k, k_sets, scheme, brute_span) -> Op:
    argv = ["family", *_set_args(model), "--ells", "j", "--k", str(k),
            "--k-sets", str(k_sets), "--scheme", scheme,
            "--brute-span", str(brute_span)]
    return Op(name, argv, 0, check_family(k, k_sets, scheme))


def _escape(name, t, i_max) -> Op:
    return Op(name, ["escape", "--t", str(t), "--i-max", str(i_max)], 0,
              check_escape(t, i_max))


def _gen(name, model, path=None) -> Op:
    return Op(name, ["gen", *_set_args(model, path)], 0, check_gen(model))


def seeded_run_list(rng: random.Random, n_runs: int, tail: int) -> SetModel:
    """Short runs with a few long ones, then one run of `tail` members.

    The greedy construction climbs through the long runs before it settles in
    the tail, so the seed changes every base it picks.
    """
    runs, pos = [], 1
    for i in range(n_runs):
        pos += rng.randint(1, 30)
        n = rng.randint(1, 8) if rng.random() < 0.9 else rng.randint(50, 50 + i * i // 20)
        runs.append((pos, n))
        pos += n
    runs.append((pos + rng.randint(1, 30), tail))
    return SetModel("runs", runs)


def run_dense(rng: random.Random, base: int, length: int, d: int) -> SetModel:
    """About length/5 runs over the window, none of d members."""
    runs, pos = [], max(base, 1) + rng.randint(0, 3)
    gap_max = 9 - d
    while pos < base + length:
        n = rng.randint(1, d - 1)
        runs.append((pos, n))
        pos += n + rng.randint(1, gap_max)
    return SetModel("runs", runs)


def with_holes(holes: list[int], tail: int) -> SetModel:
    """Every positive integer up to `tail` except the holes."""
    runs, pos = [], 1
    for h in sorted(holes):
        if h > pos:
            runs.append((pos, h - pos))
        pos = h + 1
    runs.append((pos, tail - pos))
    return SetModel("runs", runs)


def member_base(rng: random.Random, model: SetModel, n: int, hi: int) -> int:
    """A window base below hi whose window of n positions holds members."""
    while True:
        base = rng.randrange(0, hi)
        if model.runs_in(base, n):
            return base


def escape_shift(rng: random.Random, i0: int) -> int:
    """A shift t whose threshold index i0(t) is the given one."""
    return rng.randrange(4 ** (i0 - 1) - (i0 - 1), 4 ** i0 - i0)


FULL = SetModel("full")
POLY2 = SetModel("poly", 2)
POLY3 = SetModel("poly", 3)
POW2 = SetModel("pow", 2)

# sizes per scale; "tiny" is for the harness tests
SWEEP = {
    "full": dict(poly_k=13, poly_k_low=12, full_k=16, runs_k=15, mismatch_k=14,
                 family_k=16, family_sets=8, family_span=65536, escape_i=400,
                 run_list=1500, touch_n=1024, holes=(480, 556)),
    "tiny": dict(poly_k=6, poly_k_low=5, full_k=8, runs_k=7, mismatch_k=6,
                 family_k=6, family_sets=3, family_span=1024, escape_i=12,
                 run_list=200, touch_n=64, holes=(42, 56)),
}
WINDOW = {
    "full": dict(big=65536, mid=32768, small=16384, touch_k=6),
    "tiny": dict(big=512, mid=256, small=128, touch_k=4),
}
CLI_SHORT = {
    "full": dict(n=1024, k=8, family_k=6, escape_i=20, copies=2),
    "tiny": dict(n=64, k=4, family_k=4, escape_i=12, copies=1),
}


def sweep(rng: random.Random, work: Path, scale: str) -> Plan:
    z = SWEEP[scale]
    target = seeded_run_list(rng, z["run_list"], 10 ** 9)
    # Holes near the top of the sums of the first mismatch_k Full bases:
    # the full subset reaches them, so the sweep fails, while few subsets
    # stop early, so the work hardly depends on where they fall.
    holes = with_holes(rng.sample(range(*z["holes"]), 3), 10 ** 6)
    files = {work / "target_runs.txt": target.text(),
             work / "target_holes.txt": holes.text()}
    seq_poly, seq_full, seq_runs = (work / f for f in
                                    ("seq_poly2.json", "seq_full.json", "seq_runs.json"))
    setup = [
        _construct("construct-poly2", POLY2, "1", z["poly_k"], seq_poly),
        _construct("construct-full", FULL, "j", z["full_k"], seq_full),
        _construct("construct-runs", target, "j", z["runs_k"], seq_runs,
                   path=work / "target_runs.txt"),
    ]
    base = rng.randrange(0, 1 << 16)
    cong = SetModel("congruence", m := rng.randint(2, 9), rng.randrange(m))
    ops = [
        _verify(f"verify-poly2-k{z['poly_k_low']}", POLY2, seq_poly, z["poly_k_low"],
                k_limit=z["poly_k_low"]),
        _verify(f"verify-poly2-k{z['poly_k']}", POLY2, seq_poly, z["poly_k"]),
        _verify(f"verify-full-k{z['full_k']}", FULL, seq_full, z["full_k"]),
        _verify(f"verify-runs-k{z['runs_k']}", target, seq_runs, z["runs_k"],
                path=work / "target_runs.txt"),
        _verify(f"verify-mismatch-k{z['mismatch_k']}", holes, seq_full, z["mismatch_k"],
                status="Fail", path=work / "target_holes.txt", k_limit=z["mismatch_k"]),
        _family(f"family-full-k{z['family_k']}", FULL, z["family_k"], z["family_sets"],
                "residue", z["family_span"]),
        _escape(f"escape-i{z['escape_i']}", escape_shift(rng, 10), z["escape_i"]),
    ]
    touch = [
        _profile("touch-profile", POLY2, base, z["touch_n"], rng),
        _profile("touch-profile-csv", cong, base, z["touch_n"], rng, fmt="csv"),
        _runs("touch-runs", cong, base, z["touch_n"]),
        _ap("touch-ap-reduce", cong, base, z["touch_n"]),
    ]
    # Known defect: bases of PolyRuns(2) at k=14 pass 4300 decimal digits,
    # Python's default int/str conversion limit, and construct-b exits 2.
    seq14 = work / "seq_poly2_k14.json"
    probe = [_construct("construct-poly2-k14", POLY2, "1", 14, seq14),
             _verify("verify-poly2-k14", POLY2, seq14, 14)]
    return Plan(files, setup, ops, touch, {"poly2-k14-roundtrip": probe})


def window(rng: random.Random, work: Path, scale: str) -> Plan:
    z = WINDOW[scale]
    big, mid, small = z["big"], z["mid"], z["small"]
    bases = [rng.randrange(0, 1 << 20) for _ in range(2)]
    bases += [member_base(rng, model, big, 1 << 20) for model in (POW2, POLY2, POLY3)]
    bases.append(rng.randrange(0, 1 << 20))
    dense_a = run_dense(rng, bases[0], big, 4)
    dense_b = run_dense(rng, bases[1], mid, 3)
    cong = SetModel("congruence", m := rng.randint(3, 9), rng.randrange(m))
    fa, fb = work / "dense_a.txt", work / "dense_b.txt"
    seq = work / "seq_poly2.json"
    files = {fa: dense_a.text(), fb: dense_b.text()}
    setup = [_construct("construct-poly2", POLY2, "1", z["touch_k"], seq)]
    # Six calls of about equal cost on 2**16 windows, whose cost is the
    # O(N**2) profile and does not depend on the seed, and three short ones.
    # The median and the tail both fall inside the six, so they follow the
    # density work, not process start-up or where a seed puts a boundary
    # between two kinds of call.
    ops = [
        _profile("profile-pow2", POW2, bases[2], big, rng),
        _profile("profile-poly2-csv", POLY2, bases[3], big, rng, fmt="csv"),
        _profile("profile-poly3", POLY3, bases[4], big, rng),
        _profile("profile-dense-a", dense_a, bases[0], big, rng, path=fa),
        _runs("runs-dense-a", dense_a, bases[0], big, d=4, path=fa),
        _runs("runs-poly3", POLY3, bases[4], big),
        _profile("profile-congruence", cong, bases[5], small, rng),
        _ap("ap-reduce-congruence", cong, bases[5], small),
        _ap("ap-reduce-dense-b", dense_b, bases[1], mid, path=fb),
    ]
    touch = [
        _verify("touch-verify", POLY2, seq, z["touch_k"]),
        _family("touch-family", FULL, z["touch_k"], 3, "residue", 256),
        _escape("touch-escape", escape_shift(rng, 4), 12),
    ]
    return Plan(files, setup, ops, touch)


def cli_short(rng: random.Random, work: Path, scale: str) -> Plan:
    z = CLI_SHORT[scale]
    n, k = z["n"], z["k"]
    small = [seeded_run_list(rng, 40, 10 ** 6), run_dense(rng, 1, n, 3)]
    files, setup, ops = {}, [], []
    for i, model in enumerate(small):
        files[work / f"small_{i}.txt"] = model.text()
    targets = [("full", FULL, "j", None), ("poly2", POLY2, "1", None),
               ("runs", small[0], "j", work / "small_0.txt")]
    for name, model, spec, path in targets:
        out = work / f"seq_{name}.json"
        setup.append(_construct(f"construct-{name}", model, spec, k, out, path=path))
    for c in range(z["copies"]):
        cong = SetModel("congruence", m := rng.randint(2, 9), rng.randrange(m))
        sets = [("full", FULL, None), ("poly2", POLY2, None), ("poly3", POLY3, None),
                ("pow2", POW2, None), ("cong", cong, None),
                ("runs", small[0], work / "small_0.txt"),
                ("dense", small[1], work / "small_1.txt")]
        for name, model, path in sets:
            base = member_base(rng, model, n // 4, 4096)
            tag = f"{name}-{c}"
            if c == 0:
                ops.append(_gen(f"gen-{tag}", model, path=path))
                ops.append(_profile(f"profile-csv-{tag}", model, base, n // 4, rng,
                                    fmt="csv", path=path))
            ops.append(_profile(f"profile-{tag}", model, base, n, rng, path=path))
            ops.append(_runs(f"runs-{tag}", model, base, n, path=path))
            ops.append(_ap(f"ap-reduce-{tag}", model, base, n // 2, path=path))
        for name, model, spec, path in targets:
            seq = work / f"seq_{name}.json"
            ops.append(_verify(f"verify-{name}-{c}", model, seq, k, path=path))
            ops.append(_construct(f"construct-{name}-{c}", model, spec, k, path=path))
        ops.append(_construct(f"construct-pow2-{c}", POW2, "1", 3))
        ops.append(_family(f"family-full-{c}", FULL, z["family_k"], 2 + c,
                           rng.choice(("residue", "blocks")), 512))
        ops.append(_family(f"family-poly2-{c}", POLY2, z["family_k"], 3,
                           rng.choice(("residue", "blocks")), 512))
        for i in range(2):
            ops.append(_escape(f"escape-{c}-{i}", escape_shift(rng, 6), z["escape_i"]))
    return Plan(files, setup, ops)


PLANS = {"sweep": sweep, "window": window, "cli-short": cli_short}


def build(workload: str, seed: int, work: Path, scale: str = "full") -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    return PLANS[workload](rng, work, scale)
