"""Byte manifest of the CLI: a fixed corpus of calls and what each printed.

golden.json, next to this file, holds one entry per call of corpus(), in
order: the argv, the exit code, the sha256 of stdout and, for exit 2 only,
the stderr text; every other exit leaves stderr empty.  Paths into the
directory of input files are written "{dir}", and a digit d repeated n
times in a long number "{d*n}".  A call with a "save" name
writes its stdout to that file for the calls after it, as the
benchmark's setup calls store base sequences.

The corpus covers every subcommand, every exit code and every generator
form.  It holds the argv shapes of the benchmark's three plans (sweep,
window, cli-short) at small sizes, with set files from one seeded
generator, and the inputs that must end in a usage error; its last calls
write arrays and CSV rows across the boundaries of the CLI's report
slices.  test_golden.py replays the manifest in process through cli.main.
After a change that alters output bytes on purpose, regenerate it with

    PYTHONPATH=src python tests/golden.py

which prints every entry added, removed or changed against the manifest
it replaces, one line each, for the list of changed entries in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

from banachsum.cli import SLICE_ITEMS, STEP_BUDGET, main
from banachsum.intset import DECIMAL_DIGIT_LIMIT, DEFAULT_DIGIT_BUDGET

MANIFEST = Path(__file__).with_name("golden.json")
SEED = "golden:1"
# argparse wraps its usage text to the terminal width
COLUMNS = "80"


def _run_text(runs: list[tuple[int, int]]) -> str:
    return "".join(f"elem {s}\n" if n == 1 else f"run {s} {n}\n" for s, n in runs)


def _climbing_runs(rng: random.Random, n_runs: int, tail: int) -> list[tuple[int, int]]:
    """Short runs with a few long ones, then one run of tail members."""
    runs, pos = [], 1
    for i in range(n_runs):
        pos += rng.randint(1, 30)
        n = rng.randint(1, 8) if rng.random() < 0.9 else rng.randint(50, 50 + i * i // 20)
        runs.append((pos, n))
        pos += n
    runs.append((pos + rng.randint(1, 30), tail))
    return runs


def _dense_runs(rng: random.Random, base: int, length: int, d: int) -> list[tuple[int, int]]:
    """About length/5 runs over the window, none of d members."""
    runs, pos = [], max(base, 1) + rng.randint(0, 3)
    while pos < base + length:
        n = rng.randint(1, d - 1)
        runs.append((pos, n))
        pos += n + rng.randint(1, 9 - d)
    return runs


def _with_holes(holes: list[int], tail: int) -> list[tuple[int, int]]:
    """Every positive integer below tail except the holes."""
    runs, pos = [], 1
    for h in sorted(holes):
        if h > pos:
            runs.append((pos, h - pos))
        pos = h + 1
    runs.append((pos, tail - pos))
    return runs


def _repeat(digit: int, n: int) -> str:
    """The digit n times, as the manifest writes it and replay expands it."""
    return f"{{{digit}*{n}}}"


def _expand(arg: str, work: Path) -> str:
    """An argument as the call passes it, with "{dir}" and "{d*n}" expanded."""
    arg = arg.replace("{dir}", str(work))
    return re.sub(r"\{(\d)\*(\d+)\}", lambda m: m[1] * int(m[2]), arg)


def _near(rng: random.Random, starts: list[int], n: int) -> int:
    """A window base that puts one of the starts inside a window of n."""
    return max(rng.choice(starts) - rng.randrange(n // 2), 0)


def corpus() -> tuple[dict[str, bytes], list[tuple[list[str], str | None]]]:
    """The input files by name and the calls, (argv, save name or None)."""
    rng = random.Random(SEED)
    d = "{dir}"
    base_a, base_b = rng.randrange(1 << 20), rng.randrange(1 << 20)
    bseq = {"ells": [1], "bs": ["1"], "certificates": [{"start": "1", "len": 1}]}
    files = {
        "runs.txt": _run_text(_climbing_runs(rng, 200, 10**6)),
        "holes.txt": _run_text(_with_holes(rng.sample(range(42, 56), 3), 10**6)),
        "small.txt": _run_text(_climbing_runs(rng, 40, 10**6)),
        "dense_a.txt": _run_text(_dense_runs(rng, base_a, 8192, 4)),
        "dense_b.txt": _run_text(_dense_runs(rng, base_b, 2048, 3)),
        "dense_small.txt": _run_text(_dense_runs(rng, 1, 256, 3)),
        "latin1.txt": b"elem \xff\n",
        "not_json.json": "not json",
        "bad_payload.json": json.dumps({**bseq, "bs": [True]}),
        "huge.json": json.dumps({**bseq, "bs": ["1" * 100_001]}),
        "over_limit.json": json.dumps({**bseq, "bs": ["1" * (DECIMAL_DIGIT_LIMIT + 1)]}),
        "many_steps.json": json.dumps({**bseq, "bs": ["1"] * (STEP_BUDGET + 1)}),
        "latin1.json": b'{"\xff": 1}',
        "huge_elem.txt": f"elem 1{'0' * 200_000}\n",
    }
    files = {k: v.encode() if isinstance(v, str) else v for k, v in files.items()}
    calls: list[tuple[list[str], str | None]] = []

    def call(*argv: str, save: str | None = None) -> None:
        calls.append((list(argv), save))

    full, poly2, poly3, pow2 = "gen full", "gen poly_runs 2", "gen poly_runs 3", "gen pow_runs 2"
    m = rng.randint(2, 9)
    cong = f"gen congruence {m} {rng.randrange(m)}"

    # sweep: stored sequences, then verify, family and escape on them
    call("construct-b", "--set", poly2, "--ells", "1", "--k", "6", save="seq_poly2.json")
    call("construct-b", "--set", full, "--ells", "j", "--k", "8", save="seq_full.json")
    call("construct-b", "--input", f"{d}/runs.txt", "--ells", "j", "--k", "7",
         save="seq_runs.json")
    call("verify", "--set", poly2, "--bseq", f"{d}/seq_poly2.json", "--k-limit", "5")
    call("verify", "--set", poly2, "--bseq", f"{d}/seq_poly2.json")
    call("verify", "--set", full, "--bseq", f"{d}/seq_full.json")
    call("verify", "--input", f"{d}/runs.txt", "--bseq", f"{d}/seq_runs.json")
    call("verify", "--input", f"{d}/holes.txt", "--bseq", f"{d}/seq_full.json",
         "--k-limit", "6")
    call("family", "--set", full, "--ells", "j", "--k", "6", "--k-sets", "3",
         "--scheme", "residue", "--brute-span", "1024")
    call("escape", "--t", str(rng.randrange(4**9 - 9, 4**10 - 10)), "--i-max", "12")
    call("construct-b", "--set", poly2, "--ells", "1", "--k", "14",
         save="seq_poly2_k14.json")
    call("verify", "--set", poly2, "--bseq", f"{d}/seq_poly2_k14.json")

    # window: profiles, run bounds and reductions on wider windows
    pow_starts = [2**i for i in range(11, 20)]
    poly2_starts = [i**2 for i in range(46, 1024)]
    poly3_starts = [i**3 for i in range(13, 102)]
    call("profile", "--set", pow2, "--window", f"{_near(rng, pow_starts, 2048)}:2048")
    call("profile", "--set", poly2, "--window", f"{_near(rng, poly2_starts, 2048)}:2048",
         "--format", "csv")
    poly3_base = _near(rng, poly3_starts, 2048)
    call("profile", "--set", poly3, "--window", f"{poly3_base}:2048")
    call("profile", "--input", f"{d}/dense_a.txt", "--window", f"{base_a}:8192")
    call("runs", "--input", f"{d}/dense_a.txt", "--window", f"{base_a}:8192", "--d", "4")
    # no run of PolyRuns(3) below 2**20 is longer than 101
    call("runs", "--set", poly3, "--window", f"{poly3_base}:2048", "--d", "102")
    cong_base = rng.randrange(1 << 20)
    call("profile", "--set", cong, "--window", f"{cong_base}:1024")
    call("ap-reduce", "--set", cong, "--window", f"{cong_base}:1024", "--m0", "10")
    call("ap-reduce", "--input", f"{d}/dense_b.txt", "--window", f"{base_b}:2048",
         "--m0", "10")

    # cli-short: small calls over every subcommand and set form
    n = 256
    sets = [("--set", full, [1]), ("--set", poly2, [i**2 for i in range(2, 64)]),
            ("--set", poly3, poly3_starts[:4]), ("--set", pow2, [2**i for i in range(1, 12)]),
            ("--set", cong, [1]), ("--input", f"{d}/small.txt", [1]),
            ("--input", f"{d}/dense_small.txt", [1])]
    for flag, text, starts in sets:
        base = _near(rng, starts, n)
        call("gen", flag, text)
        call("profile", flag, text, "--window", f"{base}:{n // 4}", "--format", "csv")
        call("profile", flag, text, "--window", f"{base}:{n}")
        call("runs", flag, text, "--window", f"{base}:{n}", "--d", str(n + 1))
        call("ap-reduce", flag, text, "--window", f"{base}:{n // 2}", "--m0", "10")
    for name, flag, text, spec in (("full", "--set", full, "j"), ("poly2", "--set", poly2, "1"),
                                   ("small", "--input", f"{d}/small.txt", "j")):
        call("construct-b", flag, text, "--ells", spec, "--k", "4", save=f"seq_{name}4.json")
        call("verify", flag, text, "--bseq", f"{d}/seq_{name}4.json")
    call("construct-b", "--set", pow2, "--ells", "1", "--k", "3")
    call("family", "--set", full, "--ells", "j", "--k", "6", "--k-sets", "2",
         "--scheme", "blocks", "--brute-span", "512")
    call("family", "--set", poly2, "--ells", "j", "--k", "6", "--k-sets", "3",
         "--scheme", "residue", "--brute-span", "512")
    call("escape", "--t", str(rng.randrange(4**5 - 5, 4**6 - 6)), "--i-max", "20")

    # each generator form and the set grammar's usage errors
    for text in (full, "gen congruence 7 3", "gen congruence 1 0", "gen pow_runs 4",
                 "gen poly_runs 3", "elem 9;run 4 3;run 7 2", "", "# note;;run 3 1 # c",
                 "gen full 3", "gen pow_runs", "gen poly_runs 2 3", "gen congruence 5",
                 "gen congruence 5 7", "gen congruence 0 0", "gen pow_runs 1",
                 "gen poly_runs 1", "gen pow_runs x", "gen cubes 3", "gen",
                 "gen full;elem 3", "elem 3;gen full", "run 4 3;run 5 1", "run 0 2",
                 "run 4", "elem -1", "bogus 1"):
        call("gen", "--set", text)
    call("gen", "--input", f"{d}/latin1.txt")
    call("gen", "--input", "/no/such/file")
    call("gen", "--input", d)
    call("profile", "--set", "gen congruence 2 1", "--window", "1:2049")
    call("profile", "--set", full, "--window", "0:64", "--format", "xml")
    call("profile", "--set", full, "--window", "nope")
    call("profile", "--set", full, "--window", "0:300000000")
    call("runs", "--set", pow2, "--window", "0:100", "--min-len", "3",
         "--lower-bound", "5", "--d", "7")
    call("runs", "--set", "gen congruence 2 1", "--window", "0:16", "--min-len", "2")
    call("runs", "--set", "run 1 3", "--window", "0:16", "--min-len", "5")
    call("runs", "--set", pow2, "--window", "0:8", "--min-len", "400000")
    call("runs", "--set", full, "--window", "0:16", "--min-len", "0")
    call("runs", "--set", full, "--window", "0:16", "--d", "1")
    call("runs", "--set", full, "--window", "0:16", "--d", "3")
    call("construct-b", "--set", "gen congruence 3 1", "--k", "2")
    call("construct-b", "--set", "gen pow_runs 4", "--ells", "j", "--k", "6")
    for ells in ("abc", "1,x", "", "1,,2", "1,2", "0"):
        call("construct-b", "--set", full, "--ells", ells, "--k", "3")
    call("construct-b", "--set", full, "--k", "0")
    call("construct-b", "--set", full, "--ells", "1", "--k", "65537")
    call("verify", "--set", full, "--bseq", f"{d}/seq_full.json", "--k-limit", "-1")
    for name in ("not_json.json", "bad_payload.json", "huge.json", "over_limit.json",
                 "many_steps.json", "latin1.json"):
        call("verify", "--set", full, "--bseq", f"{d}/{name}")
    call("family", "--set", full, "--k", "30", "--k-sets", "25")
    call("family", "--set", full, "--k", "4", "--k-sets", "0")
    call("family", "--set", full, "--brute-span", "-1")
    call("family", "--set", full, "--brute-span", "2000000")
    call("family", "--set", full, "--scheme", "zigzag")
    call("ap-reduce", "--set", full, "--window", "0:64", "--m0", "0")
    call("ap-reduce", "--set", poly2, "--window", "0:256", "--m0", "100000")
    call("ap-reduce", "--set", "run 100 2", "--window", "0:50")
    call("escape", "--t", "-1", "--i-max", "5")
    call("escape", "--t", "5", "--i-max", "1")
    call("escape", "--t", "5", "--i-max", "5000")
    call()
    call("frobnicate")

    # reports whose arrays and CSV rows end just before, on and just after
    # a slice boundary
    S = SLICE_ITEMS
    for n in (S - 1, S, S + 1):
        call("profile", "--set", "gen congruence 3 1", "--window", f"7:{n}")
    call("profile", "--set", poly2, "--window", f"1000000:{2 * S + 5}", "--format", "csv")
    call("runs", "--set", "gen congruence 2 1", "--window", f"0:{2 * S}", "--d", "2")
    call("runs", "--set", "gen congruence 2 1", "--window", f"0:{2 * S + 2}", "--d", "2")

    # sweeps against congruence targets, one failing and one passing
    call("verify", "--set", "gen congruence 3 1", "--bseq", f"{d}/seq_full.json")
    call("verify", "--set", "gen congruence 1 0", "--bseq", f"{d}/seq_full.json")

    # integers past Python's default limit of 4300 digits: an option takes
    # one, and set text past the digit budget is a budget error
    call("runs", "--set", poly2, "--window", "0:8", "--min-len", "2",
         "--lower-bound", "1" + "0" * 5000)
    call("gen", "--input", f"{d}/huge_elem.txt")
    # a run length is read at the digit budget, as a base is, so verify
    # reads every file construct-b writes at the default budget
    call("construct-b", "--set", full, "--ells", "6" + _repeat(0, DEFAULT_DIGIT_BUDGET - 1),
         "--k", "2", save="seq_long_ell.json")
    call("verify", "--set", full, "--bseq", f"{d}/seq_long_ell.json")
    call("construct-b", "--set", full, "--ells", "1," + _repeat(9, DECIMAL_DIGIT_LIMIT),
         "--k", "2")
    # a number over its digit limit is a budget error wherever it is read,
    # underscores or not, and names the option or line that held it
    over = "1" + _repeat(0, DECIMAL_DIGIT_LIMIT)
    call("construct-b", "--set", full, "--k", over)
    call("runs", "--set", full, "--window", f"{over}:8")
    call("construct-b", "--set", full, "--ells", over)
    call("gen", "--set", "elem 1_" + _repeat(0, DECIMAL_DIGIT_LIMIT))

    # a bad token of more than 200 characters is quoted cut after 200,
    # with its length: as an option, a window, a number in set text and a
    # directive
    long = f"1{'0' * 250}x"
    call("runs", "--set", full, "--window", "0:8", "--lower-bound", long)
    call("runs", "--set", full, "--window", f"{long}:8")
    call("gen", "--set", f"elem {long}")
    call("gen", "--set", f"x{long}")
    # and as a choice of --format or --scheme
    call("profile", "--set", full, "--format", long)
    call("family", "--set", full, "--scheme", long)
    return files, calls


def replay(work: Path):
    """Write the input files into work and run every call in order, giving
    (argv, save, code, stdout, stderr) with work written "{dir}".  The
    caller sets COLUMNS."""
    files, calls = corpus()
    for name, data in files.items():
        (work / name).write_bytes(data)
    for argv, save in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([_expand(a, work) for a in argv])
        if save is not None:
            (work / save).write_text(out.getvalue(), encoding="utf-8")
        yield argv, save, code, out.getvalue(), err.getvalue().replace(str(work), "{dir}")


def entry(argv, save, code, out: str, err: str) -> dict:
    e: dict = {"argv": argv}
    if save is not None:
        e["save"] = save
    e["exit"] = code
    e["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    if code == 2:
        e["stderr"] = err
    return e


def _keyed(entries: list[dict]) -> dict[tuple[str, int], dict]:
    """Entries by argv and occurrence, so a repeated call pairs with its own."""
    seen: Counter = Counter()
    keyed = {}
    for e in entries:
        argv = json.dumps(e["argv"])
        keyed[argv, seen[argv]] = e
        seen[argv] += 1
    return keyed


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """One line per entry removed, added or changed from old to new.  An
    entry whose argv changed is removed under the old argv and added under
    the new one."""
    before, after = _keyed(old), _keyed(new)
    lines = [f"removed: {key[0]}" for key in before if key not in after]
    for key, e in after.items():
        was = before.get(key)
        if was is None:
            lines.append(f"added: {key[0]}")
            continue
        fields = [f for f in ("save", "exit", "stdout_sha256", "stderr")
                  if was.get(f) != e.get(f)]
        if fields:
            lines.append(f"changed {', '.join(fields)}: {key[0]}")
    return lines


def write_manifest() -> None:
    os.environ["COLUMNS"] = COLUMNS
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        entries = [entry(*r) for r in replay(Path(tmp))]
    lines = ",\n".join(json.dumps(e) for e in entries)
    MANIFEST.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    for line in changes(old, entries):
        print(line)
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
