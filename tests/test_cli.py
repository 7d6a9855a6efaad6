"""Command exercises through the argument-list entry point.

Each test drives ``main`` directly with an argv list and inspects the JSON
on stdout plus the exit code; the tests near the end run the package in a
child process to pin down the bytes, the exit codes and the exit path of a
real call.
"""

import contextlib
import functools
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banachsum
from banachsum import cli, construct
from banachsum.cli import SLICE_ITEMS, STEP_BUDGET, WINDOW_BITS_BUDGET, main
from banachsum.construct import ESCAPE_I_MAX_BUDGET
from banachsum.intset import DECIMAL_DIGIT_LIMIT, DEFAULT_DIGIT_BUDGET, SUM_DIGITS
from oracles import from_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


SRC = str(Path(banachsum.__file__).resolve().parents[1])
# without PYTHONUNBUFFERED a child's stdout to a pipe is block-buffered, as
# in most calls, so output that an exit path fails to flush goes missing
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": SRC,
}


def run_process(*args):
    """A child interpreter on this package's sources, output as bytes."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=CHILD_ENV
    )


# ----------------------------------------------------------------- profile


def test_profile_json(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--set", "gen congruence 2 1", "--window", "0:16"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == {"base": 0, "length": 16}
    assert payload["f"] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]
    assert payload["density"] == {"num": 1, "den": 2, "argmin": 2}
    assert payload["generator_density"] == {"num": 1, "den": 2}


def test_profile_json_without_generator(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--set", "run 3 4", "--window", "0:12"
    )
    assert code == 0
    assert "generator_density" not in json.loads(out)


def test_profile_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile",
        "--set", "gen congruence 2 1",
        "--window", "0:16",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,fn_over_n"
    assert len(lines) == 17
    assert lines[1].startswith("1,1,")


# -------------------------------------------------------------------- runs


def test_runs_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "runs",
        "--set", "run 4 3;elem 9",
        "--window", "0:16",
        "--min-len", "2",
        "--d", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == [
        {"start": "4", "len": 3},
        {"start": "9", "len": 1},
    ]
    assert payload["longest_run"] == 3
    assert payload["next_run"] == {"start": "4", "len": 2}
    assert payload["run_bound"]["d"] == 4
    assert payload["run_bound"]["ok"] is True
    assert payload["run_bound"]["failures"] == []


def test_runs_search_can_come_back_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "runs",
        "--set", "gen congruence 2 1",
        "--window", "0:8",
        "--min-len", "2",
    )
    assert code == 0
    assert json.loads(out)["next_run"] is None


def test_runs_search_refuses_starts_over_the_digit_budget(capsys):
    argv = ["runs", "--set", "gen pow_runs 2", "--window", "0:8"]
    # the next run of 400000 starts at about 120412 digits
    code, out, err = run_cli(capsys, *argv, "--min-len", "400000")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"] == "BudgetExceeded"
    code, out, _ = run_cli(capsys, *argv, "--min-len", "20000")
    assert code == 0
    assert len(json.loads(out)["next_run"]["start"]) == 6021
    # next_run compares the estimate with its default digit limit,
    # DEFAULT_DIGIT_BUDGET + SUM_DIGITS = 100064 digits, and names it:
    # run i of pow_runs 10 starts at 10**i
    argv = ["runs", "--set", "gen pow_runs 10", "--window", "0:8"]
    code, out, _ = run_cli(capsys, *argv, "--min-len", "100030")
    assert code == 0
    assert len(json.loads(out)["next_run"]["start"]) == 100031
    code, out, err = run_cli(capsys, *argv, "--min-len", "100070")
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": "next run needs about 100071 digits, over the limit of 100064",
    }


def dense_runs(n_runs):
    """Runs of 1, 2 and 3 members between gaps of 1 and 2 cells, from 1 on."""
    runs, pos = [], 1
    for i in range(n_runs):
        runs.append((pos, i % 3 + 1))
        pos += i % 3 + 1 + i % 2 + 1
    return runs, pos


# more runs than the profile's staircase route takes (2**10)
DENSE_RUNS, DENSE_LEN = dense_runs(1500)
DENSE_ARGV = [
    "runs",
    "--set", ";".join(f"run {s} {n}" for s, n in DENSE_RUNS),
    "--window", f"0:{DENSE_LEN}",
    "--d", "4",
]
DENSE_OUT = json.dumps(
    {
        "window": {"base": 0, "length": DENSE_LEN},
        "runs": [{"start": str(s), "len": n} for s, n in DENSE_RUNS],
        "longest_run": 3,
        "run_bound": {"d": 4, "longest_run": 3, "ok": True, "failures": []},
    },
    separators=(",", ":"),
) + "\n"


def test_runs_bound_on_a_run_dense_window_builds_no_profile(capsys, monkeypatch):
    import banachsum.density as density

    def no_profile(w):
        raise AssertionError("f_profile called")

    monkeypatch.setattr(density, "f_profile", no_profile)
    assert run_cli(capsys, *DENSE_ARGV) == (0, DENSE_OUT, "")


def test_runs_bound_route_disagreement_is_an_internal_error(monkeypatch):
    # not a usage error with exit 2: the AssertionError leaves main
    import banachsum.density as density

    monkeypatch.setattr(density, "longest_run", lambda w: 0)
    with pytest.raises(AssertionError, match="0 by streak search but 3 from the run bounds"):
        main(DENSE_ARGV)


def test_runs_bound_scans_the_run_bounds_once(capsys, monkeypatch):
    # a window of a run list or a run generator keeps the runs _fill set,
    # so `runs` and `profile` read them and never scan the bitmap; a
    # congruence window, a comb of bits, is scanned once for the runs list
    # and check_run_bound together; nothing from parsing to a report
    # builds a Run
    import banachsum.intset as intset

    scans = []
    run_bounds = intset.ExplicitWindow.run_bounds

    def counting_bounds(self):
        scans.append(self._bounds is None)
        return run_bounds(self)

    def no_run(self, *args):
        raise AssertionError(f"Run{args} built")

    monkeypatch.setattr(intset.ExplicitWindow, "run_bounds", counting_bounds)
    monkeypatch.setattr(intset.Run, "__init__", no_run)
    assert run_cli(capsys, *DENSE_ARGV) == (0, DENSE_OUT, "")
    assert scans == [False, False]
    unscanned = [
        DENSE_PROFILE_ARGV,
        *(
            [command, "--set", f"gen {form}", "--window", "0:5000"]
            for form in ("poly_runs 2", "pow_runs 2")
            for command in ("runs", "profile")
        ),
    ]
    for argv in unscanned:
        scans.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert scans and not any(scans), argv
    scans.clear()
    argv = ["runs", "--set", "gen congruence 3 1", "--window", "1:64", "--d", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(out)["runs"]) == 22
    assert scans == [True, False]


DENSE_PROFILE_ARGV = ["profile", "--set", DENSE_ARGV[2], "--window", DENSE_ARGV[4]]


def seeded_runs(n_runs, seed=0):
    """Runs of 1 to 3 members between gaps of 1 or 2 cells, from 1 on,
    drawn by a seeded generator, so that they repeat with no period."""
    rng = random.Random(seed)
    runs, pos = [], 1
    for _ in range(n_runs):
        n = rng.randint(1, 3)
        runs.append((pos, n))
        pos += n + rng.randint(1, 2)
    return runs, pos


# more runs than the staircase takes when they do not repeat (2**10): the
# profile takes numpy's span loop
APERIODIC_RUNS, APERIODIC_LEN = seeded_runs(1100)
NUMPY_PROFILE_ARGV = [
    "profile",
    "--set", ";".join(f"run {s} {n}" for s, n in APERIODIC_RUNS),
    "--window", f"0:{APERIODIC_LEN}",
]


def test_numpy_profile_runs_with_one_openblas_thread(capsys, monkeypatch):
    import banachsum.density as density

    # in-process, main reads and changes no environment variable: the
    # dense profile takes the numpy route under the caller's setting
    seen = []
    spans = density._profile_from_spans

    def spy(starts, ends, tried):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return spans(starts, ends, tried)

    monkeypatch.setattr(density, "_profile_from_spans", spy)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    code, out, _ = run_cli(capsys, *NUMPY_PROFILE_ARGV)
    assert code == 0 and json.loads(out)["f"][:3] == [1, 2, 3]
    assert seen == [None] and dict(os.environ) == before
    assert run_cli(capsys, "profile", "--set", "run 0 1")[0] == 2
    assert dict(os.environ) == before
    # run(), the console entry point, owns the process: it pins one thread
    # before main, and a caller's own setting wins
    calls = []

    def fake_main():
        calls.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return 3

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli.os, "_exit", calls.append)
    cli.run()
    assert calls == ["1", 3]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    cli.run()
    assert calls == ["1", 3, "4", 3]


# ----------------------------------------------------- construct and verify


def test_construct_b_frozen_output(capsys):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "3"
    )
    assert code == 0
    assert json.loads(out) == {
        "ells": [1, 1, 1],
        "bs": ["1", "9", "169"],
        "certificates": [
            {"start": "1", "len": 1},
            {"start": "9", "len": 3},
            {"start": "169", "len": 13},
        ],
    }


def test_construct_b_no_run_available(capsys):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen congruence 3 1", "--ells", "2", "--k", "2"
    )
    assert code == 3
    assert json.loads(out)["error"] == "NoSuitableRun"


def test_verify_round_trip_and_corruption(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "3"
    )
    assert code == 0
    good = tmp_path / "seq.json"
    good.write_text(out, encoding="utf-8")

    code, out, _ = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(good)
    )
    assert code == 0
    assert json.loads(out) == {"status": "Pass", "checked": 7}

    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["bs"][1] = "8"
    payload["certificates"][1] = {"start": "8", "len": 3}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")

    code, out, _ = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(bad)
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["status"] == "Fail"
    assert verdict["witness"] == "8"
    assert verdict["witness_subset"] == [2]


def test_verify_decides_a_valid_sequence_past_the_subset_budget(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "30"
    )
    assert code == 0
    path = tmp_path / "seq.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert code == 0
    assert json.loads(out) == {"status": "Pass", "checked": 2**30 - 1}


def test_verify_refuses_a_failing_sequence_past_the_subset_budget(capsys, tmp_path):
    # odd bases 1, 3, 5, ...: the second run, [3, 3], already leaves
    # PolyRuns(2), and the search finds it without enumerating 2**30 - 1
    # subsets, so k past SUBSET_BUDGET_MAX is no refusal
    seq = from_entries((1,) * 30, tuple(range(1, 61, 2)))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq.to_payload()), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(path)
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "status": "Fail", "checked": 2**30 - 1, "witness": "3", "witness_subset": [2]}


@pytest.mark.parametrize("k, top, want", [
    (24, 10**11, {"witness": "104603532030", "witness_subset": [24, 22]}),
    (25, 10**11, {"witness": "104603532030", "witness_subset": [24, 22]}),
    (40, 10**22, {}),
])
def test_verify_decides_powers_of_three(capsys, tmp_path, monkeypatch, k, top, want):
    # bases 3**j with unit runs sum to the integers whose base-3 digits are
    # 0 and 1; the hull [9, 13] holds the hole 11 of the target, though no
    # subset sums to 11, and the least sum past top + 11 is 3**23 + 3**21.
    # The search decides each case in fewer than 2**7 nodes.
    monkeypatch.setattr(construct, "SUBSET_BUDGET_MAX", 7)
    seq = from_entries((1,) * k, tuple(3**j for j in range(k)))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq.to_payload()), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--set", f"run 1 10;run 12 {top}", "--bseq", str(path)
    )
    status = "Fail" if want else "Pass"
    assert (code, err) == (int(bool(want)), "")
    assert json.loads(out) == {"status": status, "checked": 2**k - 1, **want}


def test_verify_checks_brute_span_before_the_set(capsys, tmp_path):
    # the bitmap route works on [0, brute_span], as family's does; the
    # span is refused before the set, which is not even well formed here
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(from_entries((1,), (1,)).to_payload()), encoding="utf-8")
    common = ("verify", "--set", "bogus", "--bseq", str(path), "--brute-span")
    code, out, err = run_cli(capsys, *common, "-1")
    assert (code, out) == (2, "")
    assert "--brute-span" in err and ">= 0" in err
    code, out, err = run_cli(capsys, *common, "2000000")
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": f"window of 2000001 bits exceeds the budget of {WINDOW_BITS_BUDGET} bits",
    }


def test_verify_rejects_malformed_file(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    # the nested arrays overflow the JSON decoder's recursion
    for text in ("not json", "[" * 100_000 + "]" * 100_000):
        junk.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            capsys, "verify", "--set", "gen full", "--bseq", str(junk)
        )
        assert code == 2
        assert "error" in err


def test_verify_rejects_non_integer_numbers(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "2"
    )
    assert code == 0
    good = json.loads(out)
    path = tmp_path / "bad.json"
    for where, key, value in [
        ("certificates", "len", 1.5),
        ("ells", 0, True),
        ("bs", 1, 2.9),
        ("certificates", "start", 1.0),
    ]:
        payload = json.loads(out)
        if where == "certificates":
            payload[where][0][key] = value
        else:
            payload[where][key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, err = run_cli(
            capsys, "verify", "--set", "gen full", "--bseq", str(path)
        )
        assert (code, stdout) == (2, ""), (where, key, value)
        assert "must be an integer" in err
    # a long string is cut, and a list is named, not printed: its repr could
    # be as long as the file, or past the interpreter's int/str limit
    for value, shown in (("1" * 100_000, "… (100000 characters)\n"),
                         (["BIG"], "got a list\n")):
        payload = json.loads(out)
        payload["ells"][0] = value
        path.write_text(json.dumps(payload).replace('"BIG"', "7" * 5000), encoding="utf-8")
        code, stdout, err = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
        assert (code, stdout) == (2, "") and err.endswith(shown) and len(err) < 1024
    # the untouched payload still verifies
    path.write_text(json.dumps(good), encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert code == 0


@pytest.mark.parametrize("payload, shown", [
    # a string of digits was read as the bases 1, 3 and 5, and an object
    # as its one key
    ({"ells": [1, 1, 1], "bs": "135", "certificates": [
        {"start": "1", "len": 1}, {"start": "3", "len": 3}, {"start": "5", "len": 7}]},
     "'135'"),
    ({"ells": [1], "bs": {"7": 0}, "certificates": [{"start": "7", "len": 1}]}, "a dict"),
])
def test_verify_reads_arrays_only_as_arrays(capsys, tmp_path, payload, shown):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad base sequence payload: bs must be an array, got {shown}\n"


@pytest.mark.parametrize("key, value, shown", [
    *((key, value, shown) for key in ("ells", "bs", "certificates")
      for value, shown in ((7, "7"), (None, "None"), ("1", "'1'"), ({"1": 1}, "a dict"))),
    *(("certificates entry", value, shown)
      for value, shown in ((7, "7"), (None, "None"), ("1", "'1'"), ([1], "a list"))),
])
def test_verify_refuses_each_key_in_the_wrong_shape(capsys, tmp_path, key, value, shown):
    payload = from_entries((1,), (7,)).to_payload()
    if key == "certificates entry":
        payload["certificates"][0] = value
    else:
        payload[key] = value
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert (code, out) == (2, "")
    shape = "an object" if key == "certificates entry" else "an array"
    assert err == f"error: bad base sequence payload: {key} must be {shape}, got {shown}\n"


def test_bases_past_4300_digits_round_trip(capsys, tmp_path):
    # the largest base has 4637 digits, past Python's default int/str limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(
            capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "14"
        )
        assert (code, err) == (0, "")
        assert max(len(b) for b in json.loads(out)["bs"]) > 4300
        path = tmp_path / "seq.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(path),
            "--brute-span", "0",
        )
        assert code == 0
        assert json.loads(out) == {"status": "Pass", "checked": 2**14 - 1}
        # main never changes the limit
        assert sys.get_int_max_str_digits() == 4300
        # a budget past any int/str limit the interpreter accepts is still a budget
        code, _, _ = run_cli(
            capsys, "construct-b", "--set", "gen full", "--k", "2",
            "--digit-budget", str(10**12),
        )
        assert code == 0
    finally:
        sys.set_int_max_str_digits(saved)


def test_verify_refuses_numbers_over_the_digit_budget(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "2"
    )
    assert code == 0
    huge = "1" + "0" * DECIMAL_DIGIT_LIMIT
    path = tmp_path / "huge.json"
    for where, key in [("bs", 1), ("certificates", "start")]:
        for quote in ('"', ""):
            payload = json.loads(out)
            if where == "certificates":
                payload[where][1][key] = "HUGE"
            else:
                payload[where][key] = "HUGE"
            text = json.dumps(payload).replace('"HUGE"', quote + huge + quote)
            path.write_text(text, encoding="utf-8")
            code, stdout, _ = run_cli(
                capsys, "verify", "--set", "gen full", "--bseq", str(path)
            )
            assert code == 3, (where, quote)
            assert json.loads(stdout)["error"] == "BudgetExceeded"


def test_verify_reads_every_file_construct_b_writes_at_the_default_budget(capsys, tmp_path):
    # a run length may have as many digits as a base, so a certificate len,
    # a sum of both, has more digits than the budget: up to SUM_DIGITS more
    ell = "6" + "0" * (DEFAULT_DIGIT_BUDGET - 1)
    code, out, err = run_cli(capsys, "construct-b", "--set", "gen full", "--ells", ell, "--k", "2")
    assert (code, err) == (0, "")
    lens = [c["len"] for c in json.loads(out, parse_int=str)["certificates"]]
    assert lens == [ell, "12" + "0" * (DEFAULT_DIGIT_BUDGET - 2) + "1"]
    path = tmp_path / "seq.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "Pass", "checked": 3}


def test_run_lengths_are_read_at_the_digit_budget(capsys):
    argv = ["construct-b", "--set", "gen full", "--k", "2", "--ells"]
    for budget, ells, over in ((["--digit-budget", "5"], "12345", "1,123456"),
                               ([], "5" * DEFAULT_DIGIT_BUDGET, "1," + "9" * DECIMAL_DIGIT_LIMIT)):
        code, _, err = run_cli(capsys, *argv, ells, *budget)
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, *argv, over, *budget)
        assert (code, err) == (3, "")
        limit = int(budget[1]) if budget else DEFAULT_DIGIT_BUDGET
        assert json.loads(out) == {
            "error": "BudgetExceeded",
            "detail": f"--ells: a number of {len(over) - 2} digits exceeds the limit of {limit}",
        }


OVER_LIMIT = "1" + "0" * DECIMAL_DIGIT_LIMIT


@pytest.mark.parametrize("argv, where, detail", [
    (["construct-b", "--set", "gen full", "--k", OVER_LIMIT], "--k", DECIMAL_DIGIT_LIMIT),
    (["escape", "--t", "5", "--i-max", OVER_LIMIT], "--i-max", DECIMAL_DIGIT_LIMIT),
    (["runs", "--set", "gen full", "--window", f"{OVER_LIMIT}:8"], "--window",
     DECIMAL_DIGIT_LIMIT),
    (["runs", "--set", "gen full", "--window", f"0:{OVER_LIMIT}"], "--window",
     DECIMAL_DIGIT_LIMIT),
    (["construct-b", "--set", "gen full", "--ells", OVER_LIMIT], "--ells", DEFAULT_DIGIT_BUDGET),
    (["construct-b", "--set", "gen full", "--ells", f"1,{OVER_LIMIT},2"], "--ells",
     DEFAULT_DIGIT_BUDGET),
    # underscores are no digits, and do not turn the number into a usage error
    (["gen", "--set", f"elem 1_{OVER_LIMIT[1:]}"], "line 1", DECIMAL_DIGIT_LIMIT),
], ids=["option", "escape-option", "window-base", "window-length", "ells", "ells-list",
        "set-text"])
def test_a_number_over_its_digit_limit_exits_3_wherever_it_is_read(
    capsys, argv, where, detail
):
    # the detail names the option or the line that held the number
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": f"{where}: a number of {DECIMAL_DIGIT_LIMIT + 1} digits exceeds the limit "
                  f"of {detail}",
    }


def test_verify_checks_the_step_budget_before_the_sequence(capsys, tmp_path):
    # the steps of a --bseq file are its bases; with no certificates these
    # files hold no base sequence, so only the step budget refuses them first
    path = tmp_path / "seq.json"
    for k in (STEP_BUDGET, STEP_BUDGET + 1):
        path.write_text(json.dumps({"ells": [1] * k, "bs": ["1"] * k, "certificates": []}))
        code, out, err = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
        if k == STEP_BUDGET:
            assert (code, out) == (2, "") and "equal length" in err
        else:
            assert (code, err) == (3, "")
            assert json.loads(out) == {
                "error": "BudgetExceeded",
                "detail": f"{k} steps exceed the budget of {STEP_BUDGET} steps",
            }


def test_a_base_of_exactly_the_digit_budget_is_built(capsys):
    # decimal_digits may count one digit too many; the refusal and the
    # count it prints are exact on both sides of 10**DEFAULT_DIGIT_BUDGET
    nines, power = "9" * DEFAULT_DIGIT_BUDGET, "1" + "0" * DEFAULT_DIGIT_BUDGET
    argv = ["construct-b", "--ells", "1", "--k", "1", "--set"]
    code, out, err = run_cli(capsys, *argv, f"run {nines} 5")
    assert (code, err) == (0, "")
    assert json.loads(out)["bs"] == [nines]
    code, out, err = run_cli(capsys, *argv, f"run {power} 5")
    assert (code, err) == (3, "")
    assert json.loads(out)["detail"] == (
        f"step 1: base has {DEFAULT_DIGIT_BUDGET + 1} digits, over the budget of "
        f"{DEFAULT_DIGIT_BUDGET}"
    )


def test_options_take_integers_past_4300_digits(capsys):
    # options go through the decimal codec too, and no return, argparse's
    # usage exit included, has changed the caller's limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        bound = "1" + "0" * 5000  # (10**2500)**2, the start of a PolyRuns(2) run
        code, out, err = run_cli(
            capsys, "runs", "--set", "gen poly_runs 2", "--window", f"{bound}:8",
            "--min-len", "2", "--lower-bound", bound,
        )
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_int=str)
        assert payload["window"]["base"] == bound
        assert payload["next_run"] == {"start": bound, "len": "2"}
        assert sys.get_int_max_str_digits() == 4300
        code, _, err = run_cli(capsys, "runs", "--set", "gen full", "--window", "nope")
        assert code == 2 and "BASE:LENGTH" in err
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_set_text_numbers_over_the_digit_limit_are_budget_errors(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"elem 1\nelem -{'1' * 200_001}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "--input", str(path))
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": "line 2: a number of 200001 digits exceeds the limit of "
        f"{DEFAULT_DIGIT_BUDGET + SUM_DIGITS}",
    }
    # a token that is no decimal number stays a usage error
    path.write_text(f"elem 1{'0' * 200_000}x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "--input", str(path))
    assert (code, out) == (2, "") and "not an integer" in err


def test_set_text_digit_limit_follows_the_digit_budget(capsys):
    # max(--digit-budget, DEFAULT_DIGIT_BUDGET) + SUM_DIGITS digits, and
    # options take as many as at the default budget
    elem = "1" + "0" * 149_999
    code, out, err = run_cli(
        capsys, "construct-b", "--set", f"elem {elem}", "--k", "1", "--digit-budget", "200000"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["bs"] == [elem]
    for budget in ([], ["--digit-budget", "10"]):
        code, out, _ = run_cli(capsys, "construct-b", "--set", f"elem {elem}", "--k", "1", *budget)
        assert code == 3 and json.loads(out)["detail"].endswith(
            f"exceeds the limit of {DEFAULT_DIGIT_BUDGET + SUM_DIGITS}"
        )


@pytest.mark.parametrize("digits", ["0", "300000"])
def test_the_interpreter_digit_limit_changes_no_answer(tmp_path, digits):
    # the set-text limit is the CLI's own, whatever PYTHONINTMAXSTRDIGITS says
    path = tmp_path / "huge_elem.txt"
    path.write_text(f"elem 1{'0' * 200_000}\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "banachsum", "gen", "--input", str(path)],
        capture_output=True, env={**CHILD_ENV, "PYTHONINTMAXSTRDIGITS": digits},
    )
    assert (proc.returncode, proc.stderr) == (3, b"")
    assert json.loads(proc.stdout)["error"] == "BudgetExceeded"


LONG_TOKEN = f"1{'0' * 200_000}x"


def shown(token):
    """A token as a usage error quotes it: whole up to 200 characters, as
    CPython's int() cuts its own message, else cut with its length."""
    if len(token) <= 200:
        return repr(token)
    return f"{token[:200]!r}… ({len(token)} characters)"


def cut(digits):
    """An integer's decimal digits as a message quotes them: cut as shown
    cuts a token, with no quotes."""
    return f"{digits[:200]}… ({len(digits)} characters)"


LONG_INT = "1" + "0" * 99_999


@pytest.mark.parametrize("argv, message", [
    (["runs", "--set", "gen full", "--lower-bound", LONG_TOKEN],
     f"argument --lower-bound: invalid int value: {shown(LONG_TOKEN)}\n"),
    (["runs", "--set", "gen full", "--window", f"{LONG_TOKEN}:8"],
     f"argument --window: window must look like BASE:LENGTH, got {shown(LONG_TOKEN + ':8')} ("),
    (["gen", "--set", f"elem {LONG_TOKEN}"],
     f"error: line 1: not an integer: {shown(LONG_TOKEN)}\n"),
    (["gen", "--set", f"x{LONG_TOKEN}"],
     f"error: line 1: unknown directive {shown('x' + LONG_TOKEN)}\n"),
    # up to 200 characters a token keeps argparse's own wording for type=int
    (["construct-b", "--set", "gen full", "--k", "1" * 199 + "x"],
     f"argument --k: invalid int value: {'1' * 199 + 'x'!r}\n"),
    (["escape", "--i-max", "3", "--t", "1" * 200 + "x"],
     f"argument --t: invalid int value: {shown('1' * 200 + 'x')}\n"),
    # a choice, argparse's own wording up to 200 characters too
    (["profile", "--set", "gen full", "--format", LONG_TOKEN],
     f"argument --format: invalid choice: {shown(LONG_TOKEN)} (choose from 'json', 'csv')\n"),
    (["family", "--set", "gen full", "--scheme", "y" * 200],
     f"argument --scheme: invalid choice: {'y' * 200!r} (choose from 'residue', 'blocks')\n"),
    # an integer that parsed but is out of range, quoted by a value error
    (["gen", "--set", f"run -{LONG_INT} 2"],
     f"error: line 1: run start must be positive, got {cut('-' + LONG_INT)}\n"),
    (["gen", "--set", f"gen congruence {LONG_INT} {LONG_INT}"],
     f"error: line 1: residue must lie in [0, {cut('9' * 99_999)}], got {cut(LONG_INT)}\n"),
    (["family", "--set", "gen full", "--k", "8", "--k-sets", f"{LONG_INT}0"],
     f"error: component count must lie in [1, 8], got {cut(LONG_INT + '0')}\n"),
    (["escape", "--t", f"-{LONG_INT}0", "--i-max", "3"],
     f"error: shift must be >= 0, got {cut('-' + LONG_INT + '0')}\n"),
    (["escape", "--t", f"{LONG_INT}0", "--i-max", "10"],
     f"error: need i_max >= 166097 for shift {cut(LONG_INT + '0')}, got 10\n"),
    (["runs", "--set", "gen full", "--d", f"-{LONG_INT}"],
     f"error: run bound needs d >= 2, got {cut('-' + LONG_INT)}\n"),
])
def test_over_long_bad_tokens_are_cut_in_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    # the reason in parentheses after a window is int()'s, already cut
    assert message in err and len(err) < 1024


# ------------------------------------------------------------------ family


def test_family_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "family",
        "--set", "gen poly_runs 2",
        "--ells", "1",
        "--k", "4",
        "--k-sets", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["k_sets"] == 2
    assert payload["family"]["index_sets"] == [[1, 3], [2, 4]]
    assert payload["verification"]["status"] == "Pass"


def test_family_answers_many_picks_from_the_hulls(capsys, monkeypatch):
    # 8 components of 25 runs each make 26**8 - 1 picks, far over the pick
    # budget; the greedy sequence's hulls pass, so no pick is swept.  The
    # bitmap route folds the components in at most one pairwise_sumset
    # each, not one per selection: of 24 components of 8 or 9 runs, the
    # first 13 already sum to every integer of [14, 2048], where each later
    # component's least element lies, so those 11 are not summed
    calls = []
    sumset = construct.pairwise_sumset

    def counting(b, c, cap):
        calls.append(cap)
        return sumset(b, c, cap)

    monkeypatch.setattr(construct, "pairwise_sumset", counting)
    for k_sets, checked, sums in (8, 26**8 - 1, 8), (24, 10**8 * 9**16 - 1, 13):
        calls.clear()
        code, out, err = run_cli(
            capsys, "family", "--set", "gen full", "--ells", "1", "--k", "200",
            "--k-sets", str(k_sets),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["verification"] == {"status": "Pass", "checked": checked}
        assert len(calls) == sums


def test_family_takes_more_components_than_the_subset_budget(capsys):
    # the search's budget counts nodes, not components: 1000 components of
    # one unit run each pass on the certificate of the greedy sequence's
    # runs, and the fold sums each component at most once
    code, out, err = run_cli(
        capsys, "family", "--set", "gen full", "--ells", "1", "--k", "1000",
        "--k-sets", "1000",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"] == {"status": "Pass", "checked": 2**1000 - 1}


def test_family_checks_brute_span_before_any_work(capsys):
    # "run 1 5" holds no base sequence of k=8, so any build ends in
    # NoSuitableRun: the span is refused before the build starts
    common = ("family", "--set", "run 1 5", "--k", "8", "--brute-span")
    code, out, err = run_cli(capsys, *common, "-1")
    assert (code, out) == (2, "")
    assert "--brute-span" in err and ">= 0" in err
    # the bitmaps live on [0, brute_span], one cell more than the span
    for span in (WINDOW_BITS_BUDGET, 10**9):
        code, out, err = run_cli(capsys, *common, str(span))
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "error": "BudgetExceeded",
            "detail": f"window of {span + 1} bits exceeds the budget of "
                      f"{WINDOW_BITS_BUDGET} bits",
        }
    code, out, _ = run_cli(capsys, *common, str(WINDOW_BITS_BUDGET - 1))
    assert code == 3 and json.loads(out)["error"] == "NoSuitableRun"


def test_family_rejects_too_many_sets(capsys):
    code, _, err = run_cli(
        capsys, "family", "--set", "gen full", "--k", "2", "--k-sets", "5"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["construct-b", "family"])
def test_step_budget_is_checked_before_the_run_lengths(capsys, command):
    over = str(STEP_BUDGET + 1)
    for ells in ("1", "j", "1,2"):
        code, out, err = run_cli(
            capsys, command, "--set", "gen full", "--ells", ells, "--k", over
        )
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "error": "BudgetExceeded",
            "detail": f"{over} steps exceed the budget of {STEP_BUDGET} steps",
        }
    # at the budget a too-short list is still a usage error
    code, out, err = run_cli(
        capsys, command, "--set", "gen full", "--ells", "1,2", "--k", str(STEP_BUDGET)
    )
    assert (code, out) == (2, "")
    assert "ells list has 2 entries" in err


# --------------------------------------------------------- reduce and escape


def test_ap_reduce_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "ap-reduce",
        "--set", "gen congruence 7 3",
        "--window", "0:100",
        "--m0", "10",
    )
    assert code == 0
    assert json.loads(out) == {
        "m": 7,
        "r": 3,
        "evidence_len": 14,
        "derived_set": "run 1 13\n",
    }


def test_escape_command(capsys):
    code, out, _ = run_cli(capsys, "escape", "--t", "5", "--i-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["i0"] == 2
    assert payload["checked"] == 7
    assert payload["all_escaped"] is True
    assert len(payload["checks"]) == 7
    assert payload["checks"][0] == {"i": 2, "below_double": True, "doubles_outside": True}


def test_escape_refuses_rungs_over_the_budget(capsys):
    code, out, err = run_cli(
        capsys, "escape", "--t", "5", "--i-max", str(ESCAPE_I_MAX_BUDGET + 1)
    )
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": f"rungs up to i_max = {ESCAPE_I_MAX_BUDGET + 1} exceed the "
                  f"budget of {ESCAPE_I_MAX_BUDGET}",
    }


# --------------------------------------------------------------------- gen


def test_gen_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "gen", "--set", "elem 9;run 4 3")
    assert code == 0
    assert out == "run 4 3\nelem 9\n"


def test_gen_round_trips_generators(capsys):
    for text in ("gen pow_runs 4", "gen poly_runs 3", "gen congruence 5 2", "gen full"):
        code, out, _ = run_cli(capsys, "gen", "--set", text)
        assert code == 0
        assert out == text + "\n"


# ------------------------------------------------------------------- errors


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys)[0] == 2                       # no subcommand
    assert run_cli(capsys, "frobnicate")[0] == 2         # unknown subcommand
    assert run_cli(capsys, "profile")[0] == 2            # no set given
    assert run_cli(                                      # both set sources
        capsys, "profile", "--set", "gen full", "--input", "x"
    )[0] == 2
    assert run_cli(                                      # malformed window
        capsys, "profile", "--set", "gen full", "--window", "nope"
    )[0] == 2
    assert run_cli(capsys, "profile", "--input", "/no/such/file")[0] == 2


def test_huge_window_is_a_budget_error(capsys, monkeypatch, tmp_path):
    # the budget is checked before the set is read or parsed
    import banachsum.cli as cli

    def no_parse(text):
        raise AssertionError("set parsed before the window budget check")

    monkeypatch.setattr(cli, "parse_set", no_parse)
    code, out, err = run_cli(
        capsys, "profile", "--set", "gen full", "--window", "0:300000000"
    )
    assert code == 3
    assert json.loads(out)["error"] == "BudgetExceeded"
    assert err == ""
    path = tmp_path / "full.txt"
    path.write_text("gen full\n", encoding="utf-8")
    over = f"1:{WINDOW_BITS_BUDGET + 1}"
    for cmd in ("profile", "runs", "ap-reduce"):
        for source in (("--set", "gen full"), ("--input", str(path))):
            code, out, err = run_cli(capsys, cmd, *source, "--window", over)
            assert (code, err) == (3, "")
            assert json.loads(out)["error"] == "BudgetExceeded"


def test_a_bare_value_error_is_an_internal_error(monkeypatch):
    # parse and precondition errors exit 2; any other ValueError is a bug
    import banachsum.cli as cli

    def broken(args):
        raise ValueError("internal fault")

    monkeypatch.setitem(cli._HANDLERS, "gen", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["gen", "--set", "gen full"])


def test_parse_errors_carry_line_numbers(capsys):
    code, _, err = run_cli(capsys, "profile", "--set", "run 4 3;run 0 2")
    assert code == 2
    assert "line 2" in err


def test_overlap_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--set", "run 4 3;run 5 1")
    assert code == 2
    assert "error" in err


def test_short_ells_list_is_rejected(capsys):
    code, _, err = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1,2", "--k", "3"
    )
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------------ memory


def traced_peak(*argv):
    """tracemalloc's peak, in bytes, over one main call writing to os.devnull."""
    with open(os.devnull, "w", encoding="utf-8") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_profile_csv_is_written_without_the_whole_text():
    # half of the 9.7 MB traced with one string per row and the CSV joined whole
    peak = traced_peak("profile", "--set", "gen poly_runs 2", "--window", "700000:65536",
                       "--format", "csv")
    assert peak < 9_700_000 / 2


def test_runs_rows_are_built_a_slice_at_a_time():
    # 32 768 runs: half of the 14.7 MB traced with one dict per run, a
    # lengths list and the report joined whole
    peak = traced_peak("runs", "--set", "gen congruence 2 1", "--window", "0:65536")
    assert peak < 14_700_000 / 2


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("n", [0, 1, SLICE_ITEMS - 1, SLICE_ITEMS, SLICE_ITEMS + 1,
                               2 * SLICE_ITEMS + 3])
def test_emit_writes_the_bytes_of_one_json_dumps(capsys, n):
    rows = [{"start": str(i), "len": i % 5} for i in range(n)]
    payload = {"a": list(range(n)), "b": {"c": [1, 2]}, "t": tuple(range(n)),
               "s": "x\u00e9", "n": None, "rows": rows}
    cli._emit({**payload, "rows": iter(rows)})
    assert capsys.readouterr().out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_emit_writes_integers_past_the_int_str_limit(capsys):
    big = 7**6000  # 5 071 digits
    payload = {"window": {"base": big, "length": 8}, "ells": [1, -big, True],
               "checked": big, "rows": [{"start": "1", "len": big}] * 3, "ok": None}
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        cli._emit({**payload, "rows": iter(payload["rows"])})
        sys.set_int_max_str_digits(0)
        want = json.dumps(payload, separators=(",", ":")) + "\n"
    finally:
        sys.set_int_max_str_digits(saved)
    assert capsys.readouterr().out == want


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["profile", "--set", "gen poly_runs 2", "--window", "0:512"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second

    proc = run_process("-m", "banachsum", *argv)
    assert (proc.returncode, proc.stdout) == (0, first.encode())


FAILING_SEQ = from_entries((1,) * 3, (1, 3, 5))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--set", "gen full"],
        # the hull of the second run leaves PolyRuns(2): a Fail verdict
        ["verify", "--set", "gen poly_runs 2", "--bseq", "SEQ"],
        ["profile", "--set", "run 4 3;run 0 2"],
        ["profile", "--set", "gen full", "--window", "0:300000000"],
        # an option that argparse reads raises the budget error
        ["construct-b", "--set", "gen full", "--k", OVER_LIMIT],
        # about 1.4 MB, more than a pipe buffer holds
        ["profile", "--set", "gen poly_runs 2", "--window", "0:65536",
         "--format", "csv"],
    ],
    ids=["exit0", "exit1", "exit2", "exit3", "exit3-option", "pipe-overflow"],
)
def test_process_matches_main(capsys, tmp_path, argv):
    # python -m banachsum leaves through cli.run: same code, same bytes
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(FAILING_SEQ.to_payload()), encoding="utf-8")
    argv = [str(seq) if arg == "SEQ" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    proc = run_process("-m", "banachsum", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode()
    )
    if argv[-1] == "csv":
        assert len(proc.stdout) > 1 << 20


def test_run_lets_an_escaping_exception_end_the_process():
    script = (
        "import banachsum.cli as cli\n"
        "def boom():\n"
        "    raise AssertionError('internal fault')\n"
        "cli.main = boom\n"
        "cli.run()\n"
    )
    proc = run_process("-c", script)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.startswith(b"Traceback (most recent call last):")
    assert proc.stderr.endswith(b"AssertionError: internal fault\n")


def test_run_flushes_unterminated_writes_on_both_streams():
    script = (
        "import sys\n"
        "import banachsum.cli as cli\n"
        "def partial():\n"
        "    sys.stdout.write('out')\n"
        "    sys.stderr.write('err')\n"
        "    return 3\n"
        "cli.main = partial\n"
        "cli.run()\n"
    )
    proc = run_process("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"out", b"err")


def test_run_reports_a_failing_flush_like_sys_exit():
    # sys.exit hands the stream to the interpreter's own final flush
    script = (
        "import sys\n"
        "import banachsum.cli as cli\n"
        "class FailingStdout:\n"
        "    def __init__(self, stream):\n"
        "        self.stream = stream\n"
        "    def write(self, text):\n"
        "        return self.stream.write(text)\n"
        "    def flush(self):\n"
        "        raise OSError(28, 'No space left on device')\n"
        "    def __repr__(self):\n"
        "        return '<failing stdout>'\n"
        "sys.stdout = FailingStdout(sys.stdout)\n"
        "exit_by = sys.argv.pop(1)\n"
        "if exit_by == 'run':\n"
        "    cli.run()\n"
        "sys.exit(cli.main())\n"
    )
    argv = ["gen", "--set", "gen full"]
    by_run = run_process("-c", script, "run", *argv)
    by_exit = run_process("-c", script, "sys.exit", *argv)
    assert (by_run.returncode, by_run.stdout, by_run.stderr) == (
        by_exit.returncode, by_exit.stdout, by_exit.stderr
    )
    assert by_run.returncode == 120
    assert b"No space left on device" in by_run.stderr


def test_run_skips_atexit_handlers():
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit handler ran\\n'))\n"
        "runpy.run_module('banachsum', run_name='__main__')\n"
    )
    proc = run_process("-c", script, "gen", "--set", "gen full")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"gen full\n", b"")


def test_console_script_calls_run():
    import banachsum.cli as cli

    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        match = re.search(r'^\[project\.scripts\]\s*banachsum = "(.+)"$', text, re.M)
        entry = match.group(1)
    else:
        entry = tomllib.loads(text)["project"]["scripts"]["banachsum"]
    module, _, attr = entry.partition(":")
    assert functools.reduce(getattr, attr.split("."), importlib.import_module(module)) \
        is cli.run


# Calls in order: none prints a JSON profile before the last three, the
# first calls that build a Fraction.
NUMPY_FREE_CALLS = [
    ["gen", "--set", "gen poly_runs 2"],
    ["construct-b", "--set", "gen poly_runs 2", "--k", "4"],
    ["escape", "--t", "3", "--i-max", "6"],
    ["ap-reduce", "--set", "gen congruence 3 1", "--window", "0:256"],
    ["profile", "--set", "gen poly_runs 2", "--window", "0:4096", "--format", "csv"],
    ["runs", "--set", "gen congruence 3 1", "--window", "1:1024", "--d", "2"],
    ["profile", "--set", "gen poly_runs 2", "--window", "0:4096"],
    # the odd numbers below 2048: 1024 runs, the most the staircase takes
    ["profile", "--set", "gen congruence 2 1", "--window", "1:2047"],
    # 1025 runs, one over the cut, but of period 1: the staircase starts
    # pairs at two runs only
    ["profile", "--set", "gen congruence 2 1", "--window", "1:2049"],
]
# 1100 runs with no period: the span loop loads numpy
NUMPY_CALL = NUMPY_PROFILE_ARGV


def test_cli_import_leaves_numpy_unloaded():
    # profiles of windows with few runs take the pure-Python route too; no
    # call without numpy loads dataclasses or inspect, and only a JSON
    # profile loads fractions
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded(code):\n"
        "    watched = ('dataclasses', 'fractions', 'inspect', 'numpy')\n"
        "    print(code, *[m for m in watched if m in sys.modules])\n"
        "import banachsum.cli\n"
        "loaded('import')\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = banachsum.cli.main(argv)\n"
        "    loaded(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(NUMPY_FREE_CALLS + [NUMPY_CALL])],
        capture_output=True,
        text=True,
        check=True,
        env=CHILD_ENV,
    )
    *lines, last = proc.stdout.splitlines()
    assert lines == ["import"] + ["0"] * (len(NUMPY_FREE_CALLS) - 3) + ["0 fractions"] * 3
    # numpy itself may load inspect
    assert last.split()[:2] == ["0", "fractions"] and "numpy" in last.split()


def test_runs_bound_leaves_numpy_unloaded():
    script = (
        "import contextlib, io, json, sys\n"
        "import banachsum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = banachsum.cli.main(json.loads(sys.argv[1]))\n"
        "print(code, out.getvalue() == sys.argv[2], 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(DENSE_ARGV), DENSE_OUT],
        capture_output=True,
        text=True,
        check=True,
        env=CHILD_ENV,
    )
    assert proc.stdout == "0 True False\n"


# --------------------------------------------------------------------- fuzz

FUZZ_SETS = [
    "gen pow_runs 2", "gen pow_runs 4", "gen poly_runs 2", "gen poly_runs 3",
    "gen full", "gen congruence 3 1", "gen congruence 1 0", "run 1 20;run 30 5",
    "elem 5;elem 7", "", "gen pow_runs 1", "gen congruence 2", "run 1 0", "elem 0",
    "run 1 5;run 3 2", "gen full;elem 3", "run x 1", "bogus",
]
_small = st.integers(-2, 12).map(str)
# every option of every subcommand, with bounded values and some junk
FUZZ_OPTIONS = {
    "--set": st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(FUZZ_SETS) if i
        else st.text("runelmgpowfc_ 0123456789-;#", max_size=20)
    ),
    "--input": st.sampled_from(["/no/such/file", "."]),
    "--window": st.builds("{}:{}".format, st.integers(-1, 40), st.integers(-1, 300))
    | st.sampled_from(["x", "1:2:3", ":"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--min-len": _small,
    "--lower-bound": st.integers(-5, 100).map(str),
    "--d": st.integers(-1, 6).map(str),
    "--ells": st.sampled_from(["j", "1", "0", "2", "1,2", "1,2,3,4,5,6", ",", "a", " "]),
    "--k": st.integers(-1, 6).map(str),
    "--k-sets": st.integers(-1, 4).map(str),
    "--scheme": st.sampled_from(["residue", "blocks", "zigzag"]),
    "--brute-span": st.integers(-2, 64).map(str),
    "--digit-budget": st.integers(-1, 200).map(str),
    "--bseq": st.just("BSEQ"),
    "--k-limit": _small,
    "--m0": _small,
    "--t": st.integers(-1, 50).map(str),
    "--i-max": st.integers(-1, 20).map(str),
    "-h": st.just(None),
}
# the options each subcommand takes, the ones it requires first
FUZZ_COMMANDS = {
    "profile": ["--set", "--window", "--format"],
    "runs": ["--set", "--window", "--min-len", "--lower-bound", "--d"],
    "construct-b": ["--set", "--ells", "--k", "--digit-budget"],
    "family": ["--set", "--ells", "--k", "--k-sets", "--scheme", "--brute-span",
               "--digit-budget"],
    "verify": ["--set", "--bseq", "--k-limit", "--brute-span"],
    "ap-reduce": ["--set", "--window", "--m0"],
    "escape": ["--t", "--i-max"],
    "gen": ["--set"],
    "frobnicate": [],
}
_REQUIRED = {"--set", "--bseq", "--t", "--i-max"}


@st.composite
def cli_argvs(draw):
    """An argv of one subcommand: its required options, some of its own,
    and now and then one that belongs elsewhere or none at all."""
    sub = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    own = FUZZ_COMMANDS[sub]
    names = [n for n in own if n in _REQUIRED and draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
    if not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from(sorted(FUZZ_OPTIONS))))
    argv = [sub]
    for name in names:
        value = draw(FUZZ_OPTIONS[name])
        argv += [name] if value is None else [name, value]
    return argv


_json_leaves = (
    st.none() | st.booleans() | st.integers(-5, 60) | st.floats(allow_nan=False)
    | st.text("0123456789-x", max_size=4)
)
_json = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["ells", "bs", "certificates", "start", "len"]),
                      kids, max_size=5),
    max_leaves=8,
)


@st.composite
def bseq_payloads(draw):
    """A base sequence payload of at most four steps, often slightly off."""
    k = draw(st.integers(0, 4))
    ints = st.integers(-1, 60)
    entries = st.lists(ints | st.builds(str, ints), min_size=k, max_size=k)
    payload = {
        "ells": draw(st.lists(st.integers(-1, 5), min_size=k, max_size=k)),
        "bs": draw(entries),
        "certificates": [
            {"start": start, "len": length}
            for start, length in zip(draw(entries), draw(entries))
        ],
    }
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_json)
    return payload


@given(
    cli_argvs(),
    st.builds(json.dumps, bseq_payloads() | _json) | st.just("not json"),
)
@settings(max_examples=400, deadline=None)
def test_main_exits_with_a_documented_code(argv, bseq_text):
    with tempfile.TemporaryDirectory() as tmp:
        bseq = Path(tmp, "bseq.json")
        bseq.write_text(bseq_text)
        argv = [str(bseq) if arg == "BSEQ" else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
